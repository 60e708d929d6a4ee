"""Closed-form evolution of the block state.

Each pair {|n,1>, |n+1,2>} is an isolated, damped two-level system: Re c
decays by e^{-gamma_bar tau}, while the population difference a - b and Im c
turn into each other at the reduced pair frequency
E(n) = sqrt(4 kappa_bar^2 (n+1) - (gamma_bar/2)^2) and the pair sum a + b is
kept.  This exact solution of the master equation inside one pair is written
in real arithmetic and applied to every pair at once, so arbitrary times are
reached in a single call with no stepping error.
"""

from __future__ import annotations

import math

import numpy as np

from .model import BlockState, ModelParams, rabi_frequency


def propagate(state: BlockState, params: ModelParams, tau) -> BlockState:
    """Evolve a block state forward by tau in one exact step.

    ``tau`` is a scalar or a 1-D array of times.  An array gives a batched
    state with one row per time; a batched ``state`` is evolved row by row,
    its rows broadcast against the times.  The unpaired weights b[0] and
    a[n_max] are constants of the motion (the latter because its partner
    level lies above the truncation), so they are carried through unchanged.
    Evolution is a semigroup: propagate(s, t1 + t2) ==
    propagate(propagate(s, t1), t2) to round-off.  Raises ValueError when a
    phase E tau is not finite.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.ndim > 1:
        raise ValueError("tau must be a scalar or a 1-D array")
    if np.any(tau < 0):
        raise ValueError("tau must be non-negative")
    tau = tau[..., None]
    pairs = np.arange(state.n_max)
    e = rabi_frequency(params, pairs)
    # An overflowed phase gives a nan sine; the largest is max(tau) max(E).
    if not math.isfinite(float(np.max(tau)) * float(np.max(e))):
        raise ValueError("phase E tau is not finite: tau is nan or too large "
                         "for the pair frequencies")
    # W+- = cos(E tau) +- (gamma_bar / 2) V with V = sin(E tau) / E.
    phase = tau * e
    half_rate = 0.5 * params.gamma_bar
    h = np.exp(-half_rate * tau)
    v = np.sin(phase) / e
    cos = np.cos(phase)
    hv = h * v
    root = params.kappa_bar * np.sqrt(pairs + 1.0)

    # The coupling moves population between the two levels of a pair,
    # driven by a0 - b0 and by Im c0, so each pair keeps its sum and at
    # tau = 0 the flow is exactly 0.
    a0, b0, im0 = state.a[..., :-1], state.b[..., 1:], state.c.imag
    diff = a0 - b0
    flow = (0.5 * (1.0 - h * (cos + half_rate * v)) * diff
            + 2.0 * root * im0 * hv)
    a = np.empty(flow.shape[:-1] + (state.n_max + 1,))
    b = np.empty_like(a)
    c = np.empty(flow.shape, dtype=complex)
    np.subtract(a0, flow, out=a[..., :-1])
    np.add(b0, flow, out=b[..., 1:])
    a[..., -1] = state.a[..., -1]
    b[..., 0] = state.b[..., 0]
    c.real = h * h * state.c.real
    c.imag = h * (cos - half_rate * v) * im0 + root * hv * diff
    return BlockState(a=a, b=b, c=c)


def asymptotic_state(state: BlockState, params: ModelParams) -> BlockState:
    """Infinite-time limit under nonzero phase damping.

    Each pair equilibrates to equal populations with no coherence; the
    unpaired weights persist.  Raises ValueError for gamma_bar == 0, where no
    limit exists (the pairs oscillate forever).
    """
    if params.gamma_bar <= 0:
        raise ValueError("asymptotic state needs gamma_bar > 0")
    mean = 0.5 * (state.a[..., :-1] + state.b[..., 1:])
    a = np.concatenate([mean, state.a[..., -1:]], axis=-1)
    b = np.concatenate([state.b[..., :1], mean], axis=-1)
    return BlockState(a=a, b=b, c=np.zeros(state.c.shape, dtype=complex))
