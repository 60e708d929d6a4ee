"""Closed-form evolution of the block state.

Each pair {|n,1>, |n+1,2>} is an isolated two-level system: the coupling
rotates its population difference into the coherence at the reduced pair
frequency E(n) = sqrt(4 kappa_bar^2 (n+1) - (gamma_bar/2)^2) while phase
damping shrinks the coherence.  The expressions below are the exact solution
of the master equation inside one pair, applied to every pair at once, so
arbitrary times are reached in a single call with no stepping error.
"""

from __future__ import annotations

import math

import numpy as np

from .model import BlockState, ModelParams, rabi_frequency


def envelopes(params: ModelParams, n, tau: float):
    """The three oscillation envelopes (W+, W-, V) of pair n at time tau.

    V = sin(E tau) / E and W+- = cos(E tau) +- (gamma_bar / 2) V.  Shapes
    follow ``n``.  Raises ValueError when a phase E tau is not finite.
    """
    e = rabi_frequency(params, n)
    # The fastest pair at the latest time has the largest phase; the sine
    # and cosine of an overflowed one would be nan.
    if not math.isfinite(float(np.max(np.abs(tau))) * float(np.max(e))):
        raise ValueError("phase E tau is not finite: tau is nan or too large "
                         "for the pair frequencies")
    phase = tau * e
    v = np.sin(phase) / e
    cos = np.cos(phase)
    half_rate = 0.5 * params.gamma_bar
    return cos + half_rate * v, cos - half_rate * v, v


def propagate(state: BlockState, params: ModelParams, tau) -> BlockState:
    """Evolve a block state forward by tau in one exact step.

    ``tau`` is a scalar or a 1-D array of times.  An array gives a batched
    state with one row per time; a batched ``state`` is evolved row by row,
    its rows broadcast against the times.  The unpaired weights b[0] and
    a[n_max] are constants of the motion (the latter because its partner
    level lies above the truncation), so they are carried through unchanged.
    Evolution is a semigroup:
    propagate(s, t1 + t2) == propagate(propagate(s, t1), t2) to round-off.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.ndim > 1:
        raise ValueError("tau must be a scalar or a 1-D array")
    if np.any(tau < 0):
        raise ValueError("tau must be non-negative")
    tau = tau[..., None]
    pairs = np.arange(state.n_max)
    w_plus, w_minus, v = envelopes(params, pairs, tau)
    half = np.exp(-0.5 * params.gamma_bar * tau)
    hv = half * v

    a0 = state.a[..., :-1]
    b0 = state.b[..., 1:]
    c0 = state.c
    root = params.kappa_bar * np.sqrt(pairs + 1.0)

    # Each pair keeps its sum a0 + b0: the coupling moves population
    # between its two levels, driven by the difference a0 - b0 and by the
    # source term -Im c of the current state.  For the Bell-mixture start
    # the source equals p(n) lam sqrt(q11 q22) sin(phi); reading it off the
    # state keeps the one-step map exactly composable.  At tau = 0 the flow
    # is exactly 0.
    diff = a0 - b0
    msin = -c0.imag
    flow = 0.5 * (1.0 - half * w_plus) * diff - 2.0 * root * msin * hv
    c = half * half * c0 + 1j * (msin * half * (half - w_minus)
                                 + root * diff * hv)

    rows = flow.shape[:-1]
    a = np.empty(rows + (state.n_max + 1,))
    b = np.empty(rows + (state.n_max + 1,))
    np.subtract(a0, flow, out=a[..., :-1])
    np.add(b0, flow, out=b[..., 1:])
    a[..., -1] = state.a[..., -1]
    b[..., 0] = state.b[..., 0]
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
