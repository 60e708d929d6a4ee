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
    full = half * half

    a0 = state.a[..., :-1]
    b0 = state.b[..., 1:]
    c0 = state.c
    root = params.kappa_bar * np.sqrt(pairs + 1.0)

    # The population source term is -Im c of the current state; for the
    # Bell-mixture start this equals p(n) lam sqrt(q11 q22) sin(phi), and
    # reading it off the state keeps the one-step map exactly composable.
    msin = -c0.imag
    mix = half * w_plus
    pump = 2.0 * root * msin * half * v

    a1 = 0.5 * (a0 * (1.0 + mix) + b0 * (1.0 - mix)) + pump
    b1 = 0.5 * (b0 * (1.0 + mix) + a0 * (1.0 - mix)) - pump
    c1 = (
        full * c0
        + 1j * msin * half * (half - w_minus)
        - 1j * root * (b0 - a0) * half * v
    )

    edge = a1.shape[:-1] + (1,)
    a = np.concatenate([a1, np.broadcast_to(state.a[..., -1:], edge)], axis=-1)
    b = np.concatenate([np.broadcast_to(state.b[..., :1], edge), b1], axis=-1)
    return BlockState(a=a, b=b, c=c1)


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
