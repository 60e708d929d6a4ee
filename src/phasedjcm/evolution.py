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

from .model import (BlockState, ModelParams, _abs_sq, _levels, _split_levels,
                    rabi_frequency)


def _pair_rates(params: ModelParams, n_max: int):
    """(E(n), kappa_bar sqrt(n + 1)) of the pairs n = 0..n_max-1."""
    pairs = np.arange(n_max)
    return (rabi_frequency(params, pairs),
            params.kappa_bar * np.sqrt(pairs + 1.0))


def _step_factors(params: ModelParams, rates, tau):
    """Per-pair factors (k_diff, hv, m_diff, m_im, decay) of one exact step
    by tau, for ``_move_pairs``; Re c moves on by the factor decay.

    ``rates`` come from ``_pair_rates``.  ``tau`` is a scalar, giving
    factors of shape (n_max,) and a scalar decay, or a 1-D array, giving one
    row of factors per time.  Raises ValueError for a negative time or a
    phase E tau that is not finite.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.ndim > 1:
        raise ValueError("tau must be a scalar or a 1-D array")
    if (tau < 0).any():
        raise ValueError("tau must be non-negative")
    tau = tau[..., None]
    e, root = rates
    # An overflowed phase gives a nan sine; the largest is max(tau) max(E).
    if not math.isfinite(float(tau.max()) * float(e.max())):
        raise ValueError("phase E tau is not finite: tau is nan or too large "
                         "for the pair frequencies")
    # W+- = cos(E tau) +- (gamma_bar / 2) V with V = sin(E tau) / E.
    phase = tau * e
    half_rate = 0.5 * params.gamma_bar
    h = np.exp(-half_rate * tau)
    v = np.sin(phase) / e
    cos = np.cos(phase)
    hv = h * v
    k_diff = 0.5 * (1.0 - h * (cos + half_rate * v))
    return k_diff, hv, root * hv, h * (cos - half_rate * v), h * h


def _move_pairs(factors, a0, b0, diff, im0, drive, a, b, im,
                flow=None) -> None:
    """Write one exact step of every pair into ``a``, ``b`` and ``im``.

    a0 = a[n], b0 = b[n+1] and im0 = Im c[n] hold the pairs before the
    step, with diff = a0 - b0 and drive = 2 kappa_bar sqrt(n + 1) Im c[n];
    ``factors`` come from ``_step_factors`` and broadcast against them, and
    ``flow`` is an optional work array of the output's shape.  The coupling
    moves population between the two levels of a pair, driven by a0 - b0
    and by Im c0, so each pair keeps its sum and at tau = 0 the flow is
    exactly 0.
    """
    k_diff, hv, m_diff, m_im, _ = factors
    flow = np.multiply(k_diff, diff, out=flow)
    flow += np.multiply(drive, hv, out=im)
    np.subtract(a0, flow, out=a)
    np.add(b0, flow, out=b)
    np.multiply(m_im, im0, out=im)
    im += np.multiply(m_diff, diff, out=flow)


def _drive(rates, im0):
    """2 kappa_bar sqrt(n + 1) Im c[n], the coherence's push on pair n."""
    return 2.0 * rates[1] * im0


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
    rates = _pair_rates(params, state.n_max)
    factors = _step_factors(params, rates, tau)
    a0, b0, im0 = state.a[..., :-1], state.b[..., 1:], state.c.imag
    shape = np.broadcast_shapes(factors[0].shape, a0.shape)
    a = np.empty(shape[:-1] + (state.n_max + 1,))
    b = np.empty_like(a)
    c = np.empty(shape, dtype=complex)
    _move_pairs(factors, a0, b0, a0 - b0, im0, _drive(rates, im0),
                a[..., :-1], b[..., 1:], c.imag)
    a[..., -1] = state.a[..., -1]
    b[..., 0] = state.b[..., 0]
    c.real = factors[-1] * state.c.real
    return BlockState(a=a, b=b, c=c)


class _MovedRows:
    """The rows of one batched state, moved on together by scalar times.

    The state's pair arrays are kept as contiguous copies, with a - b and
    the drive of Im c, and every move writes into the same work arrays:
    ``levels``, the populations a and b side by side along the last axis,
    and ``c_sq``, the squared coherences.  They start out as the state
    itself; the unpaired levels are constants of the motion, so no move
    writes them.

    ``shifts`` holds the times of the later moves.  Their step factors are
    computed together, one table row per shift, in tables of as many
    shifts as the state has rows, so a table is never larger than the
    state itself.
    """

    def __init__(self, state: BlockState, params: ModelParams, shifts):
        a, b, c = state.a, state.b, state.c
        self.params = params
        self.rates = _pair_rates(params, state.n_max)
        self.shifts = np.asarray(shifts, dtype=float)
        self.table = (None, None)
        self.a0 = np.ascontiguousarray(a[:, :-1])
        self.b0 = np.ascontiguousarray(b[:, 1:])
        self.diff = self.a0 - self.b0
        self.im0 = np.ascontiguousarray(c.imag)
        self.drive = _drive(self.rates, self.im0)
        self.re0 = np.ascontiguousarray(c.real)
        self.levels = _levels(state)
        self.c_sq = _abs_sq(c)
        self.im = np.empty(c.shape)
        self.flow = np.empty(c.shape)

    def move(self, index: int, rows: int):
        """(levels, c_sq) of the first ``rows`` rows moved on by
        ``shifts[index]``, each propagated exactly as ``propagate`` does.
        They are views of the work arrays, overwritten by the next move."""
        span = self.a0.shape[0]
        lo = index - index % span
        if self.table[0] != lo:
            self.table = lo, _step_factors(self.params, self.rates,
                                           self.shifts[lo:lo + span])
        factors = [f[index - lo] for f in self.table[1]]
        levels, c_sq, im, flow = (arr[:rows] for arr in (
            self.levels, self.c_sq, self.im, self.flow))
        a, b = _split_levels(levels)
        _move_pairs(factors, self.a0[:rows], self.b0[:rows],
                    self.diff[:rows], self.im0[:rows], self.drive[:rows],
                    a[:, :-1], b[:, 1:], im, flow)
        # |c|^2 = (decay Re c0)^2 + (Im c)^2, the products _abs_sq takes of
        # propagate's output, so the block matches it bit for bit.
        np.multiply(self.re0[:rows], factors[-1], out=c_sq)
        c_sq *= c_sq
        c_sq += np.multiply(im, im, out=flow)
        return levels, c_sq


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
