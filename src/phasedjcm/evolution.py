"""Closed-form evolution of the block state.

Each pair {|n,1>, |n+1,2>} is an isolated, damped two-level system: Re c
decays by e^{-gamma_bar tau}, while the population difference a - b and Im c
turn into each other at the reduced pair frequency
E(n) = sqrt(4 kappa_bar^2 (n+1) - (gamma_bar/2)^2) and the pair sum a + b is
kept.  This exact solution of the master equation inside one pair is written
in real arithmetic and applied to every pair at once, so arbitrary times are
reached in a single call with no stepping error.  ``propagate`` takes this
step, the unpaired levels included; the first block of ``_tau_blocks`` is
one ``propagate`` call.
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
    if not math.isfinite(float(np.max(tau, initial=0.0)) * float(e.max())):
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


def propagate(state: BlockState, params: ModelParams, tau) -> BlockState:
    """Evolve a block state forward by tau in one exact step.

    ``tau`` is a scalar or a 1-D array of times.  An array gives a batched
    state with one row per time; a batched ``state`` is evolved row by row,
    its rows broadcast against the times.  Evolution is a semigroup:
    propagate(s, t1 + t2) == propagate(propagate(s, t1), t2) to round-off.
    Raises ValueError when a phase E tau is not finite.
    """
    rates = _pair_rates(params, state.n_max)
    factors = _step_factors(params, rates, tau)
    shape = np.broadcast_shapes(factors[0].shape, state.c.shape)
    a = np.empty(shape[:-1] + (state.n_max + 1,))
    b = np.empty_like(a)
    c = np.empty(shape, dtype=complex)
    a0, b0, im0 = state.a[..., :-1], state.b[..., 1:], state.c.imag
    _move_pairs(factors, a0, b0, a0 - b0, im0, 2.0 * rates[1] * im0,
                a[..., :-1], b[..., 1:], c.imag)
    np.multiply(factors[-1], state.c.real, out=c.real)
    # The unpaired b[0] and a[n_max] (whose partner lies above the
    # truncation) are constants of the motion, so they are carried over.
    a[..., -1] = state.a[..., -1]
    b[..., 0] = state.b[..., 0]
    return BlockState(a=a, b=b, c=c)


def _tau_blocks(state: BlockState, params: ModelParams, grid, rows: int):
    """Yield (block, levels, c_sq) for every block of ``rows`` points of an
    evenly spaced grid of times, in order: the block's slice of the grid,
    its populations a and b side by side and its squared coherences.

    Every block is one exact step of ``_move_pairs``.  The first block is
    ``propagate(state, params, grid[:rows])``, copied into the arrays
    yielded, which every later block overwrites in turn; a later block
    starting at grid[lo] moves the first block's rows on by the one scalar
    time grid[lo] - grid[0] (a short last block takes the first rows).
    Each equals propagate of what it moves bit for bit, so every sample is
    reached in at most two exact steps.  The unpaired levels are constants
    of the motion, so later blocks keep the first block's.  The step
    factors of as many shifts as a block has rows are computed together
    when the walk reaches them, so a table is never larger than the block.
    Raises ValueError when a phase E tau is not finite.
    """
    rows = min(rows, grid.size)
    rates = _pair_rates(params, state.n_max)
    first = propagate(state, params, grid[:rows])
    levels = _levels(first)
    # Contiguous copies of the first block's pairs, Re c and Im c, which
    # the later moves read faster than views of the state; one array each
    # stays the size of a block (runner._BLOCK_ENTRIES).
    a0, b0 = first.a[:, :-1].copy(), first.b[:, 1:].copy()
    re0, im0 = first.c.real.copy(), first.c.imag.copy()
    c_sq = _abs_sq(first.c, out=np.empty_like(re0))
    del first
    im, flow = np.empty_like(re0), np.empty_like(re0)
    yield slice(0, rows), levels, c_sq
    diff, drive = a0 - b0, 2.0 * rates[1] * im0
    work = (levels, c_sq, im, flow)
    for start in range(rows, grid.size, rows * rows):
        table = _step_factors(params, rates,
                              grid[start:start + rows * rows:rows] - grid[0])
        for lo, *factors in zip(range(start, grid.size, rows), *table):
            size = min(rows, grid.size - lo)
            levels, c_sq, im, flow = (arr[:size] for arr in work)
            a, b = _split_levels(levels)
            _move_pairs(factors, a0[:size], b0[:size], diff[:size],
                        im0[:size], drive[:size], a[:, :-1], b[:, 1:], im,
                        flow)
            np.multiply(re0[:size], factors[-1], out=c_sq)
            c_sq *= c_sq
            c_sq += np.multiply(im, im, out=flow)
            yield slice(lo, lo + size), levels, c_sq


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
