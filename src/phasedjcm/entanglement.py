"""Concurrence lower bound from two-level projections of the field.

Projecting the field onto span{|n>, |n+1>} leaves an effective two-qubit
state whose concurrence is computable in closed form because the projected
matrix has the X shape (diagonal plus one antidiagonal coherence).  Averaging
the per-projection concurrences with their trace weights gives a lower bound
on the atom-field entanglement of the full state.
"""

from __future__ import annotations

import numpy as np

from .model import BlockState, _abs_sq, _levels, _per_row, _split_levels

# Projections carrying less weight than this are skipped: their normalized
# concurrence is numerically meaningless and their weight cannot matter.
_WEIGHT_FLOOR = 1e-14


def concurrence_lower_bound(state: BlockState):
    """Trace-weighted average concurrence over all photon-pair projections.

    The projection onto photons {n, n+1} has populations v = b[n],
    w = b[n+1], x = a[n], y = a[n+1], the coherence z = c[n] and the trace
    t = v + w + x + y; its concurrence is
    (2 / t) (min(|z|, sqrt(w x)) - sqrt(v y)) clipped to [0, 1].  The min is
    a no-op on every positive semidefinite block, where |z| <= sqrt(w x).

    Runs over n = 0..n_max-1; projections below the weight floor are
    skipped.  Returns a float, or one value per row of a batched state.
    """
    return _per_row(_clb(_levels(state), _abs_sq(state.c)))


def _clb(levels, c_sq, photon=None, work=(None, None, None)) -> np.ndarray:
    """The concurrence lower bound of the states whose populations a and b
    are the two halves of ``levels`` along the last axis, with squared
    coherences c_sq, as an array.  ``photon`` is their photon distribution
    a + b when known, and ``work`` an optional triple of arrays of c_sq's
    shape."""
    if levels.size and levels.min() < 0.0:
        # Clip tiny negative populations left by round-off before the
        # square roots.
        levels, photon = np.maximum(levels, 0.0), None
    a, b = _split_levels(levels)
    if photon is None:
        photon = a + b
    # t = p(n) + p(n+1).  A kept projection adds t times its concurrence,
    # 2 (min(|z|, sqrt(w x)) - sqrt(v y)) clipped to [0, t]; a skipped one
    # adds 0 to both sums.  The square root is monotone, so
    # min(|z|, sqrt(w x)) = sqrt(min(|z|^2, w x)).
    t = np.add(photon[..., :-1], photon[..., 1:], out=work[0])
    weighted = np.multiply(a[..., :-1], b[..., 1:], out=work[1])
    np.minimum(c_sq, weighted, out=weighted)
    np.sqrt(weighted, out=weighted)
    root = np.multiply(b[..., :-1], a[..., 1:], out=work[2])
    weighted -= np.sqrt(root, out=root)
    weighted *= 2.0
    np.maximum(weighted, 0.0, out=weighted)
    np.minimum(weighted, t, out=weighted)
    if t.size and t.min() >= _WEIGHT_FLOOR:
        # No projection is skipped (a nan fails the test), and every total
        # is positive.
        return weighted.sum(axis=-1) / t.sum(axis=-1)
    skip = ~(t >= _WEIGHT_FLOOR)
    np.copyto(t, 0.0, where=skip)
    np.copyto(weighted, 0.0, where=skip)
    total = t.sum(axis=-1)
    return np.divide(weighted.sum(axis=-1), total,
                     out=np.zeros_like(total), where=total > 0.0)
