"""Concurrence lower bound from two-level projections of the field.

Projecting the field onto span{|n>, |n+1>} leaves an effective two-qubit
state whose concurrence is computable in closed form because the projected
matrix has the X shape (diagonal plus one antidiagonal coherence).  Averaging
the per-projection concurrences with their trace weights gives a lower bound
on the atom-field entanglement of the full state.
"""

from __future__ import annotations

import numpy as np

from .model import BlockState, _per_row

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
    # Clip tiny negative populations left by round-off before the square
    # roots.
    a = np.maximum(state.a, 0.0)
    b = np.maximum(state.b, 0.0)
    v, w, x, y = b[..., :-1], b[..., 1:], a[..., :-1], a[..., 1:]
    az = np.abs(state.c)
    t = v + w + x + y

    keep = t >= _WEIGHT_FLOOR
    weight = np.where(keep, t, 0.0)
    raw = np.divide(2.0 * (np.minimum(az, np.sqrt(w * x)) - np.sqrt(v * y)),
                    t, out=np.zeros_like(t), where=keep)
    conc = np.clip(raw, 0.0, 1.0)
    total = np.sum(weight, axis=-1)
    return _per_row(np.divide(np.sum(conc * weight, axis=-1), total,
                              out=np.zeros_like(total), where=total > 0.0))
