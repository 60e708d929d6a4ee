"""Reduced states, entropies, and the atomic inversion.

All entropies are Shannon/von Neumann in nats.  Because the joint state is
block diagonal and both marginals are diagonal in their natural bases, every
entropy reduces to a Shannon sum over known weights; nothing here
diagonalizes more than the 2x2 blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (BlockState, _abs_sq, _levels, _per_row, _spectrum,
                    _split_levels)

# Weights below this are dropped from entropy sums (0 ln 0 := 0, and the
# logarithm would otherwise overflow for denormals).
_ENTROPY_FLOOR = 1e-300


def _entropy(w: np.ndarray, terms=None) -> np.ndarray:
    """-sum w ln w of a float array along its last axis, over the entries
    above the underflow floor.  ``terms`` is an optional work array of w's
    shape."""
    if w.size and w.min() > _ENTROPY_FLOOR:
        # Every entry is above the floor (a nan fails the test).
        terms = np.log(w, out=terms)
    else:
        # The logarithm reads 1, so each term is 0, wherever w is not above
        # the floor.
        if terms is None:
            terms = w.copy()
        else:
            np.copyto(terms, w)
        np.putmask(terms, w <= _ENTROPY_FLOOR, 1.0)
        np.log(terms, out=terms)
    terms *= w
    return -terms.sum(axis=-1)


def shannon_entropy(weights):
    """-sum w ln w along the last axis, over the entries above the underflow
    floor (a nan weight gives nan); a float for 1-D weights, one value per
    row otherwise."""
    return _per_row(_entropy(np.asarray(weights, dtype=float)))


def reduced_states(state: BlockState):
    """Marginals of the joint state: (photon distribution, w1, w2).

    The photon marginal is p(n) = a[n] + b[n]; the atomic marginal is
    diagonal with upper-level weight w1 = sum a and lower-level weight
    w2 = sum b.
    """
    photon = state.a + state.b
    return (photon, _per_row(np.sum(state.a, axis=-1)),
            _per_row(np.sum(state.b, axis=-1)))


@dataclass(frozen=True)
class EntropyReport:
    """Entropy functionals of one joint state, all in nats.

    For a batched state every field is an array with one value per row.

    s_atom / s_rad   marginal entropies of atom and field
    s_joint          entropy of the joint state
    s_decohered      entropy of the joint diagonal (coherences dropped)
    deficit          s_decohered - s_joint, the entropy held in coherences
    rel_atom         s_joint - s_atom, conditional entropy of the field
                     given the atom (negative only for nonclassical states)
    rel_rad          s_joint - s_rad, conditional entropy of the atom
                     given the field
    mutual           s_atom + s_rad - s_joint
    inversion        atomic inversion w1 - w2
    """

    s_atom: float
    s_rad: float
    s_joint: float
    s_decohered: float
    deficit: float
    rel_atom: float
    rel_rad: float
    mutual: float
    inversion: float


def entropy_report(state: BlockState) -> EntropyReport:
    """Compute every entropy functional of one state, or of each row of a
    batched state."""
    fields = _entropies(_levels(state), _abs_sq(state.c))
    return EntropyReport(**{name: _per_row(value)
                            for name, value in fields.items()})


def _entropies(levels, c_sq, photon=None, work=(None, None)) -> dict:
    """The fields of ``EntropyReport``, as arrays, of the states whose
    populations a and b are the two halves of ``levels`` along the last
    axis, with squared coherences c_sq.  ``photon`` is their photon
    distribution a + b when known, and ``work`` an optional pair of arrays
    of levels' shape for the spectrum and the entropy terms.
    """
    a, b = _split_levels(levels)
    if photon is None:
        photon = a + b
    spectrum, terms = work
    # The atom's weights (w1, w2) = (sum a, sum b) along the last axis.
    atom = levels.reshape(levels.shape[:-1] + (2, -1)).sum(axis=-1)
    s_atom = _entropy(atom)
    s_rad = _entropy(photon)
    s_joint = _entropy(_spectrum(a, b, c_sq, out=spectrum), terms)
    s_dec = _entropy(levels, terms)
    return dict(
        s_atom=s_atom,
        s_rad=s_rad,
        s_joint=s_joint,
        s_decohered=s_dec,
        deficit=s_dec - s_joint,
        rel_atom=s_joint - s_atom,
        rel_rad=s_joint - s_rad,
        mutual=s_atom + s_rad - s_joint,
        inversion=atom[..., 0] - atom[..., 1],
    )
