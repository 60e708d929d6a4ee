"""Reduced states, entropies, and the atomic inversion.

All entropies are Shannon/von Neumann in nats.  Because the joint state is
block diagonal and both marginals are diagonal in their natural bases, every
entropy reduces to a Shannon sum over known weights; nothing here
diagonalizes more than the 2x2 blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BlockState, _per_row, _spectrum

# Weights below this are dropped from entropy sums (0 ln 0 := 0, and the
# logarithm would otherwise overflow for denormals).
_ENTROPY_FLOOR = 1e-300


def shannon_entropy(weights):
    """-sum w ln w along the last axis, over the entries above the underflow
    floor (a nan weight gives nan); a float for 1-D weights, one value per
    row otherwise."""
    w = np.asarray(weights, dtype=float)
    logw = np.log(w, out=np.zeros(w.shape), where=w > _ENTROPY_FLOOR)
    return _per_row(-np.sum(w * logw, axis=-1))


def reduced_states(state: BlockState):
    """Marginals of the joint state: (photon distribution, w1, w2).

    The photon marginal is p(n) = a[n] + b[n]; the atomic marginal is
    diagonal with ground weight w1 = sum a and excited weight w2 = sum b.
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
    photon, w1, w2 = reduced_states(state)
    s_atom = shannon_entropy(np.stack([w1, w2], axis=-1))
    s_rad = shannon_entropy(photon)
    s_joint = shannon_entropy(_spectrum(state))
    s_dec = shannon_entropy(np.concatenate([state.a, state.b], axis=-1))
    return EntropyReport(
        s_atom=s_atom,
        s_rad=s_rad,
        s_joint=s_joint,
        s_decohered=s_dec,
        deficit=s_dec - s_joint,
        rel_atom=s_joint - s_atom,
        rel_rad=s_joint - s_rad,
        mutual=s_atom + s_rad - s_joint,
        inversion=w1 - w2,
    )
