"""The columns of a curve: the block functionals (entropies, the atomic
inversion and the concurrence lower bound) and the resummed inversion.

All entropies are Shannon/von Neumann in nats.  Because the joint state is
block diagonal and both marginals are diagonal in their natural bases, every
entropy reduces to a Shannon sum over known weights; nothing here
diagonalizes more than the 2x2 blocks.

Projecting the field onto span{|n>, |n+1>} leaves an effective two-qubit
state whose concurrence is computable in closed form because the projected
matrix has the X shape (diagonal plus one antidiagonal coherence).  Averaging
the per-projection concurrences with their trace weights gives a lower bound
on the atom-field entanglement of the full state.

One column kernel, ``_columns``, computes every functional of a block of
states from one photon distribution.  ``entropy_report``, the one public
evaluator, reads its fields from it, a single state being a block of one
row, so each formula is written once.

The one column that is not a block functional is the collapse-revival
asymptotics of the inversion, ``poisson_sum_inversion``.  The exact
inversion is a sum of cosines at the pair frequencies 2 kbar sqrt(n+1)
weighted by the Poisson distribution.  Under Poisson resummation for the
undamped model this becomes one slowly decaying collapse envelope plus a
train of Gaussian revival bursts centered at tau_nu = 2 pi nu sqrt(N) /
kbar, each carrying a chirped carrier.  The expansion keeps the leading
terms in 1/sqrt(N) of that resummation and is meaningful for large N and
times up to a few revivals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (BlockState, ModelParams, _abs_sq, _levels, _per_row,
                    _spectrum, _split_levels, poisson_pmf)

# Weights below this are dropped from entropy sums (0 ln 0 := 0, and the
# logarithm would otherwise overflow for denormals).
_ENTROPY_FLOOR = 1e-300

# Projections carrying less weight than this are skipped: their normalized
# concurrence is numerically meaningless and their weight cannot matter.
_WEIGHT_FLOOR = 1e-14

# Gaussian factors below this are flushed to zero so that far-off-center
# bursts contribute exact zeros instead of denormal noise.
_ENVELOPE_FLOOR = 1e-16


def _entropy(w: np.ndarray, terms=None) -> np.ndarray:
    """-sum w ln w of a float array along its last axis, over the entries
    above the underflow floor.  ``terms`` is an optional work array of w's
    shape."""
    if terms is None:
        terms = w.copy()
    else:
        np.copyto(terms, w)
    # The logarithm reads 1, so each term is 0, wherever w is not above the
    # floor (a nan is kept, and gives a nan sum).
    np.putmask(terms, w <= _ENTROPY_FLOOR, 1.0)
    np.log(terms, out=terms)
    terms *= w
    # 0 - sum, not -sum: a pure state's zero sum gives +0.0, never -0.0.
    return 0.0 - terms.sum(axis=-1)


@dataclass(frozen=True)
class EntropyReport:
    """Entropy functionals of one joint state, all in nats, and its
    concurrence lower bound.

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
    clb              concurrence lower bound (see ``_columns``)
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
    clb: float


def entropy_report(state: BlockState) -> EntropyReport:
    """Compute every entropy functional and the concurrence lower bound of
    one state, as a float per field, or of each row of a batched state, as
    one array per field (of shape (0,) for an empty batch), in one
    evaluation of ``_columns``."""
    batch = state.a.shape[:-1]
    rows = math.prod(batch)
    fields = _columns(_levels(state).reshape(rows, 2 * state.n_max + 2),
                      _abs_sq(state.c).reshape(rows, state.n_max),
                      _work_arrays(rows, state.n_max))
    return EntropyReport(**{name: _per_row(value.reshape(batch))
                            for name, value in fields.items()})


def _work_arrays(rows: int, n_max: int) -> tuple:
    """Work arrays for ``_columns`` on blocks of up to ``rows`` states: the
    photon distribution, the spectrum and the entropy terms, and three for
    the concurrence bound."""
    return (np.empty((rows, n_max + 1)),
            *(np.empty((rows, 2 * n_max + 2)) for _ in range(2)),
            *(np.empty((rows, n_max)) for _ in range(3)))


def _columns(levels, c_sq, work) -> dict:
    """The fields of ``EntropyReport``, as arrays, of a block of states
    whose populations a and b are the two halves of ``levels`` along the
    last axis, with squared coherences c_sq.

    The concurrence lower bound ``"clb"`` is the trace-weighted average
    concurrence over the photon-pair projections n = 0..n_max-1.  The
    projection onto photons {n, n+1} has populations v = b[n], w = b[n+1],
    x = a[n], y = a[n+1], the coherence z = c[n] and the trace
    t = v + w + x + y; its concurrence is
    (2 / t) (min(|z|, sqrt(w x)) - sqrt(v y)) clipped to [0, 1].  The min is
    a no-op on every positive semidefinite block, where |z| <= sqrt(w x).
    Projections below the weight floor are skipped.

    The entropies and the bound share the photon distribution a + b,
    computed once.  The large temporaries live in ``work`` (from
    ``_work_arrays``), reused block after block."""
    photon, spectrum, terms, t, weighted, root = (
        arr[:levels.shape[0]] for arr in work)
    a, b = _split_levels(levels)
    photon = np.add(a, b, out=photon)
    # The atom's weights (w1, w2) = (sum a, sum b) along the last axis.
    atom = levels.reshape(levels.shape[:-1]
                          + (2, levels.shape[-1] // 2)).sum(axis=-1)
    s_atom = _entropy(atom)
    s_rad = _entropy(photon)
    s_joint = _entropy(_spectrum(a, b, c_sq, out=spectrum), terms)
    s_dec = _entropy(levels, terms)
    fields = dict(
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
    if np.min(levels, initial=0.0) < 0.0:
        # Clip tiny negative populations left by round-off before the
        # bound's square roots.
        levels = np.maximum(levels, 0.0)
        a, b = _split_levels(levels)
        photon = np.add(a, b, out=photon)
    # t = p(n) + p(n+1).  A kept projection adds t times its concurrence,
    # 2 (min(|z|, sqrt(w x)) - sqrt(v y)) clipped to [0, t]; a skipped one
    # adds 0 to both sums.  The square root is monotone, so
    # min(|z|, sqrt(w x)) = sqrt(min(|z|^2, w x)).
    t = np.add(photon[..., :-1], photon[..., 1:], out=t)
    weighted = np.multiply(a[..., :-1], b[..., 1:], out=weighted)
    np.minimum(c_sq, weighted, out=weighted)
    np.sqrt(weighted, out=weighted)
    root = np.multiply(b[..., :-1], a[..., 1:], out=root)
    weighted -= np.sqrt(root, out=root)
    weighted *= 2.0
    np.maximum(weighted, 0.0, out=weighted)
    np.minimum(weighted, t, out=weighted)
    skip = ~(t >= _WEIGHT_FLOOR)
    np.copyto(t, 0.0, where=skip)
    np.copyto(weighted, 0.0, where=skip)
    total = t.sum(axis=-1)
    fields["clb"] = np.divide(weighted.sum(axis=-1), total,
                              out=np.zeros_like(total), where=total > 0.0)
    return fields


def revival_times(params: ModelParams, nu_max: int) -> np.ndarray:
    """Centers tau_nu = 2 pi nu sqrt(N) / kappa_bar for nu = 1..nu_max."""
    if nu_max < 1:
        raise ValueError("nu_max must be at least 1")
    nu = np.arange(1, nu_max + 1, dtype=float)
    return 2.0 * math.pi * nu * math.sqrt(params.mean_photons) / params.kappa_bar


def poisson_sum_inversion(params: ModelParams, tau, nu_max: int = 5,
                          lam=None):
    """The resummed inversion at tau: the constant offset from the unpaired
    |0,2> weight, the collapse burst at tau = 0 and the first nu_max revival
    bursts, added in that order.

    ``tau`` is a scalar or an array; ``lam`` replaces ``params.lam`` when
    given and may be an array of mixture weights, broadcast against tau.
    Returns a float when both are scalars, and nan wherever the series
    overflows.  Only gamma_bar == 0 is supported: damping deforms every
    pair frequency and envelope, and this expansion does not model that.
    """
    if params.gamma_bar != 0:
        raise ValueError("revival asymptotics require gamma_bar == 0")
    kbar = params.kappa_bar
    big_n = params.mean_photons
    root_n = math.sqrt(big_n)
    lam = params.lam if lam is None else np.asarray(lam, dtype=float)
    tau = np.asarray(tau, dtype=float)
    p11, p22 = params.p11, params.p22
    q11, q22 = params.q11, params.q22
    bell = 2.0 * lam * math.sqrt(q11 * q22) * math.sin(params.bell_phase)

    constant = -0.5 * (1.0 - lam) * p22 * poisson_pmf(big_n, 0)
    secular = (1.0 - lam) * (p11 - p22) + lam * (q11 - q22)
    drift = (1.0 - lam) * (3.0 * p11 - p22) + 1.5 * lam * (q11 - q22)

    # A huge kbar tau flushes the collapse envelope to zero, while for a
    # tiny N the bursts crowd towards tau = 0 and their amplitudes overflow;
    # such points are marked absent below.
    with np.errstate(over="ignore", invalid="ignore"):
        phase = 2.0 * kbar * root_n * tau
        env = np.exp(-0.5 * (kbar * tau) ** 2)
        osc = (
            secular * np.cos(phase)
            - drift * kbar * tau * np.sin(phase) / (2.0 * root_n)
            + bell * np.sin(phase)
        )
        out = constant + np.where(env < _ENVELOPE_FLOOR, 0.0, osc * env)

        norm = 1.0 / math.sqrt(math.pi * big_n)
        cos_amp_sq = (1.0 - lam) * p11 + lam * (q11 - q22)
        cos_amp_0 = -(1.0 - lam) * p22
        for nu, tau_nu in enumerate(revival_times(params, nu_max), start=1):
            width = kbar**2 / (2.0 * math.pi**2 * nu**2)
            prefac = kbar / (2.0 * math.pi * math.sqrt(float(nu) ** 3))
            env = norm * np.exp(-width * (tau - tau_nu) ** 2)
            ratio_sq = (tau / tau_nu) ** 2
            carrier = kbar**2 * tau**2 / (2.0 * math.pi * nu) - 0.25 * math.pi
            osc = (
                (cos_amp_sq * ratio_sq + cos_amp_0) * np.cos(carrier)
                + bell * ratio_sq * np.sin(carrier)
            )
            out = out + np.where(env < _ENVELOPE_FLOOR, 0.0,
                                 prefac * tau * env * osc)
    return _per_row(np.where(np.isfinite(out), out, math.nan))
