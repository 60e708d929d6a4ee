"""Exact master-equation evolution on the full truncated space.

This module is deliberately ignorant of the block structure that the rest of
the package exploits: states are dense matrices over the product basis
|n, i> -> k = 2 n + (i - 1), the generator is the textbook commutator plus
dephasing dissipator, and the evolution is its exponential, summed as a
truncated Taylor series on scaled substeps to double-precision round-off.
``integrate_path`` yields the state at each requested time as the path
reaches it, and checks its inputs at the first ``next``.
Agreement between this oracle and the closed form in ``evolution``
certifies both.

For speed the exponential carries the Hermitian state as one real matrix
X = Re rho + Im rho.  Re rho is symmetric and Im rho antisymmetric, so
(X + X^T)/2 and (X - X^T)/2 give them back, and as the two are orthogonal
||X||_F = ||rho||_F: the Taylor series' stopping test reads rho's own norm.
The generator acts on X through the one coupling partner of each level
that ``hamiltonian`` gives and an elementwise dephasing factor, and each
Taylor series stops once its terms fall below round-off; the tests check
the generator against the readable matrix form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BlockState, ModelParams

# Largest number of Taylor substeps one path may take: test paths at
# n_max = 60 up to tau = 30 need about 470, and a coupling or a time far
# beyond that would run for hours instead of failing at once.
MAX_SUBSTEPS = 10_000
# Taylor degree m and the largest ||h L||_1 for which the degree-m series
# of exp(h L) is exact to double precision (Al-Mohy and Higham, SIAM J.
# Sci. Comput. 33(2):488, 2011, Table 3.1).
_DEGREES = np.arange(5, 60, 5)
_THETAS = np.array([2.4e-3, 1.4e-1, 6.4e-1, 1.4, 2.4, 3.5, 4.7, 6.0, 7.2,
                    8.5, 9.9])


def basis_index(n: int, i: int) -> int:
    """Flat index of |n, i> with i = 1 (upper level) or 2 (lower level)."""
    if i not in (1, 2):
        raise ValueError("atomic level must be 1 or 2")
    if n < 0:
        raise ValueError("photon number must be non-negative")
    return 2 * n + (i - 1)


def space_dim(n_max: int) -> int:
    return 2 * (n_max + 1)


def hamiltonian(params: ModelParams) -> np.ndarray:
    """Resonant coupling kbar (a s+ + a^dag s-) in the rotating frame, with
    the photon annihilator a truncated at n_max and s+ = |1><2|: it couples
    |n, 1> and |n+1, 2> with strength kbar sqrt(n+1), for a finite kbar."""
    if not math.isfinite(params.kappa_bar):
        raise ValueError("kappa_bar must be finite")
    annihilator = np.diag(np.sqrt(np.arange(1.0, params.n_max + 1)), k=1)
    coupling = np.kron(annihilator, [[0.0, 1.0], [0.0, 0.0]])  # a s+
    return params.kappa_bar * (coupling + coupling.T)


def dephasing_signs(n_max: int) -> np.ndarray:
    """Diagonal of the dephasing operator Z, -1 on level 1 and +1 on level 2:
    minus the operator behind the reported inversion w1 - w2."""
    return np.tile([-1.0, 1.0], n_max + 1)


def _pack(rho: np.ndarray) -> np.ndarray:
    """X = Re rho + Im rho of a Hermitian rho."""
    return rho.real + rho.imag


def _unpack(x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """scale rho for the Hermitian rho packed as x: Re rho = (x + x^T)/2 and
    Im rho = (x - x^T)/2."""
    rho = np.empty(x.shape, dtype=complex)
    np.add(x, x.T, out=rho.real)
    np.subtract(x, x.T, out=rho.imag)
    rho *= 0.5 * scale
    return rho


def _generator(params: ModelParams):
    """``apply(x, scale, out)``, which writes scale L(x) into out for a
    Hermitian rho packed as x = Re rho + Im rho, and a bound on ||L||_1.

    Each level couples to at most one other (its partner p), so H rho is
    rho's rows gathered at the partners and scaled by the couplings S, and
    rho H = (H rho)^H.  L(rho) = -i (H rho - rho H) + D rho then packs to
    L(x) = (S x[p, :] - x[:, p] S)^T + D x = (S x[p, :])^T - S x^T[p, :]
    + D x: two row gathers, of x and of x^T.  Column (j, k) of L holds at
    most |H[j]|, |H[k]| and the dephasing rate of rho[j, k]: their largest
    sum bounds the 1-norm."""
    ham = hamiltonian(params)
    coupled = ham != 0
    if np.any(coupled.sum(axis=1) > 1):
        raise ValueError("a level couples to more than one other")
    dim = ham.shape[0]
    partner = np.argmax(coupled, axis=1)
    strength = ham[np.arange(dim), partner]
    signs = dephasing_signs(params.n_max)
    deph = 0.5 * params.gamma_bar * (signs[:, None] * signs[None, :] - 1.0)
    # A full-size factor multiplies about twice as fast as a broadcast one.
    couplings = np.repeat(strength[:, None], dim, axis=1)
    gathered = np.empty((dim, dim))

    # The gathers call the array method, which skips np.take's Python
    # wrapper.
    def apply(x: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
        x.take(partner, axis=0, out=gathered, mode="clip")
        np.multiply(gathered, couplings, out=gathered)
        np.copyto(out, gathered.T)
        x.T.take(partner, axis=0, out=gathered, mode="clip")
        np.multiply(gathered, couplings, out=gathered)
        out -= gathered
        np.multiply(x, deph, out=gathered)
        out += gathered
        out *= scale
        return out

    row = np.abs(strength)
    norm = float(np.max(row[:, None] + row[None, :] + np.abs(deph)))
    return apply, norm


def integrate_path(rho0: np.ndarray, params: ModelParams, taus):
    """Evolve exactly, yielding the state at every requested time as the
    path reaches it, so a caller need not hold them all.

    ``taus`` must be finite, non-negative and strictly increasing.  The path
    is refused when it would need more than MAX_SUBSTEPS substeps of
    ||L||_1 span <= 1, ceil(||L||_1 span) per span; the refusals run at the
    first ``next``, before any state.  Each span applies exp(span L) as s
    substeps of the Taylor series of degree at most m, the pair from the
    theta_m table with ||L||_1 span <= s theta_m and the fewest generator
    applications m s (Al-Mohy and Higham, 2011).  ``rho0`` must be Hermitian
    to within 1e-12 of its largest entry and is symmetrized.  Each yielded
    matrix is re-Hermitized; the carried state is not touched, so the path
    is a single continuous evolution.  Until the first substep the
    symmetrized ``rho0`` itself comes back.
    """
    times = [float(t) for t in taus]
    if not times:
        return
    if not all(map(math.isfinite, times)):
        raise ValueError("taus must be finite")
    if times[0] < 0 or any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("taus must be non-negative and strictly increasing")
    dim = space_dim(params.n_max)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim, dim):
        raise ValueError(f"state shape {rho0.shape} != ({dim}, {dim})")
    if not np.all(np.isfinite(rho0)):
        raise ValueError("initial state must be finite")
    if np.max(np.abs(rho0 - rho0.conj().T)) > 1e-12 * np.max(np.abs(rho0)):
        raise ValueError("initial state must be Hermitian to within 1e-12 "
                         "of its largest entry")

    apply, norm = _generator(params)
    spans = np.diff([0.0] + times)
    substeps = np.maximum(1.0, np.ceil(norm * spans))
    if not substeps.sum() <= MAX_SUBSTEPS:
        raise ValueError(
            f"the path needs {substeps.sum():.3g} substeps of the exponential "
            f"(||L||_1 = {norm:.3g}, tau up to {times[-1]:g}), more than "
            f"{MAX_SUBSTEPS}"
        )
    herm = 0.5 * (rho0 + rho0.conj().T)
    # The stopping test squares entries, so the state is carried scaled by a
    # power of two (exactly) to a largest entry in [0.5, 1).
    scale = 2.0 ** np.frexp(np.max(np.abs(rho0)))[1]
    x = _pack(herm)
    x /= scale
    total, *terms = (np.empty_like(x) for _ in range(3))
    for span in spans:
        # A zero span, or a zero generator, takes no substep.
        steps = np.ceil(norm * span / _THETAS)
        best = int(np.argmin(_DEGREES * steps))
        for _ in range(int(steps[best])):
            _taylor(apply, x, span / steps[best], _DEGREES[best], total,
                    terms)
            x, total = total, x
            herm = None
        # Unpacking is not bit-exact, so a state that no substep has moved
        # comes back as the symmetrized rho0 itself.
        yield _unpack(x, scale) if herm is None else herm.copy()


def _taylor(apply, x, h, degree, total, terms) -> None:
    """Write into ``total`` the Taylor series of exp(h L) x, stopped at
    degree ``degree`` or once two successive terms add up to at most 2^-53
    of the sum, in Frobenius norm (Al-Mohy and Higham, 2011, Algorithm
    3.2).  The terms alternate between the two scratch states ``terms``.

    ``bound``, ||x|| plus the norms of the terms so far, is at least
    ||total|| by the triangle inequality, so the sum's own norm is taken
    only once the test could pass against the bound; the relative slack of
    1e-12 keeps round-off in the two norms from skipping a test that would
    pass, and every series stops at the same term as with a norm per term."""
    np.copyto(total, x)
    term = x
    last = bound = math.sqrt(np.vdot(x, x))
    for k in range(1, degree + 1):
        term = apply(term, h / k, terms[k % 2])
        total += term
        size = math.sqrt(np.vdot(term, term))
        bound += size
        scaled = (last + size) * 2.0 ** 53
        if (scaled <= bound * (1.0 + 1e-12)
                and scaled <= math.sqrt(np.vdot(total, total))):
            return
        last = size


def _block_entries(n_max: int):
    """Flat indices (upper, partner) of the block structure: |n, 1> sits at
    upper[n] = 2 n and |n, 2> one place on, and the partner of |n, 1> is
    |n + 1, 2>, three places on, at partner[n] (n = 0..n_max-1)."""
    upper = np.arange(0, space_dim(n_max), 2)
    return upper, upper[:-1] + 3


def dense_from_block(state: BlockState) -> np.ndarray:
    """Embed a block state into the dense product-basis matrix."""
    if state.a.ndim != 1:
        raise ValueError("a batched state has no single dense form")
    dim = space_dim(state.n_max)
    rho = np.zeros((dim, dim), dtype=complex)
    upper, partner = _block_entries(state.n_max)
    rho[upper, upper] = state.a
    rho[upper + 1, upper + 1] = state.b
    rho[upper[:-1], partner] = state.c
    rho[partner, upper[:-1]] = np.conj(state.c)
    return rho


@dataclass(frozen=True)
class ComparisonReport:
    """Elementwise disagreement between a dense state and a block state."""

    max_abs: float
    by_class: dict

    def __str__(self) -> str:
        parts = ", ".join(f"{k}={v:.3e}" for k, v in self.by_class.items())
        return f"max |diff| = {self.max_abs:.3e} ({parts})"


def compare_states(dense: np.ndarray, block: BlockState) -> ComparisonReport:
    """Max |difference| overall and split by matrix-element class.

    Classes: 'a' and 'b' are the two diagonals, 'c' the intra-pair
    coherences, 'off_block' everything the block structure says must vanish.
    """
    dim = space_dim(block.n_max)
    dense = np.asarray(dense, dtype=complex)
    if dense.shape != (dim, dim):
        raise ValueError(f"state shape {dense.shape} != ({dim}, {dim})")
    diff = np.abs(dense - dense_from_block(block))
    upper, partner = _block_entries(block.n_max)
    classes = {
        "a": (upper, upper),
        "b": (upper + 1, upper + 1),
        "c": (np.concatenate([upper[:-1], partner]),
              np.concatenate([partner, upper[:-1]])),
    }
    by_class = {name: float(diff[index].max())
                for name, index in classes.items()}
    max_abs = float(diff.max())
    # What is left once the block entries are cleared lies off the blocks.
    for index in classes.values():
        diff[index] = 0.0
    by_class["off_block"] = float(diff.max())
    return ComparisonReport(max_abs=max_abs, by_class=by_class)
