"""Exact master-equation evolution on the full truncated space.

This module is deliberately ignorant of the block structure that the rest of
the package exploits: states are dense matrices over the product basis
|n, i> -> k = 2 n + (i - 1), the generator is the textbook commutator plus
dephasing dissipator, and the evolution is its exponential, summed as a
Taylor series on norm-scaled substeps to double-precision round-off.
Agreement between this oracle and the closed form in ``evolution``
certifies both.

For speed the exponential applies the generator as a sparse matrix acting on
the flattened state; ``lindblad_rhs`` keeps the readable dense form and the
two are tested against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .model import BlockState, ModelParams

# Largest number of Taylor substeps one path may take: test paths at
# n_max = 60 up to tau = 30 need about 470, and a coupling or a time far
# beyond that would run for hours instead of failing at once.
MAX_SUBSTEPS = 10_000
# With ||h L||_1 <= 1, term k is at most 1/k! of the state, below the
# round-off by k = 19; the cap only ends the loop for non-finite input.
_MAX_TERMS = 40
_ROUNDOFF = 2.0**-53


def basis_index(n: int, i: int) -> int:
    """Flat index of |n, i> with i = 1 (ground) or 2 (excited)."""
    if i not in (1, 2):
        raise ValueError("atomic level must be 1 or 2")
    if n < 0:
        raise ValueError("photon number must be non-negative")
    return 2 * n + (i - 1)


def space_dim(n_max: int) -> int:
    return 2 * (n_max + 1)


def hamiltonian(params: ModelParams) -> np.ndarray:
    """Resonant coupling in the rotating frame: kbar sqrt(n+1) between the
    paired levels |n, 1> and |n+1, 2>."""
    dim = space_dim(params.n_max)
    ham = np.zeros((dim, dim))
    for n in range(params.n_max):
        g = basis_index(n, 1)
        e = basis_index(n + 1, 2)
        ham[g, e] = ham[e, g] = params.kappa_bar * math.sqrt(n + 1.0)
    return ham


def dephasing_signs(n_max: int) -> np.ndarray:
    """Diagonal of the atomic inversion operator: -1 ground, +1 excited."""
    signs = np.empty(space_dim(n_max))
    signs[0::2] = -1.0
    signs[1::2] = 1.0
    return signs


def lindblad_rhs(rho: np.ndarray, params: ModelParams) -> np.ndarray:
    """d rho / d tau = -i [H, rho] + (gamma_bar / 2) (Z rho Z - rho)."""
    ham = hamiltonian(params)
    signs = dephasing_signs(params.n_max)
    comm = ham @ rho - rho @ ham
    deph = signs[:, None] * rho * signs[None, :] - rho
    return -1j * comm + 0.5 * params.gamma_bar * deph


def liouvillian(params: ModelParams) -> sparse.csr_matrix:
    """Sparse generator acting on the flattened state.

    vec(d rho) = L vec(rho) with L = -i (H x I - I x H^T)
    + (gamma_bar / 2) (Z x Z - I), using row-major flattening.
    """
    dim = space_dim(params.n_max)
    ham = sparse.csr_matrix(hamiltonian(params))
    eye = sparse.identity(dim, format="csr")
    signs = dephasing_signs(params.n_max)
    z_op = sparse.diags(signs, format="csr")
    lop = -1j * (sparse.kron(ham, eye) - sparse.kron(eye, ham.T))
    lop = lop + 0.5 * params.gamma_bar * (
        sparse.kron(z_op, z_op) - sparse.identity(dim * dim, format="csr")
    )
    return lop.tocsr()


def integrate_path(rho0: np.ndarray, params: ModelParams, taus):
    """Evolve exactly, returning the state at every requested time.

    ``taus`` must be non-negative and strictly increasing.  Each span between
    checkpoints applies exp(span L) as a Taylor series on
    s = ceil(||L||_1 span) substeps, so every substep has ||h L||_1 <= 1
    (the scaling of Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2):488,
    2011).  Each returned matrix is re-Hermitized; the carried state is not
    touched, so the path is a single continuous evolution.
    """
    times = [float(t) for t in taus]
    if not times:
        return []
    if times[0] < 0 or any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("taus must be non-negative and strictly increasing")
    dim = space_dim(params.n_max)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim, dim):
        raise ValueError(f"state shape {rho0.shape} != ({dim}, {dim})")
    if not np.all(np.isfinite(rho0)):
        raise ValueError("initial state must be finite")

    lop = liouvillian(params)
    norm = float(abs(lop).sum(axis=0).max())
    substeps = np.maximum(1.0, np.ceil(norm * np.diff([0.0] + times)))
    if not substeps.sum() <= MAX_SUBSTEPS:
        raise ValueError(
            f"the path needs {substeps.sum():.3g} substeps of the exponential "
            f"(||L||_1 = {norm:.3g}, tau up to {times[-1]:g}), more than "
            f"{MAX_SUBSTEPS}"
        )
    vec = rho0.ravel()
    out = []
    prev = 0.0
    for t, count in zip(times, substeps.astype(int)):
        h = (t - prev) / count
        prev = t
        for _ in range(count):
            vec = _taylor_step(lop, vec, h)
        mat = vec.reshape(dim, dim)
        out.append(0.5 * (mat + mat.conj().T))
    return out


def _taylor_step(lop: sparse.csr_matrix, vec: np.ndarray, h: float):
    """exp(h L) vec for ||h L||_1 <= 1.

    Term k is h L / k times term k - 1, so with ||h L||_1 <= 1 the terms
    shrink in the 1-norm from the first on: the series stops at the first
    term below the unit round-off of the state, which bounds everything
    after it.
    """
    tol = _ROUNDOFF * np.abs(vec).sum()
    total = vec
    term = vec
    for k in range(1, _MAX_TERMS + 1):
        term = (h / k) * (lop @ term)
        total = total + term
        if np.abs(term).sum() <= tol:
            return total
    raise ValueError("the Taylor series of exp(h L) did not converge")


def dense_from_block(state: BlockState) -> np.ndarray:
    """Embed a block state into the dense product-basis matrix."""
    dim = space_dim(state.n_max)
    rho = np.zeros((dim, dim), dtype=complex)
    for n in range(state.n_max + 1):
        rho[basis_index(n, 1), basis_index(n, 1)] = state.a[n]
        rho[basis_index(n, 2), basis_index(n, 2)] = state.b[n]
    for n in range(state.n_max):
        g = basis_index(n, 1)
        e = basis_index(n + 1, 2)
        rho[g, e] = state.c[n]
        rho[e, g] = np.conj(state.c[n])
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

    ground = np.zeros((dim, dim), dtype=bool)
    excited = np.zeros_like(ground)
    coherent = np.zeros_like(ground)
    for n in range(block.n_max + 1):
        ground[basis_index(n, 1), basis_index(n, 1)] = True
        excited[basis_index(n, 2), basis_index(n, 2)] = True
    for n in range(block.n_max):
        g, e = basis_index(n, 1), basis_index(n + 1, 2)
        coherent[g, e] = coherent[e, g] = True
    off = ~(ground | excited | coherent)

    by_class = {
        "a": float(diff[ground].max()),
        "b": float(diff[excited].max()),
        "c": float(diff[coherent].max()),
        "off_block": float(diff[off].max()),
    }
    return ComparisonReport(max_abs=float(diff.max()), by_class=by_class)
