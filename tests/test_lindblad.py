"""Exact master-equation oracle used to certify the closed form."""

import ast
import json
import math
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from phasedjcm import (
    CATALOG,
    BlockState,
    ModelParams,
    build_initial_state,
    compare_states,
    dense_from_block,
    entropy_report,
    integrate_path,
    lindblad,
    propagate,
    run_scenario,
)
from phasedjcm.lindblad import (
    _generator,
    _pack,
    _taylor,
    _unpack,
    basis_index,
    dephasing_signs,
    hamiltonian,
    space_dim,
)


def make_params(**overrides):
    base = dict(kappa_bar=1.0, gamma_bar=0.0, mean_photons=2.0, lam=0.5,
                p11=0.8, q11=0.5, bell_phase=math.pi / 6.0, n_max=20)
    base.update(overrides)
    return ModelParams(**base)


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def lindblad_rhs(rho, params):
    """The generator in its readable matrix form:
    d rho / d tau = -i [H, rho] + (gamma_bar / 2) (Z rho Z - rho)."""
    ham = hamiltonian(params)
    signs = dephasing_signs(params.n_max)
    comm = ham @ rho - rho @ ham
    deph = signs[:, None] * rho * signs[None, :] - rho
    return -1j * comm + 0.5 * params.gamma_bar * deph


def liouvillian(params):
    """The full generator as a matrix on row-major vectorized states: its
    column j dim + k is lindblad_rhs applied to the basis matrix E_jk."""
    dim = space_dim(params.n_max)
    columns = []
    for j in range(dim):
        for k in range(dim):
            basis = np.zeros((dim, dim), dtype=complex)
            basis[j, k] = 1.0
            columns.append(lindblad_rhs(basis, params).ravel())
    return np.array(columns).T


def apply_generator(rho, params):
    """The oracle's generator applied once to a Hermitian rho, fed packed
    as X = Re rho + Im rho, with the result unpacked."""
    apply, _ = _generator(params)
    x = _pack(rho)
    return _unpack(apply(x, 1.0, np.empty_like(x)), 1.0)


def test_basis_layout():
    assert basis_index(0, 1) == 0
    assert basis_index(0, 2) == 1
    assert basis_index(3, 2) == 7
    assert space_dim(5) == 12
    with pytest.raises(ValueError):
        basis_index(-1, 1)
    with pytest.raises(ValueError):
        basis_index(0, 3)


def test_hamiltonian_couples_interaction_pairs_only():
    # Entry for entry against a loop over basis_index.
    for n_max in range(1, 9):
        params = make_params(kappa_bar=0.37, n_max=n_max)
        h = hamiltonian(params)
        np.testing.assert_array_equal(h, h.T)
        expected = np.zeros_like(h)
        for n in range(n_max):
            g = basis_index(n, 1)
            e = basis_index(n + 1, 2)
            expected[g, e] = expected[e, g] = 0.37 * math.sqrt(n + 1.0)
        np.testing.assert_array_equal(h, expected)


@pytest.mark.parametrize("kappa_bar", [math.inf, -math.inf, math.nan])
def test_a_non_finite_coupling_is_refused(kappa_bar):
    """kappa_bar times a zero of a s+ would be nan, so the Hamiltonian, and
    the oracle at its first ``next``, refuse a non-finite coupling by
    name."""
    params = make_params(kappa_bar=kappa_bar, n_max=3)
    with pytest.raises(ValueError, match="kappa_bar must be finite"):
        hamiltonian(params)
    path = integrate_path(np.eye(space_dim(3)) / space_dim(3), params, [1.0])
    with pytest.raises(ValueError, match="kappa_bar must be finite"):
        next(path)


def test_dephasing_signs_alternate():
    signs = dephasing_signs(3)
    np.testing.assert_array_equal(signs, [-1, 1, -1, 1, -1, 1, -1, 1])


def test_oracle_dynamics_name_no_block_layout():
    """The oracle builds and applies its generator without the block
    layout: the functions on that path name no ``_block_entries``, which
    only places a block state in the dense basis.  ``_generator`` then
    reads the coupling partners off an independently built ``H``."""
    path = Path(lindblad.__file__)
    functions = {node.name: node
                 for node in ast.parse(path.read_text(), str(path)).body
                 if isinstance(node, ast.FunctionDef)}
    for name in ("hamiltonian", "dephasing_signs", "space_dim", "_generator",
                 "integrate_path", "_taylor", "_pack", "_unpack"):
        named = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(functions[name])
                 if isinstance(node, (ast.Name, ast.Attribute))}
        assert "_block_entries" not in named, name
    assert "_block_entries" in functions


@pytest.mark.parametrize("n_max", [1, 7, 30])
def test_rhs_is_traceless_and_matches_the_generator(n_max):
    params = make_params(gamma_bar=0.04, n_max=n_max)
    dim = space_dim(n_max)
    rho = random_density(dim, seed=11)
    rhs = lindblad_rhs(rho, params)
    assert abs(np.trace(rhs)) < 1e-13
    assert np.allclose(rhs, rhs.conj().T, atol=1e-13)
    np.testing.assert_allclose(apply_generator(rho, params), rhs, atol=1e-13)


@pytest.mark.parametrize("n_max", [1, 4, 7])
def test_packed_state_round_trips_and_keeps_the_norm(n_max):
    for seed in range(5):
        rho = random_density(space_dim(n_max), seed=100 * n_max + seed)
        rho = 0.5 * (rho + rho.conj().T)
        x = _pack(rho)
        assert x.dtype == float
        assert np.max(np.abs(_unpack(x, 1.0) - rho)) <= 1e-16
        # Re rho and Im rho are orthogonal, so X has rho's Frobenius norm.
        norm = np.linalg.norm(rho)
        assert abs(np.linalg.norm(x) - norm) <= 1e-15 * norm


def test_generator_norm_bound_covers_the_exact_norm():
    # The 1-norm is the largest column sum of |L|.
    params = make_params(gamma_bar=0.3, n_max=3)
    exact = np.abs(liouvillian(params)).sum(axis=0).max()
    _, bound = _generator(params)
    assert exact > 0
    # The two sums add the same magnitudes in different orders.
    assert bound >= exact * (1.0 - 1e-15)


def test_pure_dephasing_without_coupling():
    # kbar=0 removes the Hamiltonian entirely; coherences between opposite
    # atomic levels decay as exp(-gbar tau), everything else freezes
    params = make_params(kappa_bar=0.0, gamma_bar=0.3, n_max=5)
    dim = space_dim(5)
    signs = dephasing_signs(5)
    rho0 = random_density(dim, seed=3)
    tau = 1.7
    (rho1,) = integrate_path(rho0, params, [tau])
    decay = math.exp(-0.3 * tau)
    for j in range(dim):
        for k in range(dim):
            want = rho0[j, k] * (decay if signs[j] != signs[k] else 1.0)
            assert rho1[j, k] == pytest.approx(want, abs=1e-13)


def test_single_pair_rabi_oscillation():
    # |2,1> exchanges with |3,2> at angular frequency 2 kbar sqrt(3)
    params = make_params(lam=0.0, n_max=6)
    dim = space_dim(6)
    rho0 = np.zeros((dim, dim), dtype=complex)
    g = basis_index(2, 1)
    rho0[g, g] = 1.0
    for tau in (0.4, 1.1, 2.3):
        (rho1,) = integrate_path(rho0, params, [tau])
        want = 0.5 * (1.0 + math.cos(2.0 * math.sqrt(3.0) * tau))
        assert rho1[g, g].real == pytest.approx(want, abs=1e-13)


def test_integrate_path_zero_time_and_input_guards():
    params = make_params(gamma_bar=0.02, n_max=8)
    rho0 = random_density(space_dim(8), seed=5)
    (rho,) = integrate_path(rho0, params, [0.0])
    np.testing.assert_allclose(rho, rho0, atol=1e-15)
    # Both are rejected before any work: the over-budget path would need
    # about 1e8 substeps.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="substeps"):
        next(integrate_path(rho0, make_params(kappa_bar=1e6, n_max=8),
                            [5.0]))
    bad = rho0.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        next(integrate_path(bad, params, [1.0]))
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("taus", [[math.nan, 1.0], [0.5, math.nan],
                                  [math.inf]])
def test_integrate_path_refuses_non_finite_times(taus):
    params = make_params(gamma_bar=0.02, n_max=4)
    rho0 = random_density(space_dim(4), seed=6)
    with pytest.raises(ValueError, match="taus must be finite"):
        next(integrate_path(rho0, params, taus))


def invariant_subspaces(liou):
    """Index sets of the coordinate subspaces that ``liou`` maps into
    themselves and that no smaller such set splits: the connected
    components of its sparsity pattern."""
    linked = (liou != 0) | (liou.T != 0) | np.eye(len(liou), dtype=bool)
    while True:
        wider = linked.astype(int) @ linked.astype(int) > 0
        if np.array_equal(wider, linked):
            return {tuple(np.flatnonzero(row)) for row in linked}
        linked = wider


def exact_evolution(rho0, params, tau):
    """exp(tau L) rho0 with mpmath.expm at 30 digits.  L is built from
    lindblad_rhs alone; exponentiating it one invariant subspace at a time
    gives the same matrix as the whole (it is block diagonal up to a
    permutation) in a fraction of the time."""
    liou = liouvillian(params)
    vec = rho0.ravel()
    out = np.zeros_like(vec)
    with mpmath.workdps(30):
        for idx in map(list, invariant_subspaces(liou)):
            block = mpmath.matrix(liou[np.ix_(idx, idx)].tolist())
            prop = mpmath.expm(block * mpmath.mpf(tau))
            part = prop * mpmath.matrix(vec[idx].tolist())
            out[idx] = [complex(part[i]) for i in range(len(idx))]
    return out.reshape(rho0.shape)


@pytest.mark.parametrize("gamma_bar", [0.0, 0.3])
@pytest.mark.parametrize("n_max", [2, 3])
def test_integrate_path_matches_a_30_digit_exponential(n_max, gamma_bar):
    params = make_params(gamma_bar=gamma_bar, n_max=n_max)
    rho0 = random_density(space_dim(n_max), seed=40 + n_max)
    taus = [0.7, 3.0]
    for tau, rho in zip(taus, integrate_path(rho0, params, taus),
                        strict=True):
        want = exact_evolution(rho0, params, tau)
        np.testing.assert_allclose(rho, want, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("factor", [1e-170, 1e300])
def test_integrate_path_is_linear_at_extreme_scales(factor):
    # The stopping test squares entries, which under- or overflow at these
    # scales unless the state is carried rescaled.
    params = make_params(gamma_bar=0.05, n_max=6)
    rho0 = random_density(space_dim(6), seed=13)
    (want,) = integrate_path(rho0, params, [2.0])
    (got,) = integrate_path(rho0 * factor, params, [2.0])
    got = got / factor
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


def taylor_with_a_norm_per_term(apply, x, h, degree, total, terms):
    """``_taylor``'s series with ||total|| taken after every term; returns
    the number of generator applications."""
    np.copyto(total, x)
    term = x
    last = math.sqrt(np.vdot(x, x))
    for k in range(1, degree + 1):
        term = apply(term, h / k, terms[k % 2])
        total += term
        size = math.sqrt(np.vdot(term, term))
        if (last + size) * 2.0 ** 53 <= math.sqrt(np.vdot(total, total)):
            return k
        last = size
    return degree


def assert_same_series(apply, x, h, degree):
    """``_taylor`` gives the reference's sum, bit for bit, after as many
    generator applications."""
    want, *terms = (np.empty_like(x) for _ in range(3))
    applied = taylor_with_a_norm_per_term(apply, x, h, degree, want, terms)
    calls = []

    def counted(*args):
        calls.append(None)
        return apply(*args)

    got, *terms = (np.empty_like(x) for _ in range(3))
    _taylor(counted, x, h, degree, got, terms)
    np.testing.assert_array_equal(got, want)
    assert len(calls) == applied


def test_taylor_stops_where_a_norm_per_term_stops():
    rng = np.random.default_rng(19)
    for seed in range(4):
        for degree, theta in zip(lindblad._DEGREES, lindblad._THETAS):
            n_max = int(rng.integers(1, 11))
            params = make_params(kappa_bar=float(rng.uniform(0.2, 2.0)),
                                 gamma_bar=float(rng.uniform(0.0, 0.3)),
                                 n_max=n_max)
            apply, norm = _generator(params)
            rho = random_density(space_dim(n_max), seed=1000 * seed + degree)
            x = _pack(0.5 * (rho + rho.conj().T))
            # h ||L||_1 anywhere up to theta_m, the end itself included.
            for reach in (float(rng.uniform(0.0, 1.0)), 1.0):
                h = reach * theta / norm
                assert_same_series(apply, x, h, int(degree))
                assert_same_series(apply, np.zeros_like(x), h, int(degree))
                for factor in (1e-170, 1e300):
                    assert_same_series(apply, x * factor, h, int(degree))
    # L = c I: every term is parallel to x, so for c > 0 the bound is
    # ||total|| up to round-off, and ||total|| outgrows ||x||.
    for c in (3.0, 0.5, -0.5, -3.0):
        def scalar(x, scale, out, c=c):
            return np.multiply(x, c * scale, out=out)
        for degree, theta in zip(lindblad._DEGREES, lindblad._THETAS):
            for reach in (0.3, 1.0):
                assert_same_series(scalar, x, reach * theta / abs(c),
                                   int(degree))


@pytest.mark.parametrize("factor", [1e-170, 1.0, 1e300])
def test_taylor_keeps_every_series_of_a_path(monkeypatch, factor):
    # The paths of test_integrate_path_is_linear_at_extreme_scales, with
    # every series checked against the reference as the path runs.
    series = []

    def checked(apply, x, h, degree, total, terms):
        assert_same_series(apply, x, h, degree)
        series.append(degree)
        return _taylor(apply, x, h, degree, total, terms)

    monkeypatch.setattr(lindblad, "_taylor", checked)
    params = make_params(gamma_bar=0.05, n_max=6)
    rho0 = random_density(space_dim(6), seed=13)
    assert len(list(integrate_path(rho0 * factor, params, [0.5, 2.0]))) == 2
    assert series


def test_zero_span_and_zero_state_return_at_once(monkeypatch):
    counts = {"series": 0, "applications": 0}
    generator, taylor = lindblad._generator, lindblad._taylor

    def counting_generator(params):
        apply, norm = generator(params)

        def counted(*args):
            counts["applications"] += 1
            return apply(*args)
        return counted, norm

    def counting_taylor(*args):
        counts["series"] += 1
        return taylor(*args)

    monkeypatch.setattr(lindblad, "_generator", counting_generator)
    monkeypatch.setattr(lindblad, "_taylor", counting_taylor)
    params = make_params(gamma_bar=0.2, n_max=6)
    rho0 = random_density(space_dim(6), seed=9)
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    # A zero span takes no substep, so the state comes back exactly.
    (rho,) = integrate_path(rho0, params, [0.0])
    np.testing.assert_array_equal(rho, rho0)
    assert counts == {"series": 0, "applications": 0}
    # With ||F|| = 0 every series stops after its first term.
    zero = np.zeros_like(rho0)
    path = list(integrate_path(zero, params, [0.0, 0.7, 3.0]))
    assert len(path) == 3
    for rho in path:
        np.testing.assert_array_equal(rho, zero)
    assert counts["series"] > 0
    assert counts["applications"] == counts["series"]


def test_integrate_path_requires_a_hermitian_state():
    params = make_params(gamma_bar=0.02, n_max=4)
    rho0 = random_density(space_dim(4), seed=21)
    # random_density is Hermitian only to round-off; it is symmetrized.
    assert not np.array_equal(rho0, rho0.conj().T)
    (rho,) = integrate_path(rho0, params, [0.5])
    np.testing.assert_array_equal(rho, rho.conj().T)
    bad = rho0.copy()
    bad[1, 4] += 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        next(integrate_path(bad, params, [0.5]))


def von_neumann(rho):
    weights = np.linalg.eigvalsh(rho)
    weights = weights[weights > 1e-300]
    return float(-np.sum(weights * np.log(weights)))


def test_pure_level_start_keeps_atom_and_field_entropies_equal():
    # From the pure level |k, 1> without damping the joint state stays
    # pure, so the atomic and radiation entropies are necessarily the same.
    n_max, k = 8, 3
    params = make_params(gamma_bar=0.0, n_max=n_max)
    a = np.zeros(n_max + 1)
    a[k] = 1.0
    state = BlockState(a, np.zeros(n_max + 1), np.zeros(n_max))
    report = entropy_report(propagate(state, params,
                                      np.linspace(0.0, 30.0, 601)))
    assert np.max(np.abs(report.s_atom - report.s_rad)) < 1e-12
    assert np.max(np.abs(report.s_joint)) < 1e-12
    # The pair {|3,1>, |4,2>} swaps fully, so the entropies reach ln 2.
    assert report.s_atom.max() > 0.69

    # The oracle's dense state agrees, through its partial traces.
    taus = [0.4, 1.3, 7.0]
    for tau, rho in zip(taus, integrate_path(dense_from_block(state), params,
                                             taus), strict=True):
        split = rho.reshape(n_max + 1, 2, n_max + 1, 2)
        s_atom = von_neumann(np.einsum("ninj->ij", split))
        s_rad = von_neumann(np.einsum("nimi->nm", split))
        assert abs(s_atom - s_rad) < 1e-12
        assert abs(von_neumann(rho)) < 1e-12
        closed = entropy_report(propagate(state, params, tau))
        assert s_atom == pytest.approx(closed.s_atom, abs=1e-12)


def test_trace_preserved_over_long_run():
    params = make_params(gamma_bar=0.05)
    state = build_initial_state(params)
    rho0 = dense_from_block(state)
    (rho1,) = integrate_path(rho0, params, [30.0])
    assert abs(np.trace(rho1).real - 1.0) < 1e-10
    assert abs(np.trace(rho1).imag) < 1e-12


def test_integrate_path_checkpoints_match_single_runs():
    params = make_params(gamma_bar=0.02)
    rho0 = dense_from_block(build_initial_state(params))
    taus = [0.5, 1.25, 2.0]
    path = list(integrate_path(rho0, params, taus))
    assert len(path) == 3
    for tau, rho in zip(taus, path, strict=True):
        (single,) = integrate_path(rho0, params, [tau])
        np.testing.assert_allclose(rho, single, atol=1e-12)
    with pytest.raises(ValueError):
        next(integrate_path(rho0, params, [1.0, 0.5]))
    with pytest.raises(ValueError):
        next(integrate_path(rho0, params, [-1.0]))


def test_compare_states_classifies_deviations():
    params = make_params(gamma_bar=0.01, lam=0.9)
    state = build_initial_state(params)
    rho0 = dense_from_block(state)
    report = compare_states(rho0, state)
    assert report.max_abs == 0.0

    (evolved,) = integrate_path(rho0, params, [3.0])
    report = compare_states(evolved, propagate(state, params, 3.0))
    assert report.max_abs < 1e-8
    assert set(report.by_class) == {"a", "b", "c", "off_block"}
    # the dynamics never populates matrix elements outside the pair blocks
    assert report.by_class["off_block"] < 1e-12
    assert "max |diff|" in str(report)

    with pytest.raises(ValueError):
        compare_states(random_density(4, seed=1), state)


def test_dense_embedding_round_trip():
    params = make_params(lam=1.0)
    state = build_initial_state(params)
    rho = dense_from_block(state)
    assert np.allclose(rho, rho.conj().T)
    # the embedding preserves the block trace (1 minus the truncated tail)
    assert np.trace(rho).real == pytest.approx(state.trace(), abs=1e-14)
    n_max = state.n_max
    for n in range(n_max + 1):
        assert rho[basis_index(n, 1), basis_index(n, 1)] == pytest.approx(
            state.a[n])
        assert rho[basis_index(n, 2), basis_index(n, 2)] == pytest.approx(
            state.b[n])
    for n in range(n_max):
        g, e = basis_index(n, 1), basis_index(n + 1, 2)
        assert rho[g, e] == pytest.approx(state.c[n])
        assert rho[e, g] == pytest.approx(np.conj(state.c[n]))


@pytest.mark.parametrize("n_max", [1, 2, 7, 30])
def test_dense_from_block_matches_an_entrywise_reference(n_max):
    rng = np.random.default_rng(n_max)
    state = BlockState(rng.random(n_max + 1), rng.random(n_max + 1),
                       rng.normal(size=n_max) + 1j * rng.normal(size=n_max))
    dim = space_dim(n_max)
    want = np.zeros((dim, dim), dtype=complex)
    for n in range(n_max + 1):
        want[basis_index(n, 1), basis_index(n, 1)] = state.a[n]
        want[basis_index(n, 2), basis_index(n, 2)] = state.b[n]
    for n in range(n_max):
        g, e = basis_index(n, 1), basis_index(n + 1, 2)
        want[g, e] = state.c[n]
        want[e, g] = np.conj(state.c[n])
    np.testing.assert_array_equal(dense_from_block(state), want)


def test_a_batched_state_has_no_dense_form():
    params = make_params(lam=0.6)
    batch = build_initial_state(params, [0.2, 0.9])
    rho = dense_from_block(build_initial_state(params))
    for call in (lambda: dense_from_block(batch),
                 lambda: compare_states(rho, batch)):
        with pytest.raises(ValueError,
                           match="a batched state has no single dense form"):
            call()


@pytest.mark.parametrize("n_max", range(1, 9))
def test_compare_states_matches_an_entrywise_reference(n_max):
    """Every class maximum, and the overall one, equals bit for bit the
    maximum of |dense - want| over the entries a basis_index loop assigns
    to that class, for non-Hermitian dense matrices too."""
    rng = np.random.default_rng(100 + n_max)
    dim = space_dim(n_max)
    for _ in range(5):
        state = BlockState(rng.random(n_max + 1), rng.random(n_max + 1),
                           rng.normal(size=n_max)
                           + 1j * rng.normal(size=n_max))
        dense = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        want = np.zeros((dim, dim), dtype=complex)
        entries = {"a": [], "b": [], "c": []}
        for n in range(n_max + 1):
            for name, i, value in (("a", 1, state.a[n]), ("b", 2, state.b[n])):
                k = basis_index(n, i)
                want[k, k] = value
                entries[name].append((k, k))
        for n in range(n_max):
            g, e = basis_index(n, 1), basis_index(n + 1, 2)
            want[g, e], want[e, g] = state.c[n], np.conj(state.c[n])
            entries["c"] += [(g, e), (e, g)]
        gap = np.abs(dense - want)
        on_block = set().union(*entries.values())
        entries["off_block"] = [(j, k) for j in range(dim)
                                for k in range(dim) if (j, k) not in on_block]
        report = compare_states(dense, state)
        assert report.max_abs == gap.max()
        assert report.by_class == {
            name: max(gap[j, k] for j, k in index)
            for name, index in entries.items()}


def test_closed_form_matches_integrator():
    params = make_params(gamma_bar=0.01, lam=0.9, n_max=24)
    state = build_initial_state(params)
    rho0 = dense_from_block(state)
    for tau in (0.7, 3.0):
        (rho1,) = integrate_path(rho0, params, [tau])
        report = compare_states(rho1, propagate(state, params, tau))
        assert report.max_abs < 1e-12


CATALOG_ROWS = (Path(__file__).resolve().parent.parent
                / "perfbench" / "reference" / "catalog.json")


def dense_columns(rho, n_max):
    """The runner's entropy columns and inversion of a dense state, read
    without the blocks: eigvalsh of the state and of its partial traces
    (taken by reshaping), and its diagonal for the decohered entropy and
    the inversion."""
    split = rho.reshape(n_max + 1, 2, n_max + 1, 2)
    diag = np.diag(rho).real
    s_joint = von_neumann(rho)
    s_atom = von_neumann(np.einsum("ninj->ij", split))
    s_rad = von_neumann(np.einsum("nimi->nm", split))
    s_decohered = von_neumann(np.diag(diag))
    return {
        "s_joint": s_joint,
        "s_atom": s_atom,
        "s_rad": s_rad,
        "deficit": s_decohered - s_joint,
        "rel_atom": s_joint - s_atom,
        "rel_rad": s_joint - s_rad,
        "mutual": s_atom + s_rad - s_joint,
        "inversion": float(diag[0::2].sum() - diag[1::2].sum()),
    }


SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def wootters_clb(rho, n_max):
    """The concurrence lower bound of a dense state from Wootters' formula,
    which assumes nothing of the blocks' shape: each projection onto
    |n,1>, |n,2>, |n+1,1>, |n+1,2> with trace t >= 1e-14 adds t times the
    concurrence max(0, l1 - l2 - l3 - l4) of its normalized 4x4 matrix,
    where the l's are the singular values of sqrt(r) (sy x sy) conj(sqrt(r))
    in decreasing order."""
    blocks = np.array([rho[2 * n:2 * n + 4, 2 * n:2 * n + 4]
                       for n in range(n_max)])
    t = np.einsum("kii->k", blocks).real
    keep = t >= 1e-14
    w, v = np.linalg.eigh(blocks[keep] / t[keep, None, None])
    root = (v * np.sqrt(np.maximum(w, 0.0))[:, None, :]) @ \
        v.conj().transpose(0, 2, 1)
    l = np.linalg.svd(root @ SIGMA_YY @ root.conj(), compute_uv=False)
    conc = np.maximum(0.0, l[:, 0] - l[:, 1:].sum(axis=1))
    total = t[keep].sum()
    return float((t[keep] * conc).sum() / total) if total > 0.0 else 0.0


def test_clb_matches_wootters_formula_on_closed_form_states():
    # The bound's X-shape formula against the generic two-qubit
    # concurrence.  Closed-form states keep the entries outside the X shape
    # at exactly 0; on oracle states their round-off would be square-rooted.
    rng = np.random.default_rng(18)
    worst, compared = 0.0, 0
    for _ in range(60):
        params = ModelParams(
            kappa_bar=rng.uniform(0.2, 3.0),
            gamma_bar=float(rng.choice([0.0, 0.01, 0.05])),
            mean_photons=rng.uniform(0.5, 20.0), lam=rng.uniform(),
            p11=rng.uniform(), q11=rng.uniform(0.01, 0.99),
            bell_phase=rng.uniform(0.0, 2.0 * math.pi))
        initial = build_initial_state(params)
        for tau in (0.0, rng.uniform(0.0, 70.0)):
            state = propagate(initial, params, tau)
            want = wootters_clb(dense_from_block(state), state.n_max)
            worst = max(worst, abs(entropy_report(state).clb - want))
            compared += 1
    assert compared == 120
    assert worst < 1e-14


@pytest.mark.parametrize("name", ["fig2a", "fig5b"])
def test_runner_columns_match_the_oracle_at_catalog_rows(name):
    # The N = 5 scenarios at the rows the benchmark references sample: the
    # runner's two-step blocks against the dense oracle state, column by
    # column.
    with open(CATALOG_ROWS, encoding="ascii") as fh:
        reference = json.load(fh)["files"]
    scenario = CATALOG[name]
    grid = scenario.grid()
    worst, compared = 0.0, 0
    for curve, series in zip(scenario.curves, run_scenario(scenario),
                             strict=True):
        rows = sorted(map(int, reference[f"{name}__{series.label}.csv"]
                          ["rows"]))
        params = curve.params
        path = integrate_path(dense_from_block(build_initial_state(params)),
                              params, grid[rows])
        for i, rho in zip(rows, path, strict=True):
            for column, want in dense_columns(rho, params.n_max).items():
                worst = max(worst, abs(series.columns[column][i] - want))
                compared += 1
    assert compared == 6 * 8 * 8
    assert worst < 1e-12
