"""Exact master-equation oracle used to certify the closed form."""

import math
import time

import numpy as np
import pytest

from phasedjcm import (
    BlockState,
    ModelParams,
    build_initial_state,
    compare_states,
    dense_from_block,
    integrate_path,
    propagate,
)
from phasedjcm.lindblad import (
    _generator,
    basis_index,
    dephasing_signs,
    hamiltonian,
    lindblad_rhs,
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
    params = make_params(n_max=6)
    h = hamiltonian(params)
    assert np.allclose(h, h.conj().T)
    expected = np.zeros_like(h)
    for n in range(6):
        g = basis_index(n, 1)
        e = basis_index(n + 1, 2)
        expected[g, e] = expected[e, g] = math.sqrt(n + 1.0)
    np.testing.assert_allclose(h, expected, atol=0.0)


def test_dephasing_signs_alternate():
    signs = dephasing_signs(3)
    np.testing.assert_array_equal(signs, [-1, 1, -1, 1, -1, 1, -1, 1])


def test_rhs_is_traceless_and_matches_the_generator():
    params = make_params(gamma_bar=0.04, n_max=7)
    dim = space_dim(7)
    rho = random_density(dim, seed=11)
    rhs = lindblad_rhs(rho, params)
    assert abs(np.trace(rhs)) < 1e-13
    assert np.allclose(rhs, rhs.conj().T, atol=1e-13)
    apply, _ = _generator(params)
    np.testing.assert_allclose(apply(rho), rhs, atol=1e-13)


def test_generator_norm_bound_covers_the_exact_norm():
    # Column (j, k) of L is lindblad_rhs applied to the basis matrix E_jk;
    # the 1-norm is the largest column sum of |L|.
    params = make_params(gamma_bar=0.3, n_max=3)
    dim = space_dim(3)
    columns = []
    for j in range(dim):
        for k in range(dim):
            basis = np.zeros((dim, dim), dtype=complex)
            basis[j, k] = 1.0
            columns.append(np.abs(lindblad_rhs(basis, params)).sum())
    exact = max(columns)
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
    rho1 = integrate_path(rho0, params, [tau])[0]
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
        rho1 = integrate_path(rho0, params, [tau])[0]
        want = 0.5 * (1.0 + math.cos(2.0 * math.sqrt(3.0) * tau))
        assert rho1[g, g].real == pytest.approx(want, abs=1e-13)


def test_integrate_path_zero_time_and_input_guards():
    params = make_params(gamma_bar=0.02, n_max=8)
    rho0 = random_density(space_dim(8), seed=5)
    np.testing.assert_allclose(integrate_path(rho0, params, [0.0])[0], rho0,
                               atol=1e-15)
    # Both are rejected before any work: the over-budget path would need
    # about 1e8 substeps.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="substeps"):
        integrate_path(rho0, make_params(kappa_bar=1e6, n_max=8), [5.0])
    bad = rho0.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        integrate_path(bad, params, [1.0])
    assert time.perf_counter() - start < 5.0


def test_trace_preserved_over_long_run():
    params = make_params(gamma_bar=0.05)
    state = build_initial_state(params)
    rho0 = dense_from_block(state)
    rho1 = integrate_path(rho0, params, [30.0])[0]
    assert abs(np.trace(rho1).real - 1.0) < 1e-10
    assert abs(np.trace(rho1).imag) < 1e-12


def test_integrate_path_checkpoints_match_single_runs():
    params = make_params(gamma_bar=0.02)
    rho0 = dense_from_block(build_initial_state(params))
    taus = [0.5, 1.25, 2.0]
    path = integrate_path(rho0, params, taus)
    assert len(path) == 3
    for tau, rho in zip(taus, path):
        np.testing.assert_allclose(rho, integrate_path(rho0, params, [tau])[0],
                                   atol=1e-12)
    with pytest.raises(ValueError):
        integrate_path(rho0, params, [1.0, 0.5])
    with pytest.raises(ValueError):
        integrate_path(rho0, params, [-1.0])


def test_compare_states_classifies_deviations():
    params = make_params(gamma_bar=0.01, lam=0.9)
    state = build_initial_state(params)
    rho0 = dense_from_block(state)
    report = compare_states(rho0, state)
    assert report.max_abs == 0.0

    evolved = integrate_path(rho0, params, [3.0])[0]
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


def test_closed_form_matches_integrator():
    params = make_params(gamma_bar=0.01, lam=0.9, n_max=24)
    state = build_initial_state(params)
    rho0 = dense_from_block(state)
    for tau in (0.7, 3.0):
        rho1 = integrate_path(rho0, params, [tau])[0]
        report = compare_states(rho1, propagate(state, params, tau))
        assert report.max_abs < 1e-12
