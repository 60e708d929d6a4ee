"""Marginals, inversion, and the entropy functionals."""

import math

import numpy as np
import pytest

from phasedjcm import (
    ModelParams,
    asymptotic_state,
    build_initial_state,
    entropy_report,
    poisson_pmf,
    propagate,
    reduced_states,
    shannon_entropy,
)


def make_params(**overrides):
    base = dict(kappa_bar=1.0, gamma_bar=0.0, mean_photons=5.0, lam=0.0,
                p11=0.8, q11=0.5, bell_phase=math.pi / 6.0, n_max=None)
    base.update(overrides)
    return ModelParams(**base)


def test_shannon_entropy_conventions():
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(math.log(2), rel=1e-15)
    assert shannon_entropy([1.0, 0.0]) == 0.0          # 0 ln 0 := 0
    assert shannon_entropy([1.0, 1e-320]) == 0.0       # below the floor
    assert shannon_entropy([]) == 0.0


def test_reduced_states_initial_marginals():
    lam, p11, q11 = 0.4, 0.7, 0.3
    params = make_params(lam=lam, p11=p11, q11=q11)
    photon, w1, w2 = reduced_states(build_initial_state(params))
    assert w1 == pytest.approx((1 - lam) * p11 + lam * q11, abs=1e-14)
    assert w1 + w2 == pytest.approx(1.0, abs=1e-12)
    pn = poisson_pmf(5.0, np.arange(params.n_max + 1))
    pn_prev = np.concatenate([[0.0], pn[:-1]])
    np.testing.assert_allclose(
        photon, pn * ((1 - lam) + lam * q11) + pn_prev * lam * (1 - q11),
        rtol=0, atol=1e-14,
    )
    assert float(np.sum(photon)) == pytest.approx(1.0, abs=1e-12)


def test_atomic_inversion_pure_ground():
    params = make_params(lam=0.0, p11=1.0)
    assert entropy_report(build_initial_state(params)).inversion == \
        pytest.approx(1.0, abs=1e-12)


def test_atomic_inversion_null_by_symmetry():
    # equal-weight real Bell mixture balances every pair at all times
    params = make_params(lam=1.0, q11=0.5, bell_phase=0.0)
    state = build_initial_state(params)
    taus = np.arange(0.0, 12.0, 0.4)
    inversion = entropy_report(propagate(state, params, taus)).inversion
    assert np.all(np.abs(inversion) < 1e-14)


def test_inversion_collapses():
    params = make_params(lam=0.0, p11=0.8, mean_photons=20.0)
    state = build_initial_state(params)
    collapsed = propagate(state, params, 3.0)
    assert abs(entropy_report(collapsed).inversion) < 0.02
    assert abs(entropy_report(state).inversion) == pytest.approx(0.6,
                                                                 abs=1e-12)


def test_entropy_of_factored_state():
    params = make_params(lam=0.0, p11=0.8)
    state = build_initial_state(params)
    rep = entropy_report(state)
    expected_atom = -(0.8 * math.log(0.8) + 0.2 * math.log(0.2))
    assert rep.s_atom == pytest.approx(expected_atom, rel=1e-12)
    # product state with no coherences: no correlations of any kind
    assert abs(rep.mutual) < 1e-12
    assert abs(rep.deficit) < 1e-12


def test_joint_entropy_of_pure_bell_mixture():
    params = make_params(lam=1.0, q11=0.5)
    state = build_initial_state(params)
    rep = entropy_report(state)
    pn = poisson_pmf(5.0, np.arange(params.n_max + 1))
    poisson_shannon = float(-np.sum(pn[pn > 0] * np.log(pn[pn > 0])))
    assert rep.s_joint == pytest.approx(poisson_shannon, abs=1e-10)


def test_entropy_inequalities_along_evolution():
    params = make_params(lam=0.9, gamma_bar=0.01)
    state = build_initial_state(params)
    for tau in np.arange(0.0, 20.0001, 0.5):
        rep = entropy_report(propagate(state, params, float(tau)))
        assert rep.mutual >= -1e-10
        assert rep.deficit >= -1e-10
        assert rep.deficit <= rep.mutual + 1e-10
        assert abs(rep.s_atom - rep.s_rad) <= rep.s_joint + 1e-10
        assert rep.s_joint <= rep.s_atom + rep.s_rad + 1e-10


def test_supercorrelation_appears_for_bell_start():
    params = make_params(lam=1.0, q11=0.5, bell_phase=math.pi / 6.0)
    state = build_initial_state(params)
    rel_rad = []
    rel_atom = []
    for tau in np.arange(0.0, 30.0001, 0.25):
        rep = entropy_report(propagate(state, params, float(tau)))
        rel_rad.append(rep.rel_rad)
        rel_atom.append(rep.rel_atom)
    assert min(rel_rad) < 0.0
    assert min(rel_atom) >= -1e-10


def test_asymptotic_state_has_zero_deficit():
    params = make_params(lam=0.9, gamma_bar=0.05)
    lim = asymptotic_state(build_initial_state(params), params)
    rep = entropy_report(lim)
    assert abs(rep.deficit) < 1e-12
