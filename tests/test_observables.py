"""Marginals, inversion, and the entropy functionals."""

import math
import warnings

import numpy as np
import pytest

from phasedjcm import (
    ModelParams,
    asymptotic_state,
    build_initial_state,
    entropy_report,
    propagate,
)
from phasedjcm.model import _abs_sq, _levels, poisson_pmf
from phasedjcm.observables import _columns, _entropy, _work_arrays


def make_params(**overrides):
    base = dict(kappa_bar=1.0, gamma_bar=0.0, mean_photons=5.0, lam=0.0,
                p11=0.8, q11=0.5, bell_phase=math.pi / 6.0, n_max=None)
    base.update(overrides)
    return ModelParams(**base)


def test_entropy_conventions():
    pure = _entropy(np.array([1.0, 0.0]))
    assert _entropy(np.array([0.5, 0.5])) == pytest.approx(math.log(2),
                                                           rel=1e-15)
    assert pure == 0.0                                    # 0 ln 0 := 0
    assert math.copysign(1.0, pure) == 1.0                # not -0
    assert _entropy(np.array([1.0, 1e-320])) == 0.0       # below the floor
    assert _entropy(np.array([])) == 0.0


def test_entropy_of_rows_equals_the_masked_reference_bit_for_bit():
    def reference(w):
        keep = w > 1e-300
        terms = np.where(keep, w * np.log(np.where(keep, w, 1.0)), 0.0)
        return 0.0 - np.sum(terms, axis=-1)

    rng = np.random.default_rng(8)
    rows = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.5, 0.5, 0.0, -1e-20],
        [-1e-20, -1e-30, -0.0, -5e-324],
        [0.0, 0.0, -0.0, 0.0],
        [5e-324, 1e-310, 0.3, 0.7],
        [1e-300, 2e-300, 1.0, -1e-301],
        rng.random(4),
        rng.random(4) * 1e-150,
    ])
    got = _entropy(rows)
    want = reference(rows)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    for row, value in zip(rows, want):
        one = _entropy(row)
        assert isinstance(one, float)
        assert one == value and math.copysign(1.0, one) == math.copysign(
            1.0, value)


def masked_entropy(w):
    """The masked reference for _entropy: every entry at or below the
    1e-300 floor reads as a zero term."""
    terms = w.copy()
    np.putmask(terms, w <= 1e-300, 1.0)
    np.log(terms, out=terms)
    terms *= w
    return 0.0 - terms.sum(axis=-1)


ENTROPY_ROWS = {
    # Every entry above the floor, so the mask replaces none.
    "above_floor": (True, np.vstack([
        np.random.default_rng(3).random((3, 5)) + 1e-3,
        [2e-300, 1e-299, 1e-150, 0.5, 1.0],
    ])),
    "zero": (False, np.array([[0.5, 0.5, 0.0, 1e-3, 0.2]])),
    "negative": (False, np.array([[0.5, -1e-18, 0.3, 1e-3, 0.2],
                                  [0.5, 0.25, 0.3, 1e-3, 0.2]])),
    "subnormal": (False, np.array([[5e-324, 1e-310, 0.3, 0.7, 1e-300]])),
    "nan": (False, np.array([[0.5, math.nan, 0.3, 1e-3, 0.2],
                             [0.5, 0.25, 0.3, 1e-3, 0.2]])),
    "empty": (False, np.empty((3, 0))),
}


@pytest.mark.parametrize("case", sorted(ENTROPY_ROWS))
def test_entropy_matches_the_masked_reference(case):
    above_floor, rows = ENTROPY_ROWS[case]
    assert bool(rows.size and rows.min() > 1e-300) == above_floor
    want = masked_entropy(rows)
    for terms in (None, np.empty_like(rows)):
        got = _entropy(rows, terms)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    assert _entropy(np.array([])) == 0.0
    assert isinstance(_entropy(np.array([])), float)


def test_reduced_states_initial_marginals():
    """The photon marginal a + b and the atomic weights w1 = sum a and
    w2 = sum b of a Bell-mixture start, and the inversion w1 - w2."""
    lam, p11, q11 = 0.4, 0.7, 0.3
    params = make_params(lam=lam, p11=p11, q11=q11)
    state = build_initial_state(params)
    photon, w1, w2 = state.a + state.b, state.a.sum(), state.b.sum()
    assert entropy_report(state).inversion == w1 - w2
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


def test_public_functions_read_the_column_kernel_for_any_batch():
    """entropy_report of an unbatched, a batched and an empty state gives a
    float per field, an array per field and arrays of shape (0,), each
    equal bit for bit to the matching rows of the column kernel.  The empty
    states that build_initial_state and propagate give for an empty grid go
    through it without a warning."""
    params = make_params(gamma_bar=0.05, lam=0.6)
    initial = build_initial_state(params)
    cases = (
        (initial, None),
        (propagate(initial, params, np.linspace(0.0, 7.0, 5)), (5,)),
        (build_initial_state(params, []), (0,)),
        (propagate(initial, params, []), (0,)),
    )
    for state, shape in cases:
        levels = np.atleast_2d(_levels(state))
        want = _columns(levels, np.atleast_2d(_abs_sq(state.c)),
                        _work_arrays(levels.shape[0], params.n_max))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = vars(entropy_report(state))
            clb = entropy_report(state).clb
        assert got.keys() == want.keys()
        # The bound of the report's dict and of its attribute are both read.
        for name, value in [*got.items(), ("clb", clb)]:
            if shape is None:
                assert type(value) is float, name
            else:
                assert value.shape == shape, name
            assert np.asarray(value).tobytes() == want[name].tobytes(), name
