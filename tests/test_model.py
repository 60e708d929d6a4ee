"""Parameter validation and the Bell-mixture initial state."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from phasedjcm import (
    TAIL_TOL,
    BlockState,
    ModelParams,
    ParameterError,
    build_initial_state,
    default_n_max,
    params_from_mapping,
    poisson_pmf,
    poisson_tail,
    read_config,
    validate_params,
)


def make_params(**overrides):
    base = dict(kappa_bar=1.0, gamma_bar=0.0, mean_photons=5.0, lam=0.5,
                p11=0.8, q11=0.5, bell_phase=math.pi / 6.0, n_max=None)
    base.update(overrides)
    return ModelParams(**base)


def test_poisson_pmf_vacuum():
    assert poisson_pmf(5.0, 0) == pytest.approx(math.exp(-5.0), rel=1e-14)


def test_poisson_pmf_log_space_matches_exact_rational():
    # independent evaluation: N^n / n! by exact rational arithmetic, then
    # one float multiply by e^-N
    for n in (1, 3, 5, 12):
        exact = float(Fraction(5**n, math.factorial(n))) * math.exp(-5.0)
        assert poisson_pmf(5.0, n) == pytest.approx(exact, rel=1e-12)


def test_poisson_pmf_far_tail_is_finite_and_tiny():
    val = poisson_pmf(5.0, 300)
    assert 0.0 < val < 1e-300 or val == 0.0 or val < 1e-200


def test_poisson_pmf_normalization():
    n_max = default_n_max(5.0)
    total = float(np.sum(poisson_pmf(5.0, np.arange(n_max + 1))))
    tail = poisson_tail(5.0, n_max)
    assert tail < TAIL_TOL
    assert total == pytest.approx(1.0 - tail, abs=1e-13)


def test_poisson_pmf_domain_errors():
    with pytest.raises(ValueError):
        poisson_pmf(0.0, 1)
    with pytest.raises(ValueError):
        poisson_pmf(5.0, -1)
    with pytest.raises(ValueError):
        poisson_pmf(5.0, 1.5)
    with pytest.raises(ValueError):
        poisson_tail(0.0, 3)


def _mp_pmf(mean, n):
    with mpmath.workdps(40):
        return mpmath.exp(n * mpmath.log(mean) - mean
                          - mpmath.loggamma(n + 1))


@pytest.mark.parametrize("mean, rel", [
    (0.3, 1e-13), (2.0, 1e-13), (5.0, 1e-13), (20.0, 1e-13), (37.7, 1e-13),
    (100.0, 1e-13), (1e3, 5e-12), (1e4, 5e-12), (1e5, 5e-12),
])
def test_poisson_pmf_matches_mpmath(mean, rel):
    # Every n from 0 to 16 (the small-n table and its edge), the mean, and
    # 61 points spread up to the default cutoff; weights that underflow
    # below 1e-300 lose their relative precision in any float form.
    n_max = default_n_max(mean)
    ns = np.unique(np.concatenate([
        np.arange(17), [math.floor(mean), math.ceil(mean)],
        np.linspace(0, n_max, 61).round()]).astype(int))
    for n, got in zip(ns, poisson_pmf(mean, ns)):
        want = _mp_pmf(mean, int(n))
        if want >= 1e-300:
            assert abs(got - want) <= rel * want, (n, got, want)


@pytest.mark.parametrize("mean", [1e3, 1e4, 1e5])
def test_poisson_weights_and_tail_sum_to_one(mean):
    n_max = default_n_max(mean)
    total = float(np.sum(poisson_pmf(mean, np.arange(n_max + 1))))
    assert abs(total + poisson_tail(mean, n_max) - 1.0) <= 1e-15


@pytest.mark.parametrize("mean, n_max", [
    (0.3, 0), (2.0, 0), (2.0, 1), (5.0, 2), (5.0, 5), (5.0, 52), (20.0, 10),
    (20.0, 19), (20.0, 20), (20.0, 40), (20.0, 94), (100.0, 80),
    (100.0, 99), (100.0, 130), (1e3, 950), (1e3, 1000), (1e3, 1400),
    (1e4, 9900), (1e4, 10100), (1e4, 11220),
])
def test_poisson_tail_matches_mpmath(mean, n_max):
    # The regularized lower incomplete gamma P(n_max + 1, N) is the weight
    # above n_max; n_max < N takes the complement branch.
    with mpmath.workdps(40):
        want = mpmath.gammainc(n_max + 1, 0, mean, regularized=True)
    got = poisson_tail(mean, n_max)
    assert abs(got - want) <= 1e-12 * want


def test_default_n_max_keeps_tail_small():
    for mean in (0.5, 2.0, 5.0, 20.0, 1e3, 1e4, 1e5):
        assert poisson_tail(mean, default_n_max(mean)) < TAIL_TOL


def test_factored_state_has_no_coherence():
    state = build_initial_state(make_params(lam=0.0))
    assert np.all(state.c == 0)


def test_bell_state_weights():
    # lam=1, q11=0.5: a[n] = p(n)/2, c[n] = p(n) e^{-i phi}/2, b[0] = 0
    phi = math.pi / 6.0
    params = make_params(lam=1.0, q11=0.5, bell_phase=phi)
    state = build_initial_state(params)
    pn = poisson_pmf(5.0, np.arange(params.n_max + 1))
    np.testing.assert_allclose(state.a, pn / 2.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(state.c, pn[:-1] * np.exp(-1j * phi) / 2.0,
                               rtol=0, atol=1e-15)
    assert state.b[0] == 0.0
    np.testing.assert_allclose(state.b[1:], pn[:-1] / 2.0, rtol=0, atol=1e-15)


def test_initial_trace_normalized():
    for lam in (0.0, 0.3, 1.0):
        state = build_initial_state(make_params(lam=lam))
        assert abs(state.trace() - 1.0) < TAIL_TOL


def test_initial_marginals_match_closed_form():
    # P(n;0) = p(n)[(1-lam) + lam q11] + p(n-1) lam q22, w1 = (1-lam)p11 + lam q11
    params = make_params(lam=0.4, p11=0.7, q11=0.3)
    state = build_initial_state(params)
    pn = poisson_pmf(5.0, np.arange(params.n_max + 1))
    pn_prev = np.concatenate([[0.0], pn[:-1]])   # p(-1) := 0
    expected = pn * ((1 - 0.4) + 0.4 * 0.3) + pn_prev * 0.4 * 0.7
    np.testing.assert_allclose(state.a + state.b, expected, rtol=0, atol=1e-14)
    w1 = float(np.sum(state.a))
    assert w1 == pytest.approx((1 - 0.4) * 0.7 + 0.4 * 0.3, abs=1e-14)


def test_validate_accepts_factored_and_bell_ends():
    assert validate_params(make_params(lam=0.0)).ok
    for q11 in (0.1, 0.5, 0.9):
        assert validate_params(make_params(lam=1.0, q11=q11)).ok


def test_validate_rejects_overdamped():
    report = validate_params(make_params(kappa_bar=1.0, gamma_bar=5.0))
    assert not report.ok
    assert any("overdamped" in e for e in report.errors)


def test_validate_rejects_bad_ranges():
    assert not validate_params(make_params(lam=1.5)).ok
    assert not validate_params(make_params(p11=-0.2)).ok
    assert not validate_params(make_params(q11=1.0)).ok
    assert not validate_params(make_params(bell_phase=7.0)).ok
    assert not validate_params(make_params(mean_photons=-1.0)).ok


def test_validate_rejects_thin_truncation():
    report = validate_params(make_params(n_max=5))
    assert not report.ok
    assert any("tail" in e for e in report.errors)


def test_build_initial_state_propagates_validation():
    with pytest.raises(ParameterError):
        build_initial_state(make_params(gamma_bar=5.0))


def test_batched_initial_state_equals_one_build_per_weight():
    params = make_params(p11=0.3, q11=0.7)
    lams = np.linspace(0.0, 1.0, 7)
    batch = build_initial_state(params, lams)
    assert batch.a.shape == (lams.size, params.n_max + 1)
    for i, lam in enumerate(lams):
        one = build_initial_state(make_params(p11=0.3, q11=0.7, lam=lam))
        for got, want in zip((batch.a[i], batch.b[i], batch.c[i]),
                             (one.a, one.b, one.c)):
            np.testing.assert_array_equal(got, want)
    # the weights replace params.lam, whatever it holds
    nan_lam = make_params(p11=0.3, q11=0.7, lam=math.nan)
    np.testing.assert_array_equal(build_initial_state(nan_lam, lams).a,
                                  batch.a)


@pytest.mark.parametrize("lams, message", [
    ([0.0, 0.5, 1.5], "lambda must lie in"),
    ([-0.25, 0.5, 1.0], "lambda must lie in"),
    ([0.0, math.nan, 1.0], "lambda must be finite"),
    ([0.0, 0.5, math.inf], "lambda must be finite"),
])
def test_batched_initial_state_validates_every_weight(lams, message):
    with pytest.raises(ParameterError, match=message):
        build_initial_state(make_params(), np.array(lams))


def test_valid_params_give_positive_blocks():
    rng = np.random.default_rng(7)
    for _ in range(50):
        params = make_params(
            lam=float(rng.uniform(0, 1)),
            p11=float(rng.uniform(0, 1)),
            q11=float(rng.uniform(0.05, 0.95)),
            bell_phase=float(rng.uniform(0, 2 * math.pi)),
            mean_photons=float(rng.uniform(0.5, 20.0)),
        )
        report = validate_params(params)
        if report.ok:
            state = build_initial_state(params)
            assert state.min_eigenvalue() >= -1e-12
            assert abs(state.trace() - 1.0) < TAIL_TOL


def test_blockstate_shape_checks():
    with pytest.raises(ValueError):
        BlockState(a=np.zeros(4), b=np.zeros(4), c=np.zeros(4, complex))
    with pytest.raises(ValueError):
        BlockState(a=np.zeros(4), b=np.zeros(3), c=np.zeros(3, complex))


def test_blockstate_arrays_frozen():
    state = build_initial_state(make_params())
    with pytest.raises(ValueError):
        state.a[0] = 99.0


def test_config_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "kappa_bar = 1.0\n"
        "gamma_bar = 0.01\n"
        "mean_photons = 5\n"
        "lambda = 0.9   # inline comment\n"
        "p11 = 0.8\n"
        "q11 = 0.5\n"
        "bell_phase = 0.5235987755982988\n"
        "n_max = 60\n"
    )
    params = params_from_mapping(read_config(cfg))
    assert params.lam == 0.9
    assert params.n_max == 60
    assert params.gamma_bar == 0.01


def test_config_defaults_and_unknown_keys(tmp_path):
    params = params_from_mapping({"mean_photons": "20"})
    assert params.mean_photons == 20.0
    assert params.n_max == default_n_max(20.0)
    with pytest.raises(ParameterError):
        params_from_mapping({"mean_photon": "20"})
    bad = tmp_path / "bad.cfg"
    bad.write_text("just some words\n")
    with pytest.raises(ParameterError):
        params_from_mapping(read_config(bad))
