"""Parameter validation and the Bell-mixture initial state."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from phasedjcm import (
    BlockState,
    ModelParams,
    ParameterError,
    build_initial_state,
    params_from_mapping,
)
from phasedjcm.model import (
    TAIL_TOL,
    _poisson_weights,
    default_n_max,
    poisson_pmf,
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
    tail = _poisson_weights(5.0, n_max)[1]
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
        _poisson_weights(0.0, 3)[1]


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
    assert abs(total + _poisson_weights(mean, n_max)[1] - 1.0) <= 1e-15


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
    got = _poisson_weights(mean, n_max)[1]
    assert abs(got - want) <= 1e-12 * want


def chunked_tail(mean, n_max):
    """The tail of ``_poisson_weights`` summed from its own ``poisson_pmf``
    call per chunk of at most 2^15 weights."""
    width = math.ceil(12.0 * math.sqrt(mean) + 40.0)
    above = n_max >= mean
    first = n_max + 1 if above else max(0, n_max + 1 - width)
    stop = n_max + 1 + width if above else n_max + 1
    total = 0.0
    for lo in range(first, stop, 2**15):
        chunk = np.arange(lo, min(lo + 2**15, stop))
        total += float(np.sum(poisson_pmf(mean, chunk)))
    return total if above else 1.0 - total


def bell_mixture(params, pn):
    """The initial state's (a, b, c) from the Poisson weights pn."""
    lam, q11, q22 = params.lam, params.q11, params.q22
    a = ((1.0 - lam) * params.p11 + lam * q11) * pn
    b = np.empty_like(a)
    b[0] = (1.0 - lam) * params.p22 * pn[0]
    b[1:] = (1.0 - lam) * params.p22 * pn[1:] + lam * q22 * pn[:-1]
    c = (pn[:-1] * lam * np.sqrt(q11 * q22)
         * np.exp(-1j * params.bell_phase))
    return a, b, c


@pytest.mark.parametrize("mean", [0.5, 5.0, 20.0, 1e3, 1e5])
def test_one_poisson_evaluation_keeps_the_tail_the_state_and_the_cutoff(mean):
    # The smallest n_max whose chunked tail is below TAIL_TOL, by bisection.
    lo, hi = 0, default_n_max(mean)
    assert chunked_tail(mean, lo) >= TAIL_TOL > chunked_tail(mean, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if chunked_tail(mean, mid) < TAIL_TOL else (mid, hi)
    for n_max in sorted({int(mean) // 2, hi // 2, hi - 1, hi, hi + 1}):
        assert _poisson_weights(mean, n_max)[1] == chunked_tail(mean, n_max)
        if n_max < 1:
            continue
        params = make_params(mean_photons=mean, lam=0.3, p11=0.6, q11=0.4,
                             n_max=n_max)
        if n_max < hi:
            with pytest.raises(ParameterError, match="raise n_max"):
                build_initial_state(params)
            continue
        state = build_initial_state(params)
        want = bell_mixture(params, poisson_pmf(mean, np.arange(n_max + 1)))
        for got, expected in zip((state.a, state.b, state.c), want):
            np.testing.assert_array_equal(got, expected)


def test_default_n_max_keeps_tail_small():
    for mean in (0.5, 2.0, 5.0, 20.0, 1e3, 1e4, 1e5):
        assert _poisson_weights(mean, default_n_max(mean))[1] < TAIL_TOL


@pytest.mark.parametrize("mean", [math.inf, math.nan, 0.0, -1.0])
def test_default_n_max_refuses_a_mean_outside_the_positive_reals(mean):
    with pytest.raises(ValueError,
                       match="mean_photons must be positive and finite"):
        default_n_max(mean)


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
    build_initial_state(make_params(lam=0.0))
    for q11 in (0.1, 0.5, 0.9):
        build_initial_state(make_params(lam=1.0, q11=q11))


def test_validate_rejects_overdamped():
    with pytest.raises(ParameterError, match="overdamped"):
        build_initial_state(make_params(kappa_bar=1.0, gamma_bar=5.0))


def test_validate_rejects_bad_ranges():
    for overrides, message in [
        (dict(lam=1.5), "lambda must lie in"),
        (dict(p11=-0.2), "p11 must lie in"),
        (dict(q11=1.0), "q11 must lie strictly inside"),
        (dict(bell_phase=7.0), "bell_phase must lie in"),
        (dict(mean_photons=-1.0), "mean_photons must be positive"),
    ]:
        with pytest.raises(ParameterError, match=message):
            build_initial_state(make_params(**overrides))


def test_validate_rejects_thin_truncation():
    with pytest.raises(ParameterError, match="tail"):
        build_initial_state(make_params(n_max=5))


def test_build_initial_state_propagates_validation():
    # N = 20 leaves a Poisson tail of 1.3e-2 above n_max = 30.
    with pytest.raises(ParameterError, match="raise n_max"):
        build_initial_state(make_params(mean_photons=20.0, n_max=30))


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
        state = build_initial_state(params)
        assert state.min_eigenvalue() >= -1e-12
        assert abs(state.trace() - 1.0) < TAIL_TOL


def test_tiny_weight_pairs_give_no_negative_eigenvalue():
    """At N = 638 the lowest pairs weigh below 1e-154; a lambda scan's
    positive blocks there once read -3.6e-163 from underflowing squares."""
    params = make_params(mean_photons=638.0, p11=0.0, q11=0.345,
                         bell_phase=0.3)
    state = build_initial_state(params, np.linspace(0.23, 0.87, 33))
    assert np.all(state.min_eigenvalue() >= 0.0)
    # A zero-trace pair keeps its eigenvalues 0, without a warning.
    with np.errstate(all="raise"):
        assert BlockState(a=[0.0, 0.5], b=[0.5, 0.0],
                          c=[0.0]).min_eigenvalue() == 0.0


def test_blockstate_shape_checks():
    with pytest.raises(ValueError):
        BlockState(a=np.zeros(4), b=np.zeros(4), c=np.zeros(4, complex))
    with pytest.raises(ValueError):
        BlockState(a=np.zeros(4), b=np.zeros(3), c=np.zeros(3, complex))


def test_blockstate_arrays_frozen():
    state = build_initial_state(make_params())
    with pytest.raises(ValueError):
        state.a[0] = 99.0


def test_config_defaults_and_unknown_keys():
    params = params_from_mapping({"mean_photons": "20"})
    assert params.mean_photons == 20.0
    assert params.n_max == default_n_max(20.0)
    params = params_from_mapping({"gamma_bar": "0.01", "lambda": "0.9",
                                  "n_max": "60"})
    assert params.lam == 0.9
    assert params.n_max == 60 and isinstance(params.n_max, int)
    assert params.gamma_bar == 0.01
    with pytest.raises(ParameterError):
        params_from_mapping({"mean_photon": "20"})
    with pytest.raises(ParameterError):
        params_from_mapping({"p11": "just some words"})
    assert params_from_mapping({"n_max": 60}).n_max == 60
    assert params_from_mapping({"n_max": np.int64(60)}).n_max == 60
    # int() would cut the first to 60 and read the second as 1
    for raw in (60.7, True):
        with pytest.raises(ParameterError,
                           match="parameter 'n_max': not an integer"):
            params_from_mapping({"n_max": raw})
    # float() would read True as 1.0 and False as 0.0
    for key, raw in (("lambda", True), ("p11", False), ("kappa_bar", True),
                     ("gamma_bar", np.bool_(False))):
        with pytest.raises(ParameterError,
                           match=f"parameter '{key}': not a number"):
            params_from_mapping({key: raw})
