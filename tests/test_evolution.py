"""Closed-form evolution: frequencies, the real pair map, spectra."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from conftest import max_state_dev, rabi_e

from phasedjcm import (
    BlockState,
    ModelParams,
    asymptotic_state,
    build_initial_state,
    dense_from_block,
    entropy_report,
    propagate,
)
from phasedjcm.evolution import rabi_frequency
from phasedjcm.model import _spectrum, poisson_pmf
from phasedjcm.observables import _entropy


def make_params(**overrides):
    base = dict(kappa_bar=1.0, gamma_bar=0.0, mean_photons=5.0, lam=0.9,
                p11=0.8, q11=0.5, bell_phase=math.pi / 6.0, n_max=None)
    base.update(overrides)
    return ModelParams(**base)


def random_block_state(rng, n_max=12):
    """Random normalized positive block state (not from the Bell family)."""
    a = rng.uniform(0.0, 1.0, n_max + 1)
    b = rng.uniform(0.0, 1.0, n_max + 1)
    # coherence bounded by sqrt(a[n] b[n+1]) keeps every block positive
    mag = np.sqrt(a[:-1] * b[1:]) * rng.uniform(0.0, 1.0, n_max)
    phase = rng.uniform(0.0, 2.0 * math.pi, n_max)
    c = mag * np.exp(1j * phase)
    norm = a.sum() + b.sum()
    return BlockState(a=a / norm, b=b / norm, c=c / norm)


def test_rabi_frequency_values():
    p = make_params(kappa_bar=1.0, gamma_bar=0.0)
    assert rabi_frequency(p, 0) == pytest.approx(2.0, abs=0)
    n = np.arange(10)
    np.testing.assert_allclose(rabi_frequency(p, n), 2.0 * np.sqrt(n + 1.0),
                               rtol=1e-15)
    pd = make_params(kappa_bar=1.0, gamma_bar=0.01)
    assert rabi_frequency(pd, 0) == pytest.approx(math.sqrt(4.0 - 2.5e-5),
                                                  rel=1e-15)


def test_rabi_frequency_domain_error():
    p = make_params(kappa_bar=0.1, gamma_bar=0.5)
    # pair 0 radicand: 4*0.01 - 0.0625 < 0
    with pytest.raises(ValueError):
        rabi_frequency(p, 0)
    with pytest.raises(ValueError):
        rabi_frequency(p, -1)


@pytest.mark.parametrize("kappa_bar, gamma_bar", [
    (1e200, 0.0), (1.7e308, 0.0), (1.0, 1e200), (math.nan, 0.0),
    (1e155, 1e300),
])
def test_rabi_frequency_rejects_a_radicand_that_is_not_finite(kappa_bar,
                                                              gamma_bar):
    # A squared rate that overflows must give the documented ValueError,
    # not an OverflowError or a nan frequency.
    p = make_params(kappa_bar=kappa_bar, gamma_bar=gamma_bar, n_max=30)
    with pytest.raises(ValueError, match="not finite"):
        rabi_frequency(p, 0)


def complex_pair_update(state, params, tau):
    """The pair update in complex arithmetic, as it was before the real map:
    c = h^2 c0 + i (-Im c0 h (h - W-) + root (a0 - b0) h V)."""
    tau = np.asarray(tau, dtype=float)[..., None]
    pairs = np.arange(state.n_max)
    e = rabi_frequency(params, pairs)
    v = np.sin(tau * e) / e
    w_plus = np.cos(tau * e) + 0.5 * params.gamma_bar * v
    w_minus = np.cos(tau * e) - 0.5 * params.gamma_bar * v
    half = np.exp(-0.5 * params.gamma_bar * tau)
    hv = half * v
    a0, b0, c0 = state.a[..., :-1], state.b[..., 1:], state.c
    root = params.kappa_bar * np.sqrt(pairs + 1.0)
    diff = a0 - b0
    msin = -c0.imag
    flow = 0.5 * (1.0 - half * w_plus) * diff - 2.0 * root * msin * hv
    c = half * half * c0 + 1j * (msin * half * (half - w_minus)
                                 + root * diff * hv)
    rows = flow.shape[:-1]
    a = np.concatenate(
        [a0 - flow, np.broadcast_to(state.a[..., -1:], rows + (1,))], axis=-1)
    b = np.concatenate(
        [np.broadcast_to(state.b[..., :1], rows + (1,)), b0 + flow], axis=-1)
    return BlockState(a=a, b=b, c=c)


@pytest.mark.parametrize("mean_photons", [0.5, 5.0, 20.0, 100.0])
def test_real_pair_map_matches_the_complex_update(mean_photons):
    rng = np.random.default_rng(int(mean_photons * 10))
    for _ in range(10):
        p = make_params(
            kappa_bar=float(rng.uniform(0.5, 2.0)),
            gamma_bar=float(rng.uniform(0.0, 0.2)),
            mean_photons=mean_photons, lam=float(rng.uniform(0.0, 1.0)),
            p11=float(rng.uniform(0.0, 1.0)),
            q11=float(rng.uniform(0.1, 0.9)),
            bell_phase=float(rng.uniform(0.0, 2.0 * math.pi)))
        s0 = build_initial_state(p)
        taus = np.sort(rng.uniform(0.0, 30.0, 16))
        first = propagate(s0, p, taus)
        assert max_state_dev(first, complex_pair_update(s0, p, taus)) < 1e-15
        shift = float(rng.uniform(0.0, 30.0))
        assert max_state_dev(propagate(first, p, shift),
                             complex_pair_update(first, p, shift)) < 1e-15


def test_propagate_tau_zero_is_identity():
    rng = np.random.default_rng(5)
    for gamma_bar in (0.0, 0.1):
        p = make_params(gamma_bar=gamma_bar)
        s0 = build_initial_state(p)
        first = propagate(s0, p, np.sort(rng.uniform(0.0, 20.0, 8)))
        for state in (s0, first, random_block_state(rng)):
            same = propagate(state, p, 0.0)
            assert np.array_equal(same.a, state.a)
            assert np.array_equal(same.b, state.b)
            assert np.array_equal(same.c, state.c)


def test_propagate_rejects_negative_time():
    p = make_params()
    s0 = build_initial_state(p)
    with pytest.raises(ValueError):
        propagate(s0, p, -0.1)


def test_propagate_is_bloch_rotation_when_undamped():
    """Each block must transform as conjugation by exp(-i (E tau / 2) sigma_x)."""
    rng = np.random.default_rng(42)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for _ in range(100):
        q11 = float(rng.uniform(0.1, 0.9))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        kbar = float(rng.uniform(0.5, 2.0))
        p = make_params(kappa_bar=kbar, gamma_bar=0.0, lam=1.0, q11=q11,
                        bell_phase=phi)
        s0 = build_initial_state(p)
        n = int(rng.integers(0, 20))
        tau = float(rng.uniform(0.0, 20.0))
        out = propagate(s0, p, tau)

        e = rabi_e(kbar, 0.0, n)
        half = 0.5 * e * tau
        u = math.cos(half) * np.eye(2) - 1j * math.sin(half) * sx
        blk = np.array([[s0.a[n], s0.c[n]],
                        [np.conj(s0.c[n]), s0.b[n + 1]]])
        rot = u @ blk @ u.conj().T
        assert abs(out.a[n] - rot[0, 0].real) < 1e-12
        assert abs(out.b[n + 1] - rot[1, 1].real) < 1e-12
        assert abs(out.c[n] - rot[0, 1]) < 1e-12


def test_half_period_flips_population_difference():
    # at tau = pi/E(n+1) the Bloch vector rotates by pi about x:
    # z -> -z when the coherence starts real (r_y = 0)
    p = make_params(gamma_bar=0.0, lam=1.0, q11=0.3, bell_phase=0.0)
    s0 = build_initial_state(p)
    n = 4
    tau = math.pi / rabi_e(1.0, 0.0, n)
    out = propagate(s0, p, tau)
    before = s0.a[n] - s0.b[n + 1]
    after = out.a[n] - out.b[n + 1]
    assert after == pytest.approx(-before, abs=1e-13)


def test_semigroup_property_on_random_states():
    rng = np.random.default_rng(3)
    p = make_params(gamma_bar=0.05, n_max=12)
    for _ in range(25):
        s = random_block_state(rng)
        t1 = float(rng.uniform(0.0, 5.0))
        t2 = float(rng.uniform(0.0, 5.0))
        direct = propagate(s, p, t1 + t2)
        composed = propagate(propagate(s, p, t1), p, t2)
        assert max_state_dev(direct, composed) < 1e-10


def test_trace_and_positivity_along_grid():
    p = make_params(gamma_bar=0.02)
    s0 = build_initial_state(p)
    for tau in np.arange(0.0, 30.0001, 0.5):
        s = propagate(s0, p, float(tau))
        assert abs(s.trace() - s0.trace()) < 1e-12
        assert s.min_eigenvalue() >= -1e-10


def test_coherence_decays_at_dephasing_rate():
    # stationary-population family: populations balanced inside each block
    # and real coherence, so c(tau) = e^{-gamma tau} c(0) exactly
    p = make_params(gamma_bar=0.08, lam=1.0, q11=0.5, bell_phase=0.0)
    s0 = build_initial_state(p)
    for tau in (0.5, 2.0, 10.0):
        s = propagate(s0, p, float(tau))
        np.testing.assert_allclose(
            np.abs(s.c), math.exp(-0.08 * tau) * np.abs(s0.c),
            rtol=0, atol=1e-14,
        )


def test_asymptotic_state_structure():
    p = make_params(gamma_bar=0.05)
    s0 = build_initial_state(p)
    lim = asymptotic_state(s0, p)
    assert np.all(lim.c == 0)
    np.testing.assert_allclose(lim.a[:-1], lim.b[1:], rtol=0, atol=0)
    np.testing.assert_allclose(lim.a[:-1], 0.5 * (s0.a[:-1] + s0.b[1:]),
                               rtol=0, atol=1e-16)
    assert lim.b[0] == s0.b[0]
    assert lim.trace() == pytest.approx(s0.trace(), abs=1e-14)


def test_asymptotic_state_pure_ground_example():
    # factored atom all in level 1: a[n] = p(n), so the limit splits it evenly
    p = make_params(gamma_bar=0.05, lam=0.0, p11=1.0)
    s0 = build_initial_state(p)
    lim = asymptotic_state(s0, p)
    pn = poisson_pmf(5.0, np.arange(p.n_max + 1))
    np.testing.assert_allclose(lim.a[:-1], 0.5 * pn[:-1], rtol=0, atol=1e-15)
    np.testing.assert_allclose(lim.b[1:], 0.5 * pn[:-1], rtol=0, atol=1e-15)


def test_asymptotic_state_requires_damping():
    p = make_params(gamma_bar=0.0)
    s0 = build_initial_state(p)
    with pytest.raises(ValueError):
        asymptotic_state(s0, p)


def test_propagate_converges_to_asymptotic_state():
    p = make_params(gamma_bar=0.05)
    s0 = build_initial_state(p)
    far = propagate(s0, p, 200.0)
    lim = asymptotic_state(s0, p)
    assert max_state_dev(far, lim) < 1e-3


def test_block_spectrum_of_a_diagonal_state():
    state = BlockState(
        a=np.array([0.4, 0.2, 0.05]),
        b=np.array([0.05, 0.2, 0.1]),
        c=np.zeros(2, dtype=complex),
    )
    # Without coherences every block is already diagonal, so the spectrum
    # is the diagonal itself, the unpaired b0 = 0.05 included.
    rep = entropy_report(state)
    assert rep.s_joint == pytest.approx(
        _entropy(np.array([0.05, 0.4, 0.2, 0.2, 0.1, 0.05])), abs=1e-15)
    assert rep.deficit == pytest.approx(0.0, abs=1e-15)
    assert state.min_eigenvalue() == pytest.approx(0.05, abs=1e-15)


def test_block_spectrum_of_a_pure_bell_mixture():
    p = make_params(lam=1.0, q11=0.5)
    state = build_initial_state(p)
    pn = poisson_pmf(5.0, np.arange(p.n_max + 1))
    # Every paired block is pure with weight p(n); b0 is empty and
    # a[n_max] = q11 p(n_max) is left unpaired by the truncation.
    assert state.b[0] == 0.0
    assert entropy_report(state).s_joint == pytest.approx(
        _entropy(np.append(pn[:-1], 0.5 * pn[-1])), abs=1e-14)
    assert abs(state.min_eigenvalue()) <= 1e-16


def test_spectral_sums_match_block_traces():
    # The dense matrix knows nothing of the blocks: its spectrum must be
    # the one the block formulas give.
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = random_block_state(rng)
        spectrum = np.linalg.eigvalsh(dense_from_block(s))
        assert spectrum.sum() == pytest.approx(s.trace(), abs=1e-12)
        assert entropy_report(s).s_joint == pytest.approx(
            _entropy(spectrum), abs=1e-12)
        assert s.min_eigenvalue() == pytest.approx(spectrum[0], abs=1e-12)
        assert s.min_eigenvalue() >= -1e-12
        np.testing.assert_allclose(
            np.sort(_spectrum(s.a, s.b, np.abs(s.c) ** 2,
                              out=np.empty(2 * s.n_max + 2))),
            spectrum, rtol=0, atol=1e-12)


def pair_exponential(kappa_bar, gamma_bar, n, block, tau):
    """exp(tau L) of one pair's 2x2 block at 40 digits.

    On the pair {|n,1>, |n+1,2>}, L = -i[H, .] + (gamma_bar/2)(Z . Z - .)
    with H = kappa_bar sqrt(n + 1) [[0, 1], [1, 0]] and Z = diag(-1, +1),
    written entry by entry as a 4x4 matrix on the block's row-major
    entries; it shares no code with the closed form."""
    with mpmath.workdps(40):
        g = mpmath.mpf(kappa_bar) * mpmath.sqrt(n + 1)
        half = mpmath.mpf(gamma_bar) / 2
        ham = [[0, g], [g, 0]]
        z = [-1, 1]
        liou = mpmath.matrix(4, 4)
        for j, k, l, m in np.ndindex(2, 2, 2, 2):
            # d rho[j, k] / d tau takes rho[l, m] with this weight.
            weight = -1j * (ham[j][l] * (k == m) - (j == l) * ham[m][k])
            if (j, k) == (l, m):
                weight += half * (z[j] * z[k] - 1)
            liou[2 * j + k, 2 * l + m] = weight
        vec = mpmath.matrix([complex(x) for x in np.ravel(block)])
        out = mpmath.expm(liou * mpmath.mpf(tau)) * vec
        return np.array([complex(x) for x in out]).reshape(2, 2)


@pytest.mark.parametrize("gamma_bar", [0.0, 0.05])
@pytest.mark.parametrize("mean_photons", [1e3, 1e4, 1e5])
def test_propagate_matches_a_40_digit_pair_exponential_at_large_n(
        mean_photons, gamma_bar):
    """Each pair evolves as its own two-level master equation.  The dense
    oracle certifies the block structure only up to n_max near 100; here
    pairs at N + k sqrt(N) are checked against a 40-digit exponential of
    the pair's Liouvillian.  The phase E tau loses about 2^-53 E tau to
    round-off.  Relative to the pair's trace, the worst gap over these
    draws measured 0.49 of 2^-53 (1 + E tau); the test allows 4 times
    2^-53 (1 + E tau)."""
    rng = np.random.default_rng(int(mean_photons) + int(gamma_bar * 100))
    root = math.sqrt(mean_photons)
    pairs = [round(mean_photons + k * root) for k in (-4, -1, 0, 1, 4)]
    taus = np.array([0.37, 7.3, 70.0])
    n_max = pairs[-1] + 1
    for _ in range(2):
        p = make_params(kappa_bar=float(rng.uniform(0.5, 1.5)),
                        gamma_bar=gamma_bar, mean_photons=mean_photons,
                        n_max=n_max)
        a, b = np.zeros(n_max + 1), np.zeros(n_max + 1)
        c = np.zeros(n_max, dtype=complex)
        a[pairs], b[np.add(pairs, 1)] = rng.uniform(0.1, 1.0, (2, 5))
        c[pairs] = (np.sqrt(a[pairs] * b[np.add(pairs, 1)])
                    * rng.uniform(0.0, 1.0, 5)
                    * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 5)))
        moved = propagate(BlockState(a, b, c), p, taus)
        for n in pairs:
            block = [[a[n], c[n]], [np.conj(c[n]), b[n + 1]]]
            e = rabi_e(p.kappa_bar, gamma_bar, n)
            for row, tau in enumerate(taus):
                got = np.array([
                    [moved.a[row, n], moved.c[row, n]],
                    [np.conj(moved.c[row, n]), moved.b[row, n + 1]]])
                want = pair_exponential(p.kappa_bar, gamma_bar, n, block,
                                        tau)
                gap = np.abs(got - want).max() / (a[n] + b[n + 1])
                assert gap <= 4 * 2.0**-53 * (1 + e * tau), (n, tau, gap)
