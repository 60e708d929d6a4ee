"""Resummed collapse-revival series for the atomic inversion."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import burst_center_and_amplitude

from phasedjcm import (
    Curve,
    ModelParams,
    Scenario,
    build_initial_state,
    entropy_report,
    poisson_sum_inversion,
    propagate,
    run_scenario,
)
from phasedjcm import runner
from phasedjcm.model import poisson_pmf
from phasedjcm.observables import revival_times
from phasedjcm.runner import _BLOCK_ENTRIES, _run_curve


def make_params(**overrides):
    base = dict(kappa_bar=1.0, gamma_bar=0.0, mean_photons=20.0, lam=0.0,
                p11=0.8, q11=0.5, bell_phase=math.pi / 6.0, n_max=None)
    base.update(overrides)
    return ModelParams(**base)


def test_revival_times_formula():
    params = make_params(mean_photons=20.0, kappa_bar=1.0)
    times = revival_times(params, 4)
    assert times[0] == pytest.approx(2.0 * math.pi * math.sqrt(20.0),
                                     rel=1e-15)
    spacing = np.diff(times)
    np.testing.assert_allclose(spacing, spacing[0], rtol=1e-14)
    assert times.size == 4
    with pytest.raises(ValueError):
        revival_times(params, 0)


def test_resummation_requires_undamped():
    with pytest.raises(ValueError):
        poisson_sum_inversion(make_params(gamma_bar=0.01), 1.0)


def test_resummation_at_time_zero():
    # constant + secular cosine at tau=0; burst terms vanish with the
    # kbar*tau prefactor
    for lam, p11, q11 in ((0.0, 0.8, 0.5), (0.5, 0.3, 0.7), (1.0, 0.9, 0.4)):
        params = make_params(lam=lam, p11=p11, q11=q11, mean_photons=5.0)
        expected = (-0.5 * (1 - lam) * (1 - p11) * poisson_pmf(5.0, 0)
                    + (1 - lam) * (p11 - (1 - p11)) + lam * (q11 - (1 - q11)))
        assert poisson_sum_inversion(params, 0.0) == pytest.approx(
            expected, abs=1e-14)


def test_reduces_to_classic_excited_atom_series():
    # lam=0, p11=0 (pure excited atom) must reproduce the textbook
    # collapse/revival sum; re-derive it here independently
    params = make_params(lam=0.0, p11=0.0, mean_photons=20.0)
    kbar, big_n = 1.0, 20.0
    root_n = math.sqrt(big_n)

    def classic(tau, nu_max=5):
        phase = 2.0 * kbar * root_n * tau
        out = -0.5 * poisson_pmf(big_n, 0)
        out += (-math.cos(phase)
                + kbar * tau * math.sin(phase) / (2.0 * root_n)) \
            * math.exp(-0.5 * (kbar * tau) ** 2)
        for nu in range(1, nu_max + 1):
            tau_nu = 2.0 * math.pi * nu * root_n / kbar
            env = math.exp(-(kbar**2 / (2.0 * math.pi**2 * nu**2))
                           * (tau - tau_nu) ** 2) / math.sqrt(math.pi * big_n)
            carrier = kbar**2 * tau**2 / (2.0 * math.pi * nu) - math.pi / 4.0
            out += (kbar * tau / (2.0 * math.pi * math.sqrt(nu**3))) \
                * env * (-math.cos(carrier))
        return out

    for tau in np.arange(0.0, 60.0, 1.7):
        assert poisson_sum_inversion(params, float(tau)) == pytest.approx(
            classic(float(tau)), abs=1e-13)


def test_burst_amplitudes_decay_with_order():
    params = make_params()
    tau1 = revival_times(params, 1)[0]
    grid = np.arange(0.0, 3.0 * tau1, 0.02)
    series = [poisson_sum_inversion(params, grid, nu_max=nu)
              for nu in (1, 2, 3)]
    # Burst nu is the series with nu bursts less the one with nu - 1; the
    # first is the one-burst series past tau1 / 2, where the collapse term
    # has died out.
    bursts = (np.where(grid > 0.5 * tau1, series[0], 0.0),
              series[1] - series[0], series[2] - series[1])
    peak = [float(np.abs(burst).max()) for burst in bursts]
    assert peak[0] > peak[1] > peak[2]


def test_bell_phase_drives_revival_amplitude():
    amplitudes = []
    for phi in (0.0, math.pi / 6.0, math.pi / 2.0):
        params = make_params(lam=1.0, q11=0.5, bell_phase=phi)
        tau1 = revival_times(params, 1)[0]
        grid = np.arange(tau1 - 8.0, tau1 + 8.0, 0.05)
        amplitudes.append(float(np.abs(poisson_sum_inversion(params, grid))
                                .max()))
    assert amplitudes[0] < 1e-15          # phi=0: series is exactly flat
    assert amplitudes[0] < amplitudes[1] < amplitudes[2]


def test_first_revival_centers_near_nominal_time():
    params = make_params()
    state = build_initial_state(params)
    tau1 = revival_times(params, 2)[0]
    grid = np.arange(tau1 - 8.0, tau1 + 8.0001, 0.05)
    exact = entropy_report(propagate(state, params, grid)).inversion
    center, amp = burst_center_and_amplitude(grid, exact, tau1)
    assert abs(center - tau1) < 1.0
    assert amp > 0.1


@pytest.mark.xfail(
    strict=True,
    reason="bursts physically rephase near 2 pi nu sqrt(N+1), a drift of "
           "~0.7 nu past the nominal 2 pi nu sqrt(N); beyond nu=1 (and for "
           "the resummed series already at nu=1) the measured cluster "
           "centers fall outside the 1.0 window; see the decisions ledger",
)
def test_all_burst_centers_within_unit_window():
    params = make_params()
    state = build_initial_state(params)
    times = revival_times(params, 2)
    grid = np.arange(0.0, 70.0001, 0.05)
    exact = entropy_report(propagate(state, params, grid)).inversion
    approx = poisson_sum_inversion(params, grid)
    for tau_nu in times:
        for signal in (exact, approx):
            center, _ = burst_center_and_amplitude(grid, signal, tau_nu)
            assert abs(center - tau_nu) < 1.0


@pytest.mark.parametrize("sweep", ["tau", "lambda"])
def test_runner_overlay_in_chunks_matches_one_whole_grid_call(sweep,
                                                              monkeypatch):
    """The runner evaluates the overlay _BLOCK_ENTRIES points at a time.
    On a grid of two whole chunks and one point more, its column equals one
    call over the whole grid byte for byte."""
    params = make_params(mean_photons=1.0, lam=0.5, bell_phase=0.3)
    count = 2 * _BLOCK_ENTRIES + 1
    stop = 80.0 if sweep == "tau" else 1.0
    scenario = Scenario(name="t", sweep=sweep, start=0.0, stop=stop,
                        step=stop / (count - 1), curves=(Curve("c", params),))
    sizes = []

    def overlay(params, tau, nu_max=5, lam=None):
        sizes.append(np.size(tau if lam is None else lam))
        return poisson_sum_inversion(params, tau, nu_max, lam)

    monkeypatch.setattr(runner, "poisson_sum_inversion", overlay)
    (series,) = run_scenario(scenario)
    assert series.axis.size == count
    assert sizes == [_BLOCK_ENTRIES, _BLOCK_ENTRIES, 1]
    if sweep == "tau":
        whole = poisson_sum_inversion(params, series.axis)
    else:
        whole = poisson_sum_inversion(params, 0.0, lam=series.axis)
    assert np.all(np.isfinite(whole)) and np.ptp(whole) > 0.1
    assert series.columns["inversion_asym"].tobytes() == whole.tobytes()


def test_runner_overlay_adds_little_to_a_long_curve_peak():
    """On a 30,001-row tau curve at N = 1 (n_max 33), the undamped curve,
    which adds the overlay, peaks less than 0.5 MiB above the damped one,
    whose overlay column is nan.  Over the whole grid at once, the
    overlay's temporaries added 1.35 MB; in chunks they add about 4 KB."""
    peaks = []
    for gamma_bar in (0.0, 0.05):
        scenario = Scenario(name="t", sweep="tau", start=0.0, stop=1500.0,
                            step=0.05, curves=(Curve("c", make_params(
                                mean_photons=1.0, gamma_bar=gamma_bar)),))
        grid = scenario.grid()
        assert (grid.size, scenario.curves[0].params.n_max) == (30_001, 33)
        tracemalloc.start()
        try:
            _run_curve(scenario, scenario.curves[0], grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] - peaks[1] < 2**19
