"""Property tests over the valid parameter box, large N included.

Every drawn parameter set is valid: the initial state is a convex mix of
positive pieces, and kappa_bar >= 0.2 with gamma_bar <= 0.2 keeps every pair
underdamped.  The batched path is checked row by row against scalar calls,
which stay the reference.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phasedjcm import (
    Curve,
    ModelParams,
    Scenario,
    build_initial_state,
    concurrence_lower_bound,
    entropy_report,
    poisson_sum_inversion,
    propagate,
    run_scenario,
)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None,
                             derandomize=True)

unit = st.floats(0.0, 1.0)
means = st.one_of(st.floats(0.5, 30.0), st.floats(30.0, 1000.0))
times = st.lists(st.floats(0.0, 100.0), min_size=1, max_size=6)


@st.composite
def valid_params(draw, mean_photons=means):
    return ModelParams(
        kappa_bar=draw(st.floats(0.2, 3.0)),
        gamma_bar=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.2))),
        mean_photons=draw(mean_photons),
        lam=draw(unit),
        p11=draw(unit),
        q11=draw(st.floats(0.01, 0.99)),
        bell_phase=draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True)),
    )


def row_of(state, i):
    return state.a[i], state.b[i], state.c[i]


@PROPERTY_SETTINGS
@given(valid_params(), times)
def test_batched_propagation_equals_batch_of_one(params, taus):
    initial = build_initial_state(params)
    batch = propagate(initial, params, np.array(taus))
    reports = entropy_report(batch)
    clb = concurrence_lower_bound(batch)
    for i, tau in enumerate(taus):
        one = propagate(initial, params, tau)
        for got, want in zip(row_of(batch, i), (one.a, one.b, one.c)):
            np.testing.assert_array_equal(got, want)
        rep = entropy_report(one)
        for name, value in vars(rep).items():
            assert getattr(reports, name)[i] == value, name
        assert clb[i] == concurrence_lower_bound(one)


@PROPERTY_SETTINGS
@given(valid_params(), times, times)
def test_semigroup_property(params, first, second):
    size = min(len(first), len(second))
    t1, t2 = np.array(first[:size]), np.array(second[:size])
    initial = build_initial_state(params)
    direct = propagate(initial, params, t1 + t2)
    composed = propagate(propagate(initial, params, t1), params, t2)
    for got, want in zip((composed.a, composed.b, composed.c),
                         (direct.a, direct.b, direct.c)):
        assert float(np.abs(got - want).max()) < 1e-10


@PROPERTY_SETTINGS
@given(valid_params(), times)
def test_trace_and_block_positivity(params, taus):
    initial = build_initial_state(params)
    states = propagate(initial, params, np.array(taus))
    assert np.all(np.abs(states.trace() - initial.trace()) < 1e-12)
    assert np.all(states.min_eigenvalue() >= -1e-10)


@PROPERTY_SETTINGS
@given(valid_params(), times, st.booleans())
def test_clb_inside_unit_interval(params, taus, include_n0):
    states = propagate(build_initial_state(params), params, np.array(taus))
    clb = concurrence_lower_bound(states, include_n0=include_n0)
    assert np.all((clb >= 0.0) & (clb <= 1.0))


@PROPERTY_SETTINGS
@given(valid_params(), times)
def test_araki_lieb_and_subadditivity(params, taus):
    states = propagate(build_initial_state(params), params, np.array(taus))
    rep = entropy_report(states)
    assert np.all(np.abs(rep.s_atom - rep.s_rad) <= rep.s_joint + 1e-10)
    assert np.all(rep.s_joint <= rep.s_atom + rep.s_rad + 1e-10)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(valid_params(mean_photons=st.floats(0.5, 20.0)))
def test_runner_rows_equal_scalar_evaluation(params):
    """Both sweeps of the runner against one scalar call per grid point."""
    tau_scenario = Scenario(name="t", sweep="tau", start=0.0, stop=3.0,
                            step=0.25, curves=(Curve("c", params),))
    lam_scenario = replace(tau_scenario, sweep="lambda", stop=1.0, step=0.125)
    initial = build_initial_state(params)
    for scenario in (tau_scenario, lam_scenario):
        (series,) = run_scenario(scenario)
        for i, x in enumerate(series.axis):
            if scenario.sweep == "tau":
                point = params
                state = propagate(initial, params, float(x))
                asym_tau = float(x)
            else:
                point = replace(params, lam=float(x))
                state = build_initial_state(point)
                asym_tau = 0.0
            rep = entropy_report(state)
            assert series.columns["clb"][i] == concurrence_lower_bound(state)
            for name in ("deficit", "mutual", "s_atom", "s_rad", "s_joint",
                         "rel_atom", "rel_rad", "inversion"):
                assert series.columns[name][i] == getattr(rep, name), name
            asym = series.columns["inversion_asym"][i]
            if params.gamma_bar == 0:
                assert asym == poisson_sum_inversion(point, asym_tau)
            else:
                assert math.isnan(asym)
