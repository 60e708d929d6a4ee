"""Property tests over the valid parameter box, large N included, and over
the command line with any flag values.

Every drawn parameter set is valid: the initial state is a convex mix of
positive pieces, and kappa_bar >= 0.2 with gamma_bar <= 0.2 keeps every pair
underdamped.  The batched path is checked row by row against scalar calls,
which stay the reference.  The command-line property draws flag values from
the whole float line, nan and +-inf included.
"""

import contextlib
import io
import math
import tempfile
from dataclasses import replace
from pathlib import Path

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
from phasedjcm.cli import main

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
@given(valid_params(), times)
def test_clb_inside_unit_interval(params, taus):
    states = propagate(build_initial_state(params), params, np.array(taus))
    clb = concurrence_lower_bound(states)
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


PARAM_FLAGS = ("--kappa-bar", "--gamma-bar", "--mean-photons", "--lambda",
               "--p11", "--q11", "--bell-phase")
flag_values = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1e200,
                     1e150, 1e-300, 0.0, -1.0, 0.25, 0.5, 1.5, 7.0]),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


# Fock cutoffs that are invalid, tiny or ordinary.  Each grid has a few
# points, is refused, or is too large to allocate (1e15 points would take
# 7.11 PiB); none takes long to run.  Half of the draws keep the ordinary
# cutoff and grid, so that enough runs get as far as writing a CSV.
n_max_values = st.one_of(st.just("30"),
                         st.sampled_from(("-1", "0", "1", "2", "30")))
grids = {
    "evolve": st.one_of(
        st.just(("--tau-max", "0.5", "--tau-step", "0.25")),
        st.sampled_from([
            ("--tau-max", tau_max, "--tau-step", tau_step)
            for tau_max, tau_step in (
                ("0.5", "0.25"), ("0", "0.25"), ("1", "0.6"), ("-1", "0.25"),
                ("0.5", "0"), ("0.5", "-0.25"), ("nan", "0.25"),
                ("inf", "1"), ("0.5", "inf"), ("1e15", "1"),
                ("1e300", "1e-300"), ("1e300", "5e299"),
                ("1.7e308", "1.7e308"))
        ])),
    "sweep-clb": st.one_of(
        st.just(("--lambda-step", "0.5")),
        st.sampled_from([
            ("--lambda-step", step)
            for step in ("0.5", "0.25", "1", "2", "inf", "0", "-0.5", "nan",
                         "1e-15")
        ])),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(("evolve", "sweep-clb")).flatmap(
           lambda command: st.tuples(st.just(command), grids[command])),
       n_max_values,
       st.dictionaries(st.sampled_from(PARAM_FLAGS),
                       st.tuples(flag_values,
                                 st.sampled_from((True, True, True, False)))))
def test_cli_ends_in_an_exit_code_for_any_flag_values(command_and_grid,
                                                       n_max, flags):
    """0 with a CSV and a silent stderr, or 1 with one stderr line and no
    CSV, or argparse's exit 2."""
    command, grid = command_and_grid
    argv = [command, f"--n-max={n_max}", *grid]
    for flag, (value, joined) in flags.items():
        if command == "sweep-clb" and flag == "--lambda":
            continue    # sweep-clb has no --lambda; the grid sets the weights
        # "--flag -1e+300" is a usage error; "--flag=-1e+300" reaches the
        # parameter checks.
        argv += [f"{flag}={value!r}"] if joined else [flag, repr(value)]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as exc:
                assert exc.code == 2
                return
        assert code in (0, 1)
        if code == 1:
            assert err.getvalue().count("\n") == 1
            assert not out.exists()
        else:
            assert err.getvalue() == ""
            assert len(list(out.glob("*.csv"))) == 1
