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
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasedjcm import (
    COLUMNS,
    BlockState,
    Curve,
    ModelParams,
    Scenario,
    build_initial_state,
    compare_states,
    concurrence_lower_bound,
    dense_from_block,
    entropy_report,
    integrate_path,
    poisson_sum_inversion,
    propagate,
    run_scenario,
)
from phasedjcm.cli import main
from phasedjcm.evolution import _tau_blocks
from phasedjcm.model import _abs_sq, _levels
from phasedjcm.runner import _BLOCK_ENTRIES, _work_arrays, _write_columns

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


@settings(max_examples=25, deadline=None, derandomize=True)
@given(valid_params(mean_photons=st.floats(0.5, 5.0)),
       st.lists(st.floats(0.0, 20.0), min_size=1, max_size=3, unique=True))
def test_oracle_matches_closed_form(params, taus):
    """The master-equation oracle against the closed form at every
    checkpoint.  n_max = 30 leaves a Poisson tail below 4e-15 for N <= 5."""
    params = replace(params, n_max=30)
    taus = sorted(taus)
    initial = build_initial_state(params)
    path = integrate_path(dense_from_block(initial), params, taus)
    for tau, dense in zip(taus, path):
        report = compare_states(dense, propagate(initial, params, tau))
        assert report.max_abs < 1e-12, (tau, report)


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


@pytest.mark.parametrize("gamma_bar", [0.0, 0.05])
@pytest.mark.parametrize("mean_photons", [5.0, 20.0, 1000.0])
def test_runner_blocks_match_one_direct_step_per_row(mean_photons, gamma_bar):
    """A tau grid of several blocks, the last one short and the first not at
    tau = 0, against one direct propagation from tau = 0 per row."""
    params = ModelParams(kappa_bar=1.0, gamma_bar=gamma_bar,
                         mean_photons=mean_photons, lam=0.9, p11=0.8,
                         q11=0.5, bell_phase=math.pi / 6.0)
    rows = _BLOCK_ENTRIES // (params.n_max + 1)
    count = 2 * rows + rows // 2 + 1
    step = 0.25
    scenario = Scenario(name="t", sweep="tau", start=0.1,
                        stop=0.1 + step * (count - 1), step=step,
                        curves=(Curve("c", params),))
    (series,) = run_scenario(scenario)
    assert series.axis.size == count and count % rows != 0
    initial = build_initial_state(params)
    for i, tau in enumerate(series.axis):
        state = propagate(initial, params, float(tau))
        want = vars(entropy_report(state))
        want["clb"] = concurrence_lower_bound(state)
        for name in ("clb", "deficit", "mutual", "s_atom", "s_rad",
                     "s_joint", "rel_atom", "rel_rad", "inversion"):
            assert abs(series.columns[name][i] - want[name]) <= 1e-12, (
                name, tau)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(valid_params(mean_photons=st.floats(0.5, 20.0)), st.integers(2, 9),
       st.floats(0.0, 60.0), st.booleans())
def test_column_kernel_matches_the_public_layers(params, rows, shift, bell):
    """The runner's column kernel on the first two blocks of a tau curve (a
    first block and a short later block moved on in place by a shift up to
    60) and on a lambda-sweep block, against entropy_report and
    concurrence_lower_bound of the same states.  Both compute through the
    same helpers, so they agree bit for bit, well inside 1e-13.  A Bell
    start gets b[0] = -1e-18, a population left negative by round-off (b[0]
    is a constant of the motion), so the bound's clip runs on every
    block."""
    if bell:
        params = replace(params, lam=1.0)
    initial = build_initial_state(params)
    if bell:
        initial = BlockState(initial.a, np.append(-1e-18, initial.b[1:]),
                             initial.c)
    grid = np.arange(2 * rows - 1) * (shift / rows)
    first = propagate(initial, params, grid[:rows])
    size = rows - 1
    head = BlockState(first.a[:size], first.b[:size], first.c[:size])
    states = (first, propagate(head, params, grid[rows] - grid[0]))
    work = _work_arrays(rows, params.n_max)
    lam_state = build_initial_state(params, np.linspace(0.0, 1.0, rows))

    def check(state, levels, c_sq):
        cols = {name: np.empty(levels.shape[0]) for name in COLUMNS[:-1]}
        _write_columns(cols, slice(None), levels, c_sq, work)
        want = vars(entropy_report(state))
        want["clb"] = concurrence_lower_bound(state)
        for name in COLUMNS[:-1]:
            np.testing.assert_array_equal(cols[name], want[name], name)

    # Each block is checked as it is yielded: the next one overwrites it.
    for state, (_, levels, c_sq) in zip(
            states, _tau_blocks(initial, params, grid, rows), strict=True):
        check(state, levels, c_sq)
        if bell:
            assert levels.min() < 0.0
    check(lam_state, _levels(lam_state), _abs_sq(lam_state.c))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(valid_params(mean_photons=st.floats(0.5, 5.0)), st.integers(1, 30),
       st.integers(1, 4), st.integers(1, 40), st.floats(0.0, 10.0),
       st.floats(0.0, 1.5), st.integers(0, 2**32 - 1))
def test_tau_blocks_match_propagate(params, n_max, rows, size, start, step,
                                    seed):
    """Every block of a grid, the first propagated and the later ones moved
    on from it through step tables of as many shifts as a block has rows,
    has the right slice and equals propagate of the first block's head by
    its shift bit for bit, the short last block included."""
    rng = np.random.default_rng(seed)
    state = BlockState(rng.random(n_max + 1), rng.random(n_max + 1),
                       rng.random(n_max) - 0.5
                       + 1j * (rng.random(n_max) - 0.5))
    grid = start + step * np.arange(size)
    first = propagate(state, params, grid[:rows])
    count = 0
    # Each block is compared as it is yielded: the next one overwrites it.
    for count, (block, levels, c_sq) in enumerate(
            _tau_blocks(state, params, grid, rows), 1):
        lo = (count - 1) * rows
        assert block == slice(lo, min(lo + rows, size))
        head = BlockState(*(arr[:block.stop - lo]
                            for arr in (first.a, first.b, first.c)))
        want = first if lo == 0 else propagate(head, params,
                                               grid[lo] - grid[0])
        np.testing.assert_array_equal(levels, _levels(want))
        np.testing.assert_array_equal(c_sq, _abs_sq(want.c))
    assert count == math.ceil(size / rows)


def test_tau_blocks_keep_the_phase_overflow_error():
    params = ModelParams(kappa_bar=1.0, gamma_bar=0.0, mean_photons=2.0,
                         lam=0.5, p11=0.8, q11=0.5, bell_phase=0.0, n_max=30)
    blocks = _tau_blocks(build_initial_state(params), params,
                         np.array([0.0, 1.0, 2.0, 1.7e308]), 1)
    for _ in range(3):
        next(blocks)
    with pytest.raises(ValueError, match="phase E tau is not finite"):
        next(blocks)


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_failing_property_shows_its_falsifying_example(tmp_path):
    """A failing @given test, run under the project's pytest settings,
    reports its falsifying example rather than an INTERNALERROR from a
    warning turned into an error."""
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c",
         str(config), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output, output
    assert "INTERNALERROR" not in output, output


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
