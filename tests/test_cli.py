"""Scenario catalog, CSV emission, and command-line behavior."""

import ast
import errno
import importlib
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import phasedjcm
from phasedjcm import (
    CATALOG,
    COLUMNS,
    Curve,
    ModelParams,
    ParameterError,
    Scenario,
    TimeSeries,
    run_scenario,
    write_csvs,
)
from phasedjcm.cli import main

EXPECTED_HEADER = ("tau,clb,deficit,mutual,s_atom,s_rad,s_joint,"
                   "rel_atom,rel_rad,inversion,inversion_asym")


def small_params(**overrides):
    base = dict(kappa_bar=1.0, gamma_bar=0.0, mean_photons=2.0, lam=0.5,
                p11=0.8, q11=0.5, bell_phase=math.pi / 6.0, n_max=30)
    base.update(overrides)
    return ModelParams(**base)


def test_catalog_contents():
    assert set(CATALOG) == {"fig1a", "fig1b", "fig2a", "fig2b", "fig3a",
                            "fig3b", "fig4a", "fig4b", "fig5a", "fig5b"}
    for scenario in CATALOG.values():
        grid = scenario.grid()
        assert grid.size > 1
        assert scenario.sweep in ("tau", "lambda")
        assert set(scenario.shows) <= set(COLUMNS)
        labels = [curve.label for curve in scenario.curves]
        assert len(labels) == len(set(labels))

    assert [c.label for c in CATALOG["fig4a"].curves] == \
        ["phi0", "phiPi6", "phiPi2"]
    assert [c.label for c in CATALOG["fig1a"].curves] == \
        ["p11_0", "p11_0p25", "p11_0p5", "p11_0p75", "p11_1"]
    assert [c.label for c in CATALOG["fig1b"].curves] == \
        ["N2", "N3", "N5", "N20"]
    assert [c.label for c in CATALOG["fig2a"].curves] == \
        ["lam0", "lam0p9", "lam1", "lam0_g0p01", "lam0p9_g0p01", "lam1_g0p01"]
    assert CATALOG["fig1a"].sweep == "lambda"
    assert CATALOG["fig2b"].stop == 70.0
    assert CATALOG["fig5b"].stop == 30.0


def test_grid_construction_and_errors():
    scenario = CATALOG["fig1a"]
    grid = scenario.grid()
    assert grid.size == 101
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        replace(scenario, step=0.0).grid()
    with pytest.raises(ValueError):
        replace(scenario, step=-0.1).grid()
    with pytest.raises(ValueError):
        replace(scenario, start=1.0, stop=0.0, step=0.1).grid()
    for bad in (dict(stop=math.inf), dict(step=math.nan),
                dict(start=-math.inf)):
        with pytest.raises(ValueError, match="finite"):
            replace(scenario, **bad).grid()
    # the grid never passes its stop, even when the step does not divide it
    np.testing.assert_array_equal(
        replace(scenario, stop=1.0, step=0.6).grid(), [0.0, 0.6])
    sizes = {name: s.grid().size for name, s in CATALOG.items()}
    assert set(sizes.values()) == {101, 601, 1401}
    for s in CATALOG.values():
        assert s.grid()[-1] == pytest.approx(s.stop, abs=1e-9)


def tiny_scenario(**param_overrides):
    return Scenario(
        name="tiny", sweep="tau", start=0.0, stop=1.0, step=0.25,
        curves=(
            Curve("undamped", small_params(**param_overrides)),
            Curve("damped", small_params(gamma_bar=0.05, **param_overrides)),
        ),
    )


def test_run_scenario_series_layout():
    series = list(run_scenario(tiny_scenario()))
    assert [s.label for s in series] == ["undamped", "damped"]
    for s in series:
        assert s.axis_name == "tau"
        assert s.axis.size == 5
        assert set(s.columns) == set(COLUMNS)
        for col in s.columns.values():
            assert col.shape == (5,)
    # the resummed inversion column is only defined without damping
    assert np.all(np.isfinite(series[0].columns["inversion_asym"]))
    assert np.all(np.isnan(series[1].columns["inversion_asym"]))


def test_emit_csv_format(tmp_path):
    series = next(run_scenario(tiny_scenario()))
    (path,) = write_csvs([series], tmp_path)
    assert path == tmp_path / "tiny__undamped.csv"
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = raw.decode("ascii").splitlines()
    assert lines[0] == EXPECTED_HEADER
    assert len(lines) == 1 + series.axis.size
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 11
        for field, name in zip(fields[1:], COLUMNS):
            value = float(field)
            if not math.isnan(value):
                # values are printed with 9 significant digits
                assert field == f"{value:.9g}"


def test_emit_csv_prints_each_cell_as_format_9g(tmp_path):
    values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-5,
              9.9999999995e-5, 999999999.5, 1e16]
    # Column k holds the values rotated by k, so every column sees each.
    columns = {name: np.roll(values, k) for k, name in enumerate(COLUMNS)}
    series = TimeSeries("t", "cells", "tau", np.array(values), columns)
    (path,) = write_csvs([series], tmp_path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.count(b"\n") == 1 + len(values) and raw.endswith(b"\n")
    lines = raw.decode("ascii").split("\n")[:-1]
    assert lines[0] == EXPECTED_HEADER
    table = np.column_stack([series.axis]
                            + [columns[name] for name in COLUMNS])
    for line, row in zip(lines[1:], table):
        assert line.split(",") == [format(v, ".9g") for v in row]


def test_emit_csv_is_deterministic(tmp_path):
    paths = []
    for run in range(2):
        series = list(run_scenario(tiny_scenario()))
        (path,) = write_csvs(series[1:], tmp_path / f"run{run}")
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


class FailingFile:
    """A binary file whose second write raises ``error``."""

    def __init__(self, fh, error):
        self.fh, self.error, self.writes = fh, error, 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise self.error
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


@pytest.mark.parametrize("error", [
    OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()])
def test_emit_csv_keeps_the_old_file_when_a_write_fails(tmp_path,
                                                        monkeypatch, error):
    """A write that fails after the header leaves the earlier CSV's bytes
    and no temporary file; the next write replaces the CSV whole, with the
    mode of a plain new file."""
    first, second = run_scenario(tiny_scenario())
    # The second curve under the first one's label goes to the same path.
    second = replace(second, label=first.label)
    (path,) = write_csvs([first], tmp_path)
    old = path.read_bytes()
    monkeypatch.setattr(phasedjcm.runner, "open",
                        lambda file, mode: FailingFile(open(file, mode),
                                                       error),
                        raising=False)
    with pytest.raises(type(error)):
        write_csvs([second], tmp_path)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]
    monkeypatch.undo()
    assert write_csvs([second], tmp_path) == [path]
    (fresh,) = write_csvs([replace(second, label="fresh")], tmp_path)
    assert path.read_bytes() == fresh.read_bytes() != old
    plain = tmp_path / "plain"
    plain.touch()
    assert path.stat().st_mode == plain.stat().st_mode
    assert sorted(tmp_path.iterdir()) == [plain, fresh, path]


def test_emit_csv_memory_does_not_grow_with_the_grid(tmp_path):
    """A 100,001-row curve is formatted and written in chunks, so the
    memory write_csvs allocates stays under 1 MiB (the columns alone take
    8.8 MB; formatting the whole table at once peaked at 63 MiB)."""
    rows = 100_001
    rng = np.random.default_rng(0)
    series = TimeSeries("t", "long", "tau", np.arange(rows) * 0.05,
                        {name: rng.standard_normal(rows) for name in COLUMNS})
    tracemalloc.start()
    try:
        (path,) = write_csvs([series], tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert path.read_bytes().count(b"\n") == 1 + rows


@pytest.mark.parametrize("rows", [phasedjcm.runner._CSV_ROWS - 1,
                                  phasedjcm.runner._CSV_ROWS,
                                  phasedjcm.runner._CSV_ROWS + 1])
def test_emit_csv_bytes_at_chunk_boundaries(tmp_path, rows):
    """Grids one row short of a chunk, of one chunk and one row over it
    print exactly what one pass of format(value, ".9g") over the table
    prints."""
    rng = np.random.default_rng(rows)
    values = rng.standard_normal((11, rows)) * 10.0 ** rng.integers(
        -300, 300, (11, rows))
    values[:, :4] = [math.nan, math.inf, -0.0, 5e-324]
    series = TimeSeries("t", "chunks", "tau", values[0],
                        dict(zip(COLUMNS, values[1:])))
    (path,) = write_csvs([series], tmp_path)
    want = EXPECTED_HEADER + "\n" + "".join(
        ",".join(format(value, ".9g") for value in row) + "\n"
        for row in values.T)
    assert path.read_bytes() == want.encode("ascii")


@pytest.mark.parametrize("error", [ValueError("curve failed"),
                                   KeyboardInterrupt()])
def test_call_whose_last_curve_fails_replaces_no_csv(tmp_path, monkeypatch,
                                                     capsys, error):
    """Each curve of a call is written to a temporary file in --out as
    soon as it is computed, but none is renamed onto its CSV until the
    last has succeeded: when the last curve fails, every earlier CSV keeps
    its bytes and no temporary file is left."""
    out = tmp_path / "out"
    out.mkdir()
    labels = [curve.label for curve in CATALOG["fig5b"].curves]
    for label in labels:
        (out / f"fig5b__{label}.csv").write_bytes(b"old\n")
    run_curve = phasedjcm.runner._run_curve
    staged = []

    def fail_last(scenario, curve, grid):
        if curve.label == labels[-1]:
            staged.extend(p.name for p in out.glob("*.tmp"))
            raise error
        return run_curve(scenario, curve, grid)

    monkeypatch.setattr(phasedjcm.runner, "_run_curve", fail_last)
    argv = ["scenario", "fig5b", "--tau-max", "1", "--tau-step", "0.5",
            "--out", str(out)]
    if isinstance(error, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: curve failed\n"
    assert len(staged) == len(labels) - 1
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"fig5b__{label}.csv" for label in labels)
    assert all(p.read_bytes() == b"old\n" for p in out.iterdir())
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("bad, message", [
    (dict(sweep="kappa"), "unknown sweep kind"),
    (dict(start=1.0, stop=0.0), "empty grid"),
])
def test_run_scenario_checks_the_sweep_and_grid_at_the_call(bad, message):
    """The sweep kind and the grid are checked when run_scenario is called,
    not when its first curve is reached."""
    scenario = replace(tiny_scenario(), **bad)
    with pytest.raises(ValueError, match=message):
        run_scenario(scenario)


def test_run_scenario_computes_each_curve_as_it_is_reached():
    """Only the second curve has invalid parameters: the first is yielded
    whole, and the ParameterError comes at the next ``next``."""
    scenario = replace(tiny_scenario(), curves=(
        Curve("good", small_params()), Curve("bad", small_params(p11=1.5))))
    curves = run_scenario(scenario)
    first = next(curves)
    assert first.label == "good"
    assert np.all(np.isfinite(first.columns["clb"]))
    with pytest.raises(ParameterError, match="p11"):
        next(curves)


@pytest.mark.parametrize("error", [ValueError("curve failed"),
                                   KeyboardInterrupt()])
def test_write_csvs_commits_no_csv_when_the_curves_fail(tmp_path, error):
    """An iterable that raises after its first curve leaves neither a CSV
    nor a temporary file, and a CSV already at that path keeps its bytes;
    one that fails before its first curve makes no directory."""
    first = next(run_scenario(tiny_scenario()))

    def curves(count):
        yield from [first][:count]
        raise error

    out = tmp_path / "out"
    with pytest.raises(type(error)):
        write_csvs(curves(1), out)
    assert list(out.iterdir()) == []
    path = out / "tiny__undamped.csv"
    path.write_bytes(b"old\n")
    with pytest.raises(type(error)):
        write_csvs(curves(1), out)
    assert list(out.iterdir()) == [path]
    assert path.read_bytes() == b"old\n"
    fresh = tmp_path / "fresh"
    with pytest.raises(type(error)):
        write_csvs(curves(0), fresh)
    assert not fresh.exists()


def test_write_csvs_holds_one_curve_at_a_time(tmp_path):
    """Each curve is dropped before the next is computed, so a call with
    three curves of 3001 rows peaks no higher than a call with one.  The
    allowance, 64 KiB, is a quarter of one curve's columns (264 KB), which
    a writer holding the previous curve adds to the peak; the measured gap
    is under 5 KB."""
    params = small_params(mean_photons=1.0)
    scenario = Scenario(name="long", sweep="tau", start=0.0, stop=150.0,
                        step=0.05, curves=tuple(
                            Curve(f"c{k}", params) for k in range(3)))
    peaks = []
    for count in (1, 3):
        curves = run_scenario(replace(scenario,
                                      curves=scenario.curves[:count]))
        tracemalloc.start()
        try:
            paths = write_csvs(curves, tmp_path / str(count))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(paths) == count
    assert peaks[1] <= peaks[0] + 2**16


def test_stale_temporaries_do_not_block_a_csv(tmp_path, capsys):
    """Temporary files that a killed run of a process with the same pid
    left behind are passed over and left as they are; the CSV is still
    written, whole, with the mode of a plain new file."""
    out = tmp_path / "out"
    out.mkdir()
    path = out / "evolve__custom.csv"
    stale = [Path(f"{path}.{os.getpid()}.tmp"),
             Path(f"{path}.{os.getpid()}.1.tmp")]
    for tmp in stale:
        tmp.write_bytes(b"killed mid-write")
    argv = ["evolve", "--mean-photons", "2", "--n-max", "30", "--tau-max",
            "0.5", "--tau-step", "0.25", "--out"]
    assert main([*argv, str(out)]) == 0
    assert main([*argv, str(tmp_path / "fresh")]) == 0
    assert path.read_bytes() == (tmp_path / "fresh" / path.name).read_bytes()
    assert sorted(out.iterdir()) == sorted([path, *stale])
    assert all(tmp.read_bytes() == b"killed mid-write" for tmp in stale)
    plain = tmp_path / "plain"
    plain.touch()
    assert path.stat().st_mode == plain.stat().st_mode


def test_scenario_command_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["scenario", "fig5b", "--tau-max", "1.0", "--tau-step", "0.5",
               "--out", str(out)])
    assert rc == 0
    names = sorted(p.name for p in out.glob("*.csv"))
    assert names == sorted(
        f"fig5b__{label}.csv"
        for label in ("lam0_p11_0", "lam0_p11_0p8", "lam1",
                      "lam0_p11_0_g0p05", "lam0_p11_0p8_g0p05", "lam1_g0p05")
    )
    listed = capsys.readouterr().out.strip().splitlines()
    assert len(listed) == 6
    damped = (out / "fig5b__lam1_g0p05.csv").read_text()
    assert "nan" in damped.splitlines()[1]
    undamped = (out / "fig5b__lam1.csv").read_text()
    assert "nan" not in undamped


def test_lambda_scan_command(tmp_path):
    out = tmp_path / "scan"
    rc = main(["sweep-clb", "--mean-photons", "2", "--n-max", "30",
               "--lambda-step", "0.5", "--out", str(out)])
    assert rc == 0
    path = out / "sweep-clb__custom.csv"
    lines = path.read_text().splitlines()
    assert lines[0].startswith("lambda,")
    assert len(lines) == 4    # header + lambda in {0, 0.5, 1}
    # the pure Bell row must carry more of the bound than the factored row
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[3].split(",")]
    assert first[0] == 0.0 and last[0] == 1.0
    assert last[1] > first[1]


def test_evolve_command_matches_run_scenario(tmp_path):
    out = tmp_path / "out"
    rc = main(["evolve", "--kappa-bar", "1", "--gamma-bar", "0",
               "--mean-photons", "2", "--lambda", "0.9", "--p11", "0.6",
               "--q11", "0.5", "--bell-phase", repr(math.pi / 6),
               "--n-max", "30", "--tau-max", "0.5", "--tau-step", "0.25",
               "--label", "mix", "--out", str(out)])
    assert rc == 0

    expected_params = small_params(lam=0.9, p11=0.6)
    scenario = Scenario(name="evolve", sweep="tau", start=0.0, stop=0.5,
                        step=0.25, curves=(Curve("mix", expected_params),))
    (expected,) = write_csvs(run_scenario(scenario), tmp_path / "expected")
    assert (out / "evolve__mix.csv").read_bytes() == expected.read_bytes()


def test_unknown_scenario_name_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["scenario", "nope", "--out", str(tmp_path)])
    assert err.value.code == 2
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("flags", [("--kappa-bar", "5"),
                                   ("--config", "x.cfg")])
def test_scenario_takes_no_parameter_flags(tmp_path, capsys, flags):
    # A catalog scenario fixes its own parameters; evolve runs a custom one.
    with pytest.raises(SystemExit) as err:
        main(["scenario", "fig1a", *flags, "--out", str(tmp_path)])
    assert err.value.code == 2
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["evolve", "sweep-clb", "validate"])
def test_parameter_commands_take_no_config_file(tmp_path, monkeypatch,
                                                capsys, command):
    # The flags alone fix a run's parameters.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main([command, "--config", "x.cfg"])
    assert err.value.code == 2
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command, shown", [
    ("evolve", ["--tau-max TAU_MAX", "--tau-step TAU_STEP"]),
    ("sweep-clb", ["--lambda-start LAMBDA_START", "--lambda-stop LAMBDA_STOP",
                   "--lambda-step LAMBDA_STEP"]),
])
def test_curve_commands_name_each_grid_flag_in_help(capsys, command, shown):
    # Both commands store their grid as start, stop and step; the help still
    # names each value after its own flag.
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    usage = capsys.readouterr().out
    for text in shown:
        assert text in usage


def test_invalid_parameters_exit_1(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["evolve", "--p11", "1.5", "--out", str(out)])
    assert rc == 1
    assert "p11" in capsys.readouterr().err
    assert not out.exists()
    # kappa_bar^2 underflows to 0: the coupling is too weak, not overdamped.
    rc = main(["evolve", "--kappa-bar", "1e-200", "--tau-max", "1",
               "--tau-step", "0.5", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "kappa_bar is too small" in err and "overdamped" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ("--gamma-bar", "nan"),
    ("--mean-photons", "inf"),
    ("--kappa-bar=-inf",),
    ("--lambda", "nan"),
    ("--kappa-bar", "1e200"),
    ("--kappa-bar", "1.7e308"),
    ("--kappa-bar", "1e155", "--gamma-bar", "1e300"),
])
def test_non_finite_parameters_exit_1(tmp_path, capsys, flags):
    # A finite coupling whose squared pair frequency overflows counts as
    # non-finite too.
    out = tmp_path / "out"
    rc = main(["evolve", "--mean-photons", "2", "--n-max", "30", *flags,
               "--tau-max", "1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "must be finite" in err or "kappa_bar is too large" in err
    assert not out.exists()


def test_evolve_stops_at_tau_max(tmp_path):
    out = tmp_path / "out"
    rc = main(["evolve", "--mean-photons", "2", "--n-max", "30",
               "--tau-max", "1", "--tau-step", "0.6", "--out", str(out)])
    assert rc == 0
    lines = (out / "evolve__custom.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "0.6"]


def test_bad_grid_exits_1_without_output(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["scenario", "fig5b", "--tau-step", "0", "--out", str(out)])
    assert rc == 1
    assert "step" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["evolve", "--tau-max", "1e15", "--tau-step", "1"],
    ["sweep-clb", "--lambda-step", "1e-15"],
    ["evolve", "--tau-max", "1e300", "--tau-step", "1e-300"],
    ["evolve", "--tau-max", "1.7e308", "--tau-step", "1.7e308"],
    ["sweep-clb", "--lambda-step", "1e-300"],
])
def test_grid_too_large_exits_1_without_output(tmp_path, capsys, argv):
    # 1e15 points would take 7.11 PiB; the third grid's point count is not
    # even a finite number, and the fourth one's two points reach a time
    # whose phase E tau overflows.  The last grid's 1e300 points are a
    # finite count that no float64 array can index.
    out = tmp_path / "out"
    rc = main([*argv, "--mean-photons", "2", "--n-max", "30",
               "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    if argv == ["sweep-clb", "--lambda-step", "1e-300"]:
        assert captured.err == "error: sweep-clb: grid has too many points\n"
    assert not out.exists()


def test_later_block_phase_overflow_exits_1_without_output(tmp_path,
                                                           capsys):
    # At n_max 7679 a block holds one row, so tau = 0 is the first block
    # and the overflowing phase belongs to the step table of the second.
    out = tmp_path / "out"
    rc = main(["evolve", "--mean-photons", "2", "--n-max", "7679",
               "--tau-max", "1.7e308", "--tau-step", "1.7e308",
               "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: phase E tau is not finite: tau is nan or "
                            "too large for the pair frequencies\n")
    assert not out.exists()


def test_far_times_run_without_warnings(tmp_path, capsys):
    # Three points up to tau = 1e300: the phases stay finite and the
    # collapse envelope of the overlay flushes to zero.
    out = tmp_path / "out"
    rc = main(["evolve", "--mean-photons", "2", "--n-max", "30",
               "--tau-max", "1e300", "--tau-step", "5e299",
               "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    rows = (out / "evolve__custom.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    assert "nan" not in "".join(rows) and "inf" not in "".join(rows)


def test_overlay_overflow_at_tiny_mean_is_marked_absent(tmp_path):
    # For N = 1e-300 the revival bursts overflow at tau > 0; the overlay is
    # nan there, with no warning, even when warnings are errors.
    src = str(Path(phasedjcm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "phasedjcm.cli", "evolve",
         "--mean-photons", "1e-300", "--n-max", "30", "--tau-max", "0.5",
         "--tau-step", "0.25", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    text = (tmp_path / "evolve__custom.csv").read_text()
    assert "inf" not in text
    overlay = [line.split(",")[-1] for line in text.splitlines()[1:]]
    assert overlay == ["0.5", "nan", "nan"]


@pytest.mark.parametrize("flags", [
    ("--lambda-stop", "1.5"),
    ("--lambda-start=-0.5",),
])
def test_lambda_sweep_outside_unit_interval_exits_1(tmp_path, capsys, flags):
    out = tmp_path / "out"
    rc = main(["sweep-clb", "--mean-photons", "2", "--n-max", "30", *flags,
               "--lambda-step", "0.25", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "lambda must lie in [0, 1]" in err
    assert not out.exists()


def test_lambda_sweep_outside_unit_interval_fails_before_any_work(
        tmp_path, capsys):
    # 1.5 million weights: the ends are checked before the first block and
    # before the result columns are allocated.
    out = tmp_path / "out"
    start = time.perf_counter()
    rc = main(["sweep-clb", "--mean-photons", "2", "--lambda-stop", "1.5",
               "--lambda-step", "1e-6", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "lambda must lie in [0, 1]" in err
    assert elapsed < 0.1
    assert not out.exists()


def test_lambda_sweep_ends_at_its_stop_when_round_off_overshoots(tmp_path):
    # 0.09 + 0.07 * 13 is 1.0000000000000002 in floating point.
    out = tmp_path / "out"
    rc = main(["sweep-clb", "--lambda-start", "0.09", "--lambda-step",
               "0.07", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep-clb__custom.csv").read_text().splitlines()
    assert len(lines) == 15 and lines[-1].startswith("1,")


@pytest.mark.parametrize("command", [
    ["evolve", "--tau-max", "0.1"],
    ["sweep-clb", "--lambda-step", "0.5"],
])
def test_label_with_a_path_separator_exits_1_without_output(tmp_path, capsys,
                                                            command):
    out = tmp_path / "out"
    (out / f"{command[0]}__x").mkdir(parents=True)
    rc = main([*command, "--out", str(out), "--label", "x/../../escaped"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "path separator" in err
    left = sorted(p.relative_to(tmp_path).as_posix()
                  for p in tmp_path.rglob("*"))
    assert left == ["out", f"out/{command[0]}__x"]


def test_sweep_clb_takes_no_fixed_lambda(tmp_path, capsys):
    # The swept grid replaces the mixture weight, so the flag does not exist.
    with pytest.raises(SystemExit) as err:
        main(["sweep-clb", "--lambda", "0.5", "--out", str(tmp_path)])
    assert err.value.code == 2
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("flag", ["--nu-max=3", "--no-clb-include-n0"])
def test_run_commands_have_no_overlay_or_projection_flags(tmp_path, flag):
    # The catalog and every documented run use the defaults only.
    with pytest.raises(SystemExit) as err:
        main(["evolve", flag, "--out", str(tmp_path)])
    assert err.value.code == 2


def test_tau_override_rejected_for_lambda_sweeps(tmp_path, capsys):
    rc = main(["scenario", "fig1a", "--tau-max", "5", "--out", str(tmp_path)])
    assert rc == 1
    assert "lambda" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_validate_command_passes_quickly(capsys):
    rc = main(["validate", "--mean-photons", "2", "--n-max", "25",
               "--lambda", "0.9", "--gamma-bar", "0.01",
               "--tau-max", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert out.count("tau =") == 2
    assert "(2 states compared)" in out


def test_validate_output_lines_match_the_bench_parser(capsys):
    # perfbench/checks.py reads a validate run through these two patterns.
    rc = main(["validate", "--mean-photons", "5", "--n-max", "30",
               "--tau-max", "2.5", "--lambda", "0.4", "--gamma-bar", "0.05"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    for line in lines:
        assert (re.match(r"^tau = \S+: max \|diff\| = (\S+)", line)
                or re.match(r"^OK: max deviation (\S+) < tolerance", line))


def test_validate_compares_at_a_fractional_tau_max(capsys):
    rc = main(["validate", "--mean-photons", "2", "--n-max", "25",
               "--tau-max", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("tau =") == 1 and "tau = 0.5:" in out
    assert "(1 state compared)" in out


@pytest.mark.parametrize("tau_max, message", [
    ("0", "0 states compared"),
    ("-0.5", "0 states compared"),
    ("inf", "finite"),
    ("nan", "finite"),
])
def test_validate_without_checkpoints_fails(capsys, tau_max, message):
    rc = main(["validate", "--mean-photons", "2", "--n-max", "25",
               "--tau-max", tau_max])
    assert rc == 1
    captured = capsys.readouterr()
    assert "OK" not in captured.out
    assert message in captured.err


def test_validate_has_no_step_flag(capsys):
    # The oracle is exact: there is no step size to choose.
    with pytest.raises(SystemExit) as err:
        main(["validate", "--dt", "1e-3"])
    assert err.value.code == 2


def test_validate_rejects_an_over_budget_path(capsys):
    rc = main(["validate", "--kappa-bar", "1e6", "--mean-photons", "5",
               "--n-max", "30"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "substeps" in captured.err


def test_validate_rejects_more_checkpoints_than_substeps(capsys):
    # Refused before the list of 1e9 checkpoints is built.
    rc = main(["validate", "--mean-photons", "2", "--n-max", "25",
               "--tau-max", "1e9"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "checkpoints" in captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_validate_rejects_a_tolerance_that_is_not_positive_and_finite(capsys,
                                                                       tol):
    # A nan or infinite tolerance would let any deviation print OK.
    rc = main(["validate", "--mean-photons", "2", "--n-max", "20",
               "--tau-max", "1", "--tol", tol])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--tol" in captured.err


def test_validate_command_fails_on_tight_tolerance(capsys):
    rc = main(["validate", "--mean-photons", "2", "--n-max", "25",
               "--tau-max", "1", "--tol", "1e-300"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().err


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in CATALOG:
        assert name in out
    # evolve runs a single custom curve; there is no custom scenario.
    assert "custom" not in out


def test_repeated_calls_in_one_process_match_fresh_calls(tmp_path, capsys):
    """main() keeps one parser per process; a run, an argparse error and a
    validate run give what a fresh interpreter gives, in any order."""
    out = str(tmp_path / "out")
    calls = [
        ["scenario", "fig2a", "--tau-max", "0.5", "--out", out],
        ["scenario", "fig2a", "--kappa-bar", "5", "--out", out],
        ["validate", "--mean-photons", "2", "--n-max", "25", "--tau-max",
         "1.5"],
    ]
    src = str(Path(phasedjcm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    def csv_bytes():
        return {p.name: p.read_bytes() for p in Path(out).glob("*.csv")}

    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "phasedjcm.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        fresh.append((proc.returncode, proc.stdout, proc.stderr,
                      csv_bytes()))
    assert [want[0] for want in fresh] == [0, 2, 0]
    for argv, want in zip(calls + calls, fresh + fresh):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        assert (code, got.out, got.err, csv_bytes()) == want, argv


def test_package_imports_no_scipy():
    src = str(Path(phasedjcm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    # The library alone must not pull in the command line either.
    code = ("import sys, phasedjcm; print('phasedjcm.cli' in sys.modules); "
            "import phasedjcm.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "[]"]


def test_module_entry_point_runs_without_warnings():
    src = str(Path(phasedjcm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "phasedjcm.cli", "list"],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "fig1a" in proc.stdout


def test_package_modules_use_every_import():
    """Every name a package module imports is used in it; a name listed in
    ``__all__`` counts as used, and ``from __future__`` imports are not
    names."""
    unused = []
    for path in sorted(Path(phasedjcm.__file__).parent.glob("*.py")):
        imported, used = {}, set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name.split(".")[0],
                                 node.lineno) for alias in node.names)
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported.update((alias.asname or alias.name, node.lineno)
                                for alias in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_cli_imports_no_private_name_of_the_runner_or_the_oracle():
    """The command line runs on the public API of ``runner`` and
    ``lindblad``: it imports no underscore-prefixed name from either."""
    path = Path(phasedjcm.__file__).parent / "cli.py"
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.ImportFrom)
               and node.module in ("runner", "lindblad")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_runner_imports_no_block_format_helper_of_the_model():
    """The block format of the initial state is known to ``model`` alone:
    the runner takes its lambda blocks from ``model._lambda_blocks`` and
    imports none of the helpers that write or split the levels."""
    path = Path(phasedjcm.__file__).parent / "runner.py"
    helpers = {"_abs_sq", "_initial_arrays", "_levels", "_poisson_weights",
               "_split_levels"}
    imported = [alias.name
                for node in ast.walk(ast.parse(path.read_text(), str(path)))
                if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name in helpers]
    assert imported == []


def test_readme_names_only_attributes_that_exist():
    """Every backticked ``module.name`` in README.md, with ``module`` one of
    the package's modules, names an attribute of ``phasedjcm.<module>``."""
    package = Path(phasedjcm.__file__).parent
    modules = sorted(path.stem for path in package.glob("*.py")
                     if path.stem != "__init__")
    readme = (package.parents[1] / "README.md").read_text()
    named = re.findall(rf"`({'|'.join(modules)})\.(\w+)", readme)
    assert named
    missing = [f"{module}.{name}" for module, name in named
               if not hasattr(importlib.import_module(f"phasedjcm.{module}"),
                              name)]
    assert missing == []


def test_package_private_names_are_all_used():
    """Every module-level private function, class and constant of a package
    module is referenced somewhere in the package outside its own
    definition: a load of the name, an attribute of that name or an import
    of it counts."""
    defined, used = {}, set()
    for path in sorted(Path(phasedjcm.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            else:
                names = {child.id for child in ast.walk(node)
                         if isinstance(child, ast.Name)
                         and isinstance(child.ctx, ast.Store)}
            names = {name for name in names
                     if name.startswith("_") and not name.startswith("__")}
            defined.update((name, f"{path.name}:{node.lineno}")
                           for name in names)
            for child in ast.walk(node):
                if isinstance(child, ast.Name) and isinstance(child.ctx,
                                                             ast.Load):
                    ref = child.id
                elif isinstance(child, ast.Attribute):
                    ref = child.attr
                elif isinstance(child, ast.alias):
                    ref = child.name
                else:
                    continue
                if ref not in names:
                    used.add(ref)
    assert sorted(f"{where}: {name}" for name, where in defined.items()
                  if name not in used) == []


def test_public_surface_is_pinned():
    """The package exports these 21 names, and each module defines these
    public top-level functions and classes: a name added or removed shows
    up here."""
    assert sorted(phasedjcm.__all__) == [
        "BlockState", "CATALOG", "COLUMNS", "ComparisonReport", "Curve",
        "EntropyReport", "ModelParams", "ParameterError", "Scenario",
        "TimeSeries", "asymptotic_state", "build_initial_state",
        "compare_states", "dense_from_block", "entropy_report",
        "integrate_path", "params_from_mapping", "poisson_sum_inversion",
        "propagate", "run_scenario", "write_csvs"]
    public = {
        path.stem: {node.name
                    for node in ast.parse(path.read_text(), str(path)).body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")}
        for path in Path(phasedjcm.__file__).parent.glob("*.py")}
    assert public == {
        "__init__": set(),
        "cli": {"main"},
        "evolution": {"asymptotic_state", "propagate"},
        "lindblad": {"ComparisonReport", "basis_index", "compare_states",
                     "dense_from_block", "dephasing_signs", "hamiltonian",
                     "integrate_path", "space_dim"},
        "model": {"BlockState", "ModelParams", "ParameterError",
                  "build_initial_state", "default_n_max",
                  "params_from_mapping", "poisson_pmf", "rabi_frequency"},
        "observables": {"EntropyReport", "entropy_report",
                        "poisson_sum_inversion", "revival_times"},
        "runner": {"Curve", "Scenario", "TimeSeries", "run_scenario",
                   "write_csvs"},
    }


def test_every_export_is_run_or_documented():
    """Each name in ``phasedjcm.__all__`` is imported by ``cli.py`` or
    appears in README.md as a backticked identifier, bare or after a
    module path and followed by anything but more of a name: an export
    that no run uses and no reader is told of belongs in its module only."""
    package = Path(phasedjcm.__file__).parent
    cli = package / "cli.py"
    imported = {alias.name
                for node in ast.walk(ast.parse(cli.read_text(), str(cli)))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    spans = re.findall(r"`([^`\n]+)`",
                       (package.parents[1] / "README.md").read_text())
    documented = {name for name in phasedjcm.__all__
                  if any(re.match(rf"(?:\w+\.)*{name}\b", span)
                         for span in spans)}
    assert sorted(set(phasedjcm.__all__) - imported - documented) == []
