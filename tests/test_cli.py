"""Scenario catalog, CSV emission, and command-line behavior."""

import math
import os
import subprocess
import sys
import time
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
    Scenario,
    emit_csv,
    run_scenario,
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
    series = run_scenario(tiny_scenario())
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
    series = run_scenario(tiny_scenario())[0]
    path = tmp_path / "tiny__undamped.csv"
    emit_csv(series, path)
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


def test_emit_csv_is_deterministic(tmp_path):
    paths = []
    for run in range(2):
        series = run_scenario(tiny_scenario())
        path = tmp_path / f"run{run}.csv"
        emit_csv(series[1], path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


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


def test_evolve_command_with_config_and_flag_override(tmp_path):
    config = tmp_path / "params.cfg"
    config.write_text(
        "mean_photons = 2\n"
        "lambda = 0.3     # overridden on the command line\n"
        "p11 = 0.6\n"
        "n_max = 30\n"
    )
    out = tmp_path / "out"
    rc = main(["evolve", "--config", str(config), "--lambda", "0.9",
               "--tau-max", "0.5", "--tau-step", "0.25",
               "--label", "mix", "--out", str(out)])
    assert rc == 0

    expected_params = small_params(lam=0.9, p11=0.6)
    scenario = Scenario(name="evolve", sweep="tau", start=0.0, stop=0.5,
                        step=0.25, curves=(Curve("mix", expected_params),))
    expected = tmp_path / "expected.csv"
    emit_csv(run_scenario(scenario)[0], expected)
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


def test_invalid_parameters_exit_1(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["evolve", "--p11", "1.5", "--out", str(out)])
    assert rc == 1
    assert "p11" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ("--gamma-bar", "nan"),
    ("--mean-photons", "inf"),
    ("--kappa-bar=-inf",),
    ("--lambda", "nan"),
    ("--kappa-bar", "1e200"),
    ("--kappa-bar", "1.7e308"),
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
])
def test_grid_too_large_exits_1_without_output(tmp_path, capsys, argv):
    # 1e15 points would take 7.11 PiB; the third grid's point count is not
    # even a finite number, and the last one's two points reach a time
    # whose phase E tau overflows.
    out = tmp_path / "out"
    rc = main([*argv, "--mean-photons", "2", "--n-max", "30",
               "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
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


def test_sweep_clb_takes_no_fixed_lambda(tmp_path, capsys):
    # The swept grid replaces the mixture weight: the flag does not exist
    # and a config file that sets it is refused.
    with pytest.raises(SystemExit) as err:
        main(["sweep-clb", "--lambda", "0.5", "--out", str(tmp_path)])
    assert err.value.code == 2
    capsys.readouterr()
    config = tmp_path / "params.cfg"
    config.write_text("mean_photons = 2\nlambda = 0.5\n")
    out = tmp_path / "out"
    rc = main(["sweep-clb", "--config", str(config), "--n-max", "30",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "sweeps lambda" in err
    assert not out.exists()


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


def test_unknown_config_key_exits_1(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("coupling = 3\n")
    rc = main(["evolve", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 1
    assert "coupling" in capsys.readouterr().err


def test_validate_command_passes_quickly(capsys):
    rc = main(["validate", "--mean-photons", "2", "--n-max", "25",
               "--lambda", "0.9", "--gamma-bar", "0.01",
               "--tau-max", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert out.count("tau =") == 2
    assert "(2 states compared)" in out


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


def test_package_imports_no_scipy():
    src = str(Path(phasedjcm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, phasedjcm, phasedjcm.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
