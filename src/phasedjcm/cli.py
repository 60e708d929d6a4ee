"""Command line: run catalog scenarios and custom curves, write CSV files,
and check the closed form against the exact master-equation oracle.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .evolution import propagate
from .lindblad import (
    MAX_SUBSTEPS,
    compare_states,
    dense_from_block,
    integrate_path,
)
from .model import (
    _PARAMS,
    ModelParams,
    ParameterError,
    build_initial_state,
    params_from_mapping,
    read_config,
)
from .runner import CATALOG, Curve, Scenario, emit_csv, run_scenario


def _add_param_flags(parser: argparse.ArgumentParser,
                     lam: bool = True) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="key=value parameter file (keys are the "
                        "ModelParams fields; the mixture weight is 'lambda')")
    for _, key, default in _PARAMS:
        if lam or key != "lambda":
            parser.add_argument("--" + key.replace("_", "-"), type=float,
                                help=f"default {default:g}")
    parser.add_argument("--n-max", type=int)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="out", help="output directory")


def _params_from_args(args) -> ModelParams:
    # Flags overlay the config file as raw values; the default Fock cutoff
    # then tracks whatever mean_photons ends up being, unless n_max was set
    # explicitly in either place.
    mapping = read_config(args.config) if args.config else {}
    for key in [key for _, key, _ in _PARAMS] + ["n_max"]:
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = value
    return params_from_mapping(mapping)


def _run_and_write(scenario: Scenario, args) -> int:
    all_series = run_scenario(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for series in all_series:
        path = out / f"{series.scenario}__{series.label}.csv"
        emit_csv(series, path)
        print(path)
    return 0


def _cmd_scenario(args) -> int:
    scenario = CATALOG[args.name]
    if args.tau_max is not None or args.tau_step is not None:
        if scenario.sweep != "tau":
            raise ValueError(f"{scenario.name} sweeps lambda, not tau")
        scenario = replace(
            scenario,
            stop=args.tau_max if args.tau_max is not None else scenario.stop,
            step=args.tau_step if args.tau_step is not None else scenario.step,
        )
    return _run_and_write(scenario, args)


def _cmd_evolve(args) -> int:
    params = _params_from_args(args)
    scenario = Scenario(
        name="evolve", sweep="tau", start=0.0, stop=args.tau_max,
        step=args.tau_step, curves=(Curve(args.label, params),),
    )
    return _run_and_write(scenario, args)


def _cmd_sweep_clb(args) -> int:
    # The swept grid replaces the mixture weight, so a fixed one is an
    # error rather than silently ignored.
    if args.config and "lambda" in read_config(args.config):
        raise ParameterError(f"{args.config}: sweep-clb sweeps lambda; "
                             "set --lambda-start/--lambda-stop instead")
    params = _params_from_args(args)
    scenario = Scenario(
        name="sweep-clb", sweep="lambda", start=args.lambda_start,
        stop=args.lambda_stop, step=args.lambda_step,
        curves=(Curve(args.label, params),),
    )
    return _run_and_write(scenario, args)


def _cmd_validate(args) -> int:
    params = _params_from_args(args)
    if not math.isfinite(args.tau_max):
        raise ValueError("--tau-max must be finite")
    # Each checkpoint takes at least one substep of the exponential.
    if args.tau_max > MAX_SUBSTEPS:
        raise ValueError(f"--tau-max {args.tau_max:g} asks for more than "
                         f"{MAX_SUBSTEPS} checkpoints, the substep limit of "
                         "one path")
    # Whole times up to tau_max, and tau_max itself when it is not whole.
    last = math.floor(args.tau_max)
    taus = [float(t) for t in range(1, last + 1)]
    if last >= 0 and args.tau_max > last:
        taus.append(args.tau_max)
    if not taus:
        print("FAIL: 0 states compared; --tau-max must be positive",
              file=sys.stderr)
        return 1
    initial = build_initial_state(params)
    dense_path = integrate_path(dense_from_block(initial), params, taus)
    worst = 0.0
    for tau, dense in zip(taus, dense_path):
        report = compare_states(dense, propagate(initial, params, tau))
        worst = max(worst, report.max_abs)
        print(f"tau = {tau:g}: {report}")
    compared = f"{len(taus)} state{'s' if len(taus) != 1 else ''} compared"
    if worst >= args.tol:
        print(f"FAIL: max deviation {worst:.3e} >= tolerance {args.tol:.1e} "
              f"({compared})", file=sys.stderr)
        return 1
    print(f"OK: max deviation {worst:.3e} < tolerance {args.tol:.1e} "
          f"({compared})")
    return 0


def _cmd_list(args) -> int:
    for name, scenario in CATALOG.items():
        axis = "tau" if scenario.sweep == "tau" else "lambda"
        print(f"{name}: {scenario.description}")
        print(f"  {axis} grid [{scenario.start:g}, {scenario.stop:g}] "
              f"step {scenario.step:g}; shows {', '.join(scenario.shows)}")
        print(f"  curves: {', '.join(c.label for c in scenario.curves)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasedjcm",
        description="Phase-damped Jaynes-Cummings runs with Bell-mixture "
                    "initial states; every command writes deterministic CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scenario", help="run a catalog scenario")
    sc.add_argument("name", choices=tuple(CATALOG))
    _add_run_flags(sc)
    sc.add_argument("--tau-max", type=float, dest="tau_max")
    sc.add_argument("--tau-step", type=float, dest="tau_step")
    sc.set_defaults(func=_cmd_scenario)

    ev = sub.add_parser("evolve", help="run one custom curve over tau")
    _add_param_flags(ev)
    _add_run_flags(ev)
    ev.add_argument("--tau-max", type=float, default=30.0)
    ev.add_argument("--tau-step", type=float, default=0.05)
    ev.add_argument("--label", default="custom")
    ev.set_defaults(func=_cmd_evolve)

    sw = sub.add_parser("sweep-clb",
                        help="scan the initial state over lambda")
    _add_param_flags(sw, lam=False)
    _add_run_flags(sw)
    sw.add_argument("--lambda-start", type=float, default=0.0)
    sw.add_argument("--lambda-stop", type=float, default=1.0)
    sw.add_argument("--lambda-step", type=float, default=0.01)
    sw.add_argument("--label", default="custom")
    sw.set_defaults(func=_cmd_sweep_clb)

    va = sub.add_parser("validate",
                        help="evolve the master equation directly and "
                             "compare against the closed form")
    _add_param_flags(va)
    va.add_argument("--tau-max", type=float, default=5.0)
    va.add_argument("--tol", type=float, default=1e-8)
    va.set_defaults(func=_cmd_validate)

    li = sub.add_parser("list", help="describe the scenario catalog")
    li.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
