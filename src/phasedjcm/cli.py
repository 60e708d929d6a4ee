"""Command line: run catalog scenarios and custom curves, write CSV files,
and check the closed form against the exact master-equation oracle.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

import numpy as np

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
)
from .runner import CATALOG, Curve, Scenario, run_scenario, write_csvs


def _add_param_flags(parser: argparse.ArgumentParser,
                     lam: bool = True) -> None:
    for _, key, default in _PARAMS:
        if lam or key != "lambda":
            parser.add_argument("--" + key.replace("_", "-"), type=float,
                                help=f"default {default:g}")
    parser.add_argument("--n-max", type=int)


def _params_from_args(args) -> ModelParams:
    # Only the flags actually given, so the default Fock cutoff tracks
    # mean_photons unless --n-max was set.
    keys = [key for _, key, _ in _PARAMS] + ["n_max"]
    return params_from_mapping({key: getattr(args, key) for key in keys
                                if getattr(args, key, None) is not None})


def _run_and_write(scenario: Scenario, args) -> int:
    """Write the scenario's CSVs into --out, all or none, and print their
    paths."""
    for path in write_csvs(run_scenario(scenario), args.out):
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


def _cmd_curve(args) -> int:
    """Run the one curve of an evolve or sweep-clb run.  Its label names a
    file inside --out, so it may hold no path separator."""
    if any(sep and sep in args.label for sep in (os.sep, os.altsep)):
        raise ValueError(f"--label {args.label!r} must not contain a path "
                         "separator")
    scenario = Scenario(name=args.command, sweep=args.sweep, start=args.start,
                        stop=args.stop, step=args.step,
                        curves=(Curve(args.label, _params_from_args(args)),))
    return _run_and_write(scenario, args)


def _cmd_validate(args) -> int:
    if not 0.0 < args.tol < math.inf:
        raise ValueError("--tol must be positive and finite")
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
    # Each checkpoint is compared as the path reaches it, and then dropped.
    dense_path = integrate_path(dense_from_block(initial), params, taus)
    worst = 0.0
    for tau, dense in zip(taus, dense_path):
        report = compare_states(dense, propagate(initial, params, tau))
        # np.maximum keeps a nan deviation, which must not pass.
        worst = np.maximum(worst, report.max_abs)
        print(f"tau = {tau:g}: {report}")
    compared = f"{len(taus)} state{'s' if len(taus) != 1 else ''} compared"
    if not worst < args.tol:
        print(f"FAIL: max deviation {worst:.3e} >= tolerance {args.tol:.1e} "
              f"({compared})", file=sys.stderr)
        return 1
    print(f"OK: max deviation {worst:.3e} < tolerance {args.tol:.1e} "
          f"({compared})")
    return 0


def _cmd_list(args) -> int:
    for name, scenario in CATALOG.items():
        print(f"{name}: {scenario.description}")
        print(f"  {scenario.sweep} grid [{scenario.start:g}, {scenario.stop:g}] "
              f"step {scenario.step:g}; shows {', '.join(scenario.shows)}")
        print(f"  curves: {', '.join(c.label for c in scenario.curves)}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="phasedjcm",
        description="Phase-damped Jaynes-Cummings runs with Bell-mixture "
                    "initial states; every command writes deterministic CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scenario", help="run a catalog scenario")
    sc.add_argument("name", choices=tuple(CATALOG))
    sc.add_argument("--out", default="out", help="output directory")
    sc.add_argument("--tau-max", type=float, dest="tau_max")
    sc.add_argument("--tau-step", type=float, dest="tau_step")
    sc.set_defaults(func=_cmd_scenario)

    ev = sub.add_parser("evolve", help="run one custom curve over tau")
    _add_param_flags(ev)
    ev.add_argument("--out", default="out", help="output directory")
    ev.add_argument("--tau-max", type=float, default=30.0, dest="stop",
                    metavar="TAU_MAX")
    ev.add_argument("--tau-step", type=float, default=0.05, dest="step",
                    metavar="TAU_STEP")
    ev.add_argument("--label", default="custom")
    ev.set_defaults(func=_cmd_curve, sweep="tau", start=0.0)

    sw = sub.add_parser("sweep-clb",
                        help="scan the initial state over lambda")
    _add_param_flags(sw, lam=False)
    sw.add_argument("--out", default="out", help="output directory")
    sw.add_argument("--lambda-start", type=float, default=0.0,
                    dest="start", metavar="LAMBDA_START")
    sw.add_argument("--lambda-stop", type=float, default=1.0, dest="stop",
                    metavar="LAMBDA_STOP")
    sw.add_argument("--lambda-step", type=float, default=0.01, dest="step",
                    metavar="LAMBDA_STEP")
    sw.add_argument("--label", default="custom")
    sw.set_defaults(func=_cmd_curve, sweep="lambda")

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
    args = _build_parser().parse_args(argv)
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
