"""One workload run in a fresh interpreter, driven through the CLI entry.

Started by run.py with the package's source directory on PYTHONPATH.  It
imports the package, builds the workload's inputs and prints READY, so the
parent can time set-up as a command-line user pays it.  Unless asked only
for set-up, it then runs whole passes in a closed loop until the run time
is spent, checks every output outside the timed calls, and prints one JSON
object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import resource
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np
import phasedjcm
import phasedjcm.cli

import checks
import tracing
from workloads import ORACLE_TOL, WORKLOADS, load_reference, passes

# A run keeps going past its time until this many curves were measured, so
# that at least ten curves lie beyond the tail percentile in every run.  The
# percentile is fixed, not picked from each run's count, so that runs of
# different length report the same statistic.
MIN_CURVES = 200
TAIL_PERCENTILE = 95.0


def weighted_percentile(samples, p: float) -> float:
    """Smallest value at or below which ``p`` percent of the weight lies.

    ``samples`` are (value, weight) pairs.
    """
    samples = sorted(samples)
    target = p / 100.0 * sum(weight for _, weight in samples)
    seen = 0.0
    for value, weight in samples:
        seen += weight
        if seen >= target:
            return value
    return samples[-1][0]


def calibrate() -> float:
    """Median time of a fixed numpy kernel, to follow the host's speed.

    Elementwise work only, so no BLAS threads take part.
    """
    x = np.linspace(0.0, 1.0, 100_000)
    times = []
    for _ in range(15):
        t0 = perf_counter()
        for _ in range(5):
            float(np.sum(np.tanh(x) * np.cos(x)))
        times.append(perf_counter() - t0)
    return sorted(times)[len(times) // 2]


class Runner:
    """Makes the calls of a workload, times them and checks their output."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.curves = []        # (seconds, rows) of every curve
        self.rows = 0
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.call_s = []

    def call(self, call) -> None:
        """Run one call, time it, then check its output untimed."""
        stdout = io.StringIO()
        stderr = io.StringIO()
        exit_code = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = perf_counter()
            try:
                exit_code = phasedjcm.cli.main(list(call.argv))
            except SystemExit as exc:
                exit_code = exc.code
            except Exception:  # a crash fails this curve, not the run
                exit_code = traceback.format_exc(limit=3)
            elapsed = perf_counter() - t0
        self.busy_s += elapsed
        self.call_s.append((call.argv[1] if call.argv[0] == "scenario"
                            else call.argv[0], elapsed))
        for rows in call.curve_rows:
            self.curves.append((elapsed / len(call.curve_rows), rows))
            self.rows += rows
        self.attempted += len(call.curve_rows)
        self._check(call, exit_code, stdout.getvalue(), stderr.getvalue())

    def _check(self, call, exit_code, stdout, stderr):
        if call.checkpoints:
            problems = checks.check_validate(exit_code, stdout,
                                             call.checkpoints, ORACLE_TOL)
            self._record(call.argv, problems, stderr)
            return
        for name, entry in call.outputs:
            problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
            problems += checks.check_csv(self.out_dir / name, entry)
            self._record((*call.argv, name), problems, stderr)

    def _record(self, what, problems, stderr):
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append({"call": list(what),
                                      "problems": problems[:5],
                                      "stderr": stderr[-2000:]})

    def run_passes(self, source, seconds: float, min_curves: int,
                   whole_passes: bool = True) -> list:
        """Passes until both the time and the curve count are reached, or
        until ``source`` ends; returns the whole passes made.

        Unless ``whole_passes``, the run stops after the call that reaches
        them, so a slow host does not lengthen it by most of a pass.
        """
        done = []
        start = perf_counter()

        def reached() -> bool:
            return (perf_counter() - start >= seconds
                    and len(self.curves) >= min_curves)

        for calls in source:
            for call in calls:
                self.call(call)
                if not whole_passes and reached():
                    return done
            done.append(calls)
            if reached():
                break
        return done


def end_to_end(runner: Runner) -> dict:
    """The end-to-end metrics of an untraced run.

    The tail counts every curve once.  On a shared host whose speed switches
    between two states for seconds to minutes, a high percentile lies in the
    slow state whenever a run holds some of it, while the median and the row
    rate move with the share of the run spent in each state; those two go
    into the run record only (see NOTES.md).  The median there weighs each
    curve by its output rows, so on ``catalog`` it lies inside the long
    curves rather than between the groups of short and long ones.
    """
    tail = weighted_percentile([(t, 1) for t, _ in runner.curves],
                               TAIL_PERCENTILE)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "curve_s.tail": {"value": tail, "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "ok_frac": {"value": 1.0 - runner.failed / runner.attempted,
                    "unit": "frac"},
    }
    samples = {"curves": len(runner.curves),
               "tail_percentile": TAIL_PERCENTILE,
               "curves_beyond_tail": sum(t > tail for t, _ in runner.curves),
               "rows": runner.rows, "busy_s": runner.busy_s}
    recorded = {
        "points_per_s": {"value": runner.rows / runner.busy_s, "unit": "1/s"},
        "curve_s.p50": {"value": weighted_percentile(runner.curves, 50.0),
                        "unit": "s"},
    }
    return {"metrics": metrics, "recorded_metrics": recorded,
            "samples": samples}


def traced_run(runner: Runner, source, seconds: float, spans_path) -> dict:
    """Untraced passes for half the time, then the same passes traced."""
    done = runner.run_passes(source, seconds / 2.0, 1)
    untraced_s = runner.busy_s
    tracer = tracing.Tracer()
    tracer.install()
    runner.busy_s = 0.0
    runner.run_passes(done, math.inf, 0)
    traced_s = runner.busy_s
    tracer.write_spans(spans_path)
    summary = tracer.summary(len(done), traced_s)
    summary["metrics"]["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return {"metrics": {name: {"value": value, "unit": tracing.UNITS[name]}
                        for name, value in summary.pop("metrics").items()},
            "trace": {"passes": len(done), "untraced_s": untraced_s,
                      "traced_s": traced_s, **summary}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    out_dir = Path(args.out) / args.workload
    reference = load_reference(args.workload)
    source = passes(args.workload, args.seed, str(out_dir), reference)
    # Building the first pass's inputs belongs to set-up.
    source = itertools.chain([next(source)], source)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    out_dir.mkdir(parents=True, exist_ok=True)
    calibration_before = calibrate()
    runner = Runner(out_dir)
    if args.trace:
        spans = Path(args.out) / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        result = traced_run(runner, source, args.seconds, spans)
    else:
        runner.run_passes(source, args.seconds, MIN_CURVES,
                          whole_passes=False)
        result = end_to_end(runner)
    result.update(
        attempted=runner.attempted, failed=runner.failed,
        problems=runner.problems, call_s=runner.call_s,
        calibration_s={"before": calibration_before, "after": calibrate()},
        versions={"python": sys.version.split()[0],
                  "numpy": metadata.version("numpy"),
                  "scipy": metadata.version("scipy"),
                  "phasedjcm": getattr(phasedjcm, "__version__", "unknown")})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
