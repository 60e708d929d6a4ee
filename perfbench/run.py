"""Benchmark of the phasedjcm command line.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout; it runs the package from
``src/`` there.  Every measurement happens in fresh child interpreters that
drive ``phasedjcm.cli.main(argv)`` as a command-line user would (see
worker.py); the workloads are described in workloads.py.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` is the
median over several fresh interpreters of the time until the package is
imported and the inputs are built; the rest come from one closed-loop run.
With ``--trace 1`` it reports the per-layer metrics of a traced run (see
tracing.py) and the import time of each module from ``-X importtime``.

A run record (machine, versions, commit, seed, calibration kernel, sample
counts) is written to ``.bench_out/`` and printed as the line before the
result.  The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Fresh interpreters timed for set-up in one run, the measured one included.
# Half of the others start before the measured run and half after it, so
# that set-up is sampled across the run, not in one state of the host.
SETUP_PROBES = 5
# Runs of -X importtime whose median gives each module's import time.
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """A child process failed; the run has no result."""


def _child_env() -> dict:
    """The children run the package from src/ with one BLAS thread, so
    that every run is one process with one busy thread."""
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _finish(proc: subprocess.Popen, what: str) -> str:
    """Wait for a child, killing it past the time limit; returns stdout."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what} exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with code {proc.returncode}")
    return out


def start_worker(args, extra=()) -> tuple:
    """Start worker.py; returns the process and its seconds until READY."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), text=True,
                            stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "READY":
        _finish(proc, "worker set-up")
        raise BenchError("worker did not finish set-up")
    return proc, ready_s


def run_worker(args) -> tuple:
    proc, ready_s = start_worker(args)
    lines = _finish(proc, "worker").strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1]), ready_s


def setup_probe(args) -> float:
    proc, ready_s = start_worker(args, ("--setup-only",))
    _finish(proc, "set-up probe")
    return ready_s


def import_times() -> tuple:
    """Median cumulative import seconds of each package module."""
    from tracing import MODULES, parse_importtime

    names = ["phasedjcm"] + [f"phasedjcm.{mod}" for mod in MODULES]
    samples = {name: [] for name in names}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import phasedjcm, phasedjcm.cli"],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError("importing phasedjcm failed:\n" + proc.stderr[-2000:])
        cumulative = parse_importtime(proc.stderr)
        for name in names:
            samples[name].append(cumulative.get(name, 0.0))
    metrics = {}
    for name in names:
        short = name.split(".", 1)[1] if "." in name else name
        metrics[f"{short}.import_s"] = {"value": statistics.median(samples[name]),
                                        "unit": "s"}
    absent = [name for name in names if not any(samples[name])]
    return metrics, absent


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="ascii", errors="replace").strip()
    except OSError:
        return ""


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[len("ref: "):]
    commit = _read(ROOT / ".git" / ref)
    if commit:
        return commit
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine() -> dict:
    model = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level:
            caches[f"L{level} {kind}"] = _read(index / "size")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "caches": caches,
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "phasedjcm" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'phasedjcm'}; run from "
              "the root of a phasedjcm checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "commit": git_commit(), "machine": machine(),
              "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    try:
        if args.trace:
            metrics, absent_modules = import_times()
            result, _ = run_worker(args)
            metrics.update(result.pop("metrics"))
            result["trace"]["absent"] += absent_modules
        else:
            before = (SETUP_PROBES - 1) // 2
            setup = [setup_probe(args) for _ in range(before)]
            result, ready_s = run_worker(args)
            setup.append(ready_s)
            setup += [setup_probe(args)
                      for _ in range(SETUP_PROBES - 1 - before)]
            metrics = {"setup_s": {"value": statistics.median(setup),
                                   "unit": "s"}}
            metrics.update(result.pop("metrics"))
            result["samples"]["setup_s"] = setup
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record.update(result)
    record["metrics"] = metrics
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
