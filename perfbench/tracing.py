"""Spans around the public functions of each phasedjcm module.

The tracer wraps functions from outside the package: it replaces each
listed name in every ``phasedjcm.*`` namespace that binds it, so calls are
caught wherever the function lives and whichever module calls it.  A name
that no module defines is reported as absent.  Spans (name, start, end,
parent) are kept in memory and written out when the run ends; a span's
self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import types
from array import array
from time import perf_counter

import numpy as np

# (layer key used in metric names, function name looked up in the package)
TARGETS = (
    ("cli.main", "main"),
    ("cli.run_scenario", "run_scenario"),
    ("cli.emit_csv", "emit_csv"),
    ("model.validate_params", "validate_params"),
    ("model.build_initial_state", "build_initial_state"),
    ("model.poisson_pmf", "poisson_pmf"),
    ("model.poisson_tail", "poisson_tail"),
    ("evolution.propagate", "propagate"),
    ("evolution.spectral_decompose", "spectral_decompose"),
    ("observables.entropy_report", "entropy_report"),
    ("entanglement.concurrence_lower_bound", "concurrence_lower_bound"),
    ("revival.revival_series", "revival_series"),
    ("revival.poisson_sum_inversion", "poisson_sum_inversion"),
    ("lindblad.liouvillian", "liouvillian"),
    ("lindblad.integrate_path", "integrate_path"),
    ("lindblad.dense_from_block", "dense_from_block"),
    ("lindblad.compare_states", "compare_states"),
)

# Modules whose cumulative import time is reported.
MODULES = ("model", "evolution", "observables", "entanglement", "revival",
           "lindblad", "cli")


def _per_layer_spec() -> tuple:
    spec = []
    for key, _ in TARGETS:
        spec += [(f"{key}.calls", "count", "lower"),
                 (f"{key}.self_s", "s", "lower"),
                 (f"{key}.us_per_call", "us", "lower")]
    spec += [("evolution.propagate.pairs", "count", "lower"),
             ("model.poisson_pmf.distinct_ratio", "ratio", "higher"),
             ("lindblad.liouvillian.nnz", "count", "lower"),
             ("cli.emit_csv.bytes", "bytes", "lower")]
    spec += [(f"{mod}.import_s", "s", "lower")
             for mod in ("phasedjcm",) + MODULES]
    spec += [("trace.overhead_frac", "frac", "lower"),
             ("trace.unattributed_frac", "frac", "lower")]
    return tuple(spec)


# (name, unit, better) of every per-layer metric.  Counts and times are per
# pass; us_per_call is the inclusive time of one call.
PER_LAYER = _per_layer_spec()
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _count_pairs(counters, args, kwargs, result):
    # Pair updates done: pairs per state times the broadcast batch of states
    # and times, so the count stays fixed when batching cuts the calls.
    state = _arg(args, kwargs, 0, "state")
    tau = _arg(args, kwargs, 2, "tau")
    coherences = np.shape(state.c)
    batch = np.broadcast_shapes(coherences[:-1], np.shape(tau))
    counters["evolution.propagate.pairs"] += coherences[-1] * int(np.prod(batch))


def _count_pmf_args(counters, args, kwargs, result):
    mean = _arg(args, kwargs, 0, "mean")
    n = np.asarray(_arg(args, kwargs, 1, "n"))
    top = float(n.max()) if n.size else -1.0
    counters["pmf_keys"].add((float(mean), n.shape, top))


def _count_nnz(counters, args, kwargs, result):
    counters["lindblad.liouvillian.nnz"] += result.nnz


def _count_bytes(counters, args, kwargs, result):
    counters["cli.emit_csv.bytes"] += os.path.getsize(
        _arg(args, kwargs, 1, "path"))


COUNTERS = {
    "evolution.propagate": _count_pairs,
    "model.poisson_pmf": _count_pmf_args,
    "lindblad.liouvillian": _count_nnz,
    "cli.emit_csv": _count_bytes,
}


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if (name == "phasedjcm" or name.startswith("phasedjcm."))
            and isinstance(mod, types.ModuleType)]


class Tracer:
    """In-memory span recorder; install() wraps the targets."""

    def __init__(self):
        self.keys = [key for key, _ in TARGETS]
        self.span_key = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters = {"evolution.propagate.pairs": 0,
                         "lindblad.liouvillian.nnz": 0,
                         "cli.emit_csv.bytes": 0,
                         "pmf_keys": set()}
        self.absent = []

    def _wrap(self, key_id: int, fn, counter):
        span_key, span_parent = self.span_key, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(span_start)
            span_key.append(key_id)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(sid)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[sid] = perf_counter()
                stack.pop()
            # Counting is charged to the caller's self time.
            if counter is not None:
                counter(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = _package_modules()
        for key_id, (key, name) in enumerate(TARGETS):
            originals = {}
            for mod in modules:
                obj = mod.__dict__.get(name)
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__.startswith("phasedjcm")):
                    originals[id(obj)] = obj
            if not originals:
                self.absent.append(key)
                continue
            for fn in originals.values():
                traced = self._wrap(key_id, fn, COUNTERS.get(key))
                for mod in modules:
                    if mod.__dict__.get(name) is fn:
                        setattr(mod, name, traced)

    def summary(self, passes: int, traced_s: float) -> dict:
        """Per-layer metrics, per pass; shares of the traced time."""
        n = len(self.keys)
        calls = [0] * n
        total = [0.0] * n
        self_s = [0.0] * n
        root_s = 0.0
        for key, parent, start, end in zip(self.span_key, self.span_parent,
                                           self.span_start, self.span_end):
            dur = end - start
            calls[key] += 1
            total[key] += dur
            self_s[key] += dur
            if parent >= 0:
                self_s[self.span_key[parent]] -= dur
            else:
                root_s += dur
        metrics = {}
        shares = {}
        for i, key in enumerate(self.keys):
            metrics[f"{key}.calls"] = calls[i] / passes
            metrics[f"{key}.self_s"] = self_s[i] / passes
            metrics[f"{key}.us_per_call"] = (
                1e6 * total[i] / calls[i] if calls[i] else 0.0)
            shares[key] = self_s[i] / traced_s
        for name in ("evolution.propagate.pairs", "lindblad.liouvillian.nnz",
                     "cli.emit_csv.bytes"):
            metrics[name] = self.counters[name] / passes
        pmf_calls = calls[self.keys.index("model.poisson_pmf")]
        metrics["model.poisson_pmf.distinct_ratio"] = (
            len(self.counters["pmf_keys"]) / pmf_calls
            if pmf_calls else 0.0)
        metrics["trace.unattributed_frac"] = (traced_s - root_s) / traced_s
        return {"metrics": metrics, "self_share": shares,
                "absent": list(self.absent), "spans": len(self.span_start)}

    def write_spans(self, path) -> None:
        """Write every span as gzipped tab-separated text."""
        with gzip.open(path, "wt", encoding="ascii", newline="\n") as fh:
            fh.write("span\tparent\tname\tstart\tend\n")
            for sid, (key, parent, start, end) in enumerate(zip(
                    self.span_key, self.span_parent, self.span_start,
                    self.span_end)):
                fh.write(f"{sid}\t{parent}\t{self.keys[key]}\t"
                         f"{start:.9f}\t{end:.9f}\n")


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of each module that -X importtime lists."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        try:
            cumulative[name] = int(parts[1]) * 1e-6
        except ValueError:
            continue
    return cumulative
