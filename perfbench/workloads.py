"""The four benchmark workloads as sequences of command-line calls.

Every workload is a closed loop: one caller in one process and one thread
sends the next call only after the previous one returned.  A workload is
made of passes; a pass is a fixed list of calls whose amount of work does
not depend on the seed, so runs on different seeds do the same work.

The seed decides which parameter values the calls carry.  Curves that are
checked against committed full-precision reference values (``large_n`` and
``lambda_scan``) draw them from a committed pool of parameter sets, because
the reference values have to exist before the run; ``oracle`` certifies
itself and draws fresh values; ``catalog`` has fixed parameters, so the seed
only shuffles the order of the scenarios.

Only flags that stay on the road map are used: no ``--jobs``,
``--clb-formula`` or ``--dt``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("catalog", "large_n", "lambda_scan", "oracle")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

CATALOG_SCENARIOS = ("fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b",
                     "fig4a", "fig4b", "fig5a", "fig5b")

# Fixed sizes of the oracle calls: validate at n_max = 30 and one
# checkpoint, which keeps enough parameter sets in one run for a tail
# percentile.  N = 5 leaves a Poisson tail of 4e-15 above n_max = 30.
ORACLE_MEAN_PHOTONS = 5.0
ORACLE_N_MAX = 30
ORACLE_TAU_MAX = 1
ORACLE_TOL = 1e-8


@dataclass(frozen=True)
class Family:
    """One curve of a pass whose parameter values come from the pool."""

    label: str
    command: str            # "evolve" or "sweep-clb"
    mean_photons: float
    damped: bool
    grid_flags: tuple

    @property
    def output(self) -> str:
        return f"{self.command}__{self.label}.csv"


# large_n: N = 1000 gives the automatic cutoff n_max = 1400, so array work
# dominates each call; 301 tau points keep a curve near 0.15 s.
# lambda_scan: the initial-state scan at a fine lambda step (401 points).
# Neither is in BENCHMARK.json; they are run by hand (see NOTES.md).
FAMILIES = {
    "large_n": tuple(
        Family(label, "evolve", 1000.0, damped,
               ("--tau-max", "15", "--tau-step", "0.05"))
        for label, damped in (("undamped", False), ("damped", True))
    ),
    "lambda_scan": tuple(
        Family(f"N{n}_{'damped' if damped else 'undamped'}", "sweep-clb",
               float(n), damped, ("--lambda-step", "0.0025"))
        for n in (2, 20, 100) for damped in (False, True)
    ),
}

_FLAGS = (("lambda", "--lambda"), ("p11", "--p11"), ("q11", "--q11"),
          ("bell_phase", "--bell-phase"), ("gamma_bar", "--gamma-bar"))


def draw_params(rng: random.Random, with_lambda: bool, damped: bool) -> dict:
    """Valid parameter values drawn uniformly from the parameter box.

    Every draw is valid: the initial state is a convex mix of positive
    pieces, and gamma_bar <= 0.1 keeps every pair underdamped.
    """
    params = {}
    if with_lambda:
        params["lambda"] = round(rng.uniform(0.0, 1.0), 6)
    params["p11"] = round(rng.uniform(0.0, 1.0), 6)
    params["q11"] = round(rng.uniform(0.05, 0.95), 6)
    params["bell_phase"] = round(rng.uniform(0.0, 2.0 * math.pi - 1e-3), 6)
    params["gamma_bar"] = round(rng.uniform(0.005, 0.1), 6) if damped else 0.0
    return params


def param_flags(params: dict) -> list:
    flags = []
    for key, flag in _FLAGS:
        if key in params:
            flags += [flag, repr(float(params[key]))]
    return flags


@dataclass(frozen=True)
class Call:
    """One call of ``phasedjcm.cli.main`` and what its output must be."""

    argv: tuple
    outputs: tuple = ()     # ((file name, reference entry), ...)
    checkpoints: int = 0    # compared states a validate call must print

    @property
    def curve_rows(self) -> list:
        """Output rows of each curve; a validate call is one curve whose
        rows are its compared checkpoints."""
        if self.outputs:
            return [entry["n_rows"] for _, entry in self.outputs]
        return [self.checkpoints]


def load_reference(workload: str) -> dict:
    """The committed inputs and reference values of a workload ({} if none)."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def passes(workload: str, seed: int, out_dir: str, reference: dict):
    """Yield the calls of one pass after another, forever.

    The same seed yields the same sequence of passes.
    """
    rng = random.Random(seed)
    if workload == "catalog":
        by_scenario = {}
        for name, entry in reference["files"].items():
            by_scenario.setdefault(name.split("__", 1)[0], []).append(
                (name, entry))
        order = list(CATALOG_SCENARIOS)
        while True:
            rng.shuffle(order)
            yield [Call(("scenario", name, "--out", out_dir),
                        outputs=tuple(by_scenario[name]))
                   for name in order]
    elif workload in FAMILIES:
        pool = reference["pool"]
        while True:
            calls = []
            for fam in FAMILIES[workload]:
                entry = rng.choice(pool[fam.label])
                params = entry["params"]
                argv = ([fam.command, "--mean-photons", repr(fam.mean_photons)]
                        + param_flags(params) + list(fam.grid_flags)
                        + ["--out", out_dir, "--label", fam.label])
                calls.append(Call(tuple(argv), outputs=((fam.output, entry),)))
            yield calls
    elif workload == "oracle":
        while True:
            params = draw_params(rng, with_lambda=True, damped=True)
            argv = (["validate", "--mean-photons", repr(ORACLE_MEAN_PHOTONS),
                     "--n-max", str(ORACLE_N_MAX),
                     "--tau-max", str(ORACLE_TAU_MAX)]
                    + param_flags(params))
            yield [Call(tuple(argv), checkpoints=ORACLE_TAU_MAX)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
