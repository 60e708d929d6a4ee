"""Regenerate the committed inputs and reference values in reference/.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs the curves in process and stores full-precision values of sampled
rows: every catalog curve, and every parameter set of the pools that
``large_n`` and ``lambda_scan`` draw from.  The pools are drawn from a fixed
generator seed.  Run it only when the outputs are meant to change, and
explain every changed value.
"""

from __future__ import annotations

import json
import random
import re

import phasedjcm

from workloads import (CATALOG_SCENARIOS, FAMILIES, REFERENCE_DIR,
                       draw_params)

POOL_SEED = 20030301
POOL_SIZE = 12
SAMPLED_ROWS = 8


def sampled(series) -> dict:
    """Full-precision values of evenly spaced rows, keyed by row index."""
    n = series.axis.size
    picks = sorted({round(k * (n - 1) / (SAMPLED_ROWS - 1))
                    for k in range(SAMPLED_ROWS)})
    return {str(i): [float(series.axis[i])]
            + [float(series.columns[c][i]) for c in phasedjcm.COLUMNS]
            for i in picks}


def entry(series, damped: bool) -> dict:
    return {"axis": series.axis_name, "n_rows": int(series.axis.size),
            "damped": damped, "rows": sampled(series)}


def catalog_reference() -> dict:
    files = {}
    for name in CATALOG_SCENARIOS:
        scenario = phasedjcm.CATALOG[name]
        for curve, series in zip(scenario.curves,
                                 phasedjcm.run_scenario(scenario)):
            files[f"{name}__{series.label}.csv"] = entry(
                series, curve.params.gamma_bar > 0)
    return {"files": files}


def _grid(flags: tuple) -> dict:
    values = dict(zip(flags[0::2], (float(v) for v in flags[1::2])))
    if "--tau-max" in values:
        return dict(sweep="tau", start=0.0, stop=values["--tau-max"],
                    step=values["--tau-step"])
    return dict(sweep="lambda", start=0.0, stop=1.0,
                step=values["--lambda-step"])


def pool_reference(workload: str, rng: random.Random) -> dict:
    """The pool of parameter sets and their reference rows, as the CLI
    would run them."""
    pool = {}
    for fam in FAMILIES[workload]:
        entries = []
        for _ in range(POOL_SIZE):
            params = draw_params(rng, with_lambda=fam.command == "evolve",
                                 damped=fam.damped)
            model = phasedjcm.params_from_mapping(
                {"mean_photons": fam.mean_photons, **params})
            scenario = phasedjcm.Scenario(
                name=fam.command, curves=(phasedjcm.Curve(fam.label, model),),
                **_grid(fam.grid_flags))
            (series,) = phasedjcm.run_scenario(scenario)
            entries.append({"params": params, **entry(series, fam.damped)})
        pool[fam.label] = entries
    return {"pool": pool}


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    rng = random.Random(POOL_SEED)
    tables = {"catalog": catalog_reference()}
    for workload in FAMILIES:
        tables[workload] = pool_reference(workload, rng)
    for workload, table in tables.items():
        text = json.dumps(table, indent=1, sort_keys=True)
        # One row of values per line.
        text = re.sub(r"\[[^\[\]{}]*\]",
                      lambda m: " ".join(m.group(0).split()), text)
        with open(REFERENCE_DIR / f"{workload}.json", "w", encoding="ascii",
                  newline="\n") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
