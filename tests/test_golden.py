"""Golden check: every catalog curve against committed reference rows.

``perfbench/reference/catalog.json`` holds full-precision values of eight
evenly spaced rows of every catalog curve.  The tolerance is the
benchmark's: 1e-12 absolute plus 2e-8 relative, which absorbs round-off but
no real change of a value.
"""

import json
import math
from pathlib import Path

import pytest

from phasedjcm import CATALOG, COLUMNS, run_scenario

REFERENCE = (Path(__file__).resolve().parent.parent
             / "perfbench" / "reference" / "catalog.json")
REF_ABS = 1e-12
REF_REL = 2e-8


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh)["files"]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_matches_reference_rows(name, reference):
    scenario = CATALOG[name]
    mismatches = []
    for curve, series in zip(scenario.curves, run_scenario(scenario)):
        entry = reference[f"{name}__{series.label}.csv"]
        assert series.axis_name == entry["axis"]
        assert series.axis.size == entry["n_rows"]
        assert (curve.params.gamma_bar > 0) == entry["damped"]
        for index, ref_row in entry["rows"].items():
            i = int(index)
            got = [float(series.axis[i])] + [float(series.columns[c][i])
                                             for c in COLUMNS]
            for column, value, want in zip((entry["axis"],) + COLUMNS,
                                           got, ref_row):
                if math.isnan(want):
                    ok = math.isnan(value)
                else:
                    ok = abs(value - want) <= REF_ABS + REF_REL * abs(want)
                if not ok:
                    mismatches.append(f"{series.label} row {i} {column}: "
                                      f"{value!r} != {want!r}")
    assert not mismatches, "\n".join(mismatches[:10])
