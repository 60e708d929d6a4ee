"""Golden checks: every catalog curve against committed reference rows, and
every catalog CSV against its committed SHA-256 digest.

``perfbench/reference/catalog.json`` holds full-precision values of eight
evenly spaced rows of every catalog curve.  The tolerance is the
benchmark's: 1e-12 absolute plus 2e-8 relative, which absorbs round-off but
no real change of a value.

``catalog_csv.sha256`` holds the digests of the 45 CSVs that the
``scenario`` command writes, so any changed byte fails.  A change that moves
cells on purpose regenerates it from the repository root, after listing
the changed cells:

    for s in fig1a fig1b fig2a fig2b fig3a fig3b fig4a fig4b fig5a fig5b; do
        PYTHONPATH=src python -m phasedjcm.cli scenario $s --out out
    done
    (cd out && sha256sum *.csv) > tests/catalog_csv.sha256

The printed values carry 9 significant digits, so round-off that differs
between machines can flip a 9th digit and fail a digest where the reference
rows still pass.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from phasedjcm import CATALOG, COLUMNS, run_scenario, write_csvs

REFERENCE = (Path(__file__).resolve().parent.parent
             / "perfbench" / "reference" / "catalog.json")
DIGESTS = Path(__file__).resolve().parent / "catalog_csv.sha256"
REF_ABS = 1e-12
REF_REL = 2e-8


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh)["files"]


@pytest.fixture(scope="module")
def catalog_runs():
    """The curves of ``run_scenario`` of a catalog scenario by name, listed
    once for the tests below."""
    runs = {}

    def run(name):
        if name not in runs:
            runs[name] = list(run_scenario(CATALOG[name]))
        return runs[name]
    return run


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_matches_reference_rows(name, reference, catalog_runs):
    scenario = CATALOG[name]
    mismatches = []
    for curve, series in zip(scenario.curves, catalog_runs(name),
                             strict=True):
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


@pytest.fixture(scope="module")
def digests():
    with open(DIGESTS, encoding="ascii") as fh:
        return {name: digest for digest, name in map(str.split, fh)}


def test_digests_cover_every_catalog_curve(digests):
    assert set(digests) == {f"{name}__{curve.label}.csv"
                            for name, scenario in CATALOG.items()
                            for curve in scenario.curves}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_no_catalog_cell_reads_negative_zero(name, tmp_path, catalog_runs):
    # A pure level's entropy sums zero terms; it prints as 0, not -0.
    paths = write_csvs(catalog_runs(name), tmp_path)
    assert len(paths) == len(CATALOG[name].curves)
    for path in paths:
        cells = path.read_text(encoding="ascii").replace("\n", ",").split(",")
        assert "-0" not in cells, path.name


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_csv_bytes_match_digests(name, digests, tmp_path,
                                         catalog_runs):
    changed = []
    paths = write_csvs(catalog_runs(name), tmp_path)
    assert len(paths) == len(CATALOG[name].curves)
    for path in paths:
        if hashlib.sha256(path.read_bytes()).hexdigest() != digests[path.name]:
            changed.append(path.name)
    assert not changed, changed
