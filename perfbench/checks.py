"""Output checks behind ``ok_frac``.

Each check returns a list of problems; an empty list means the curve
passed.  A failing check counts against its curve and never stops the run.
"""

from __future__ import annotations

import math
import re

COLUMNS = ("clb", "deficit", "mutual", "s_atom", "s_rad", "s_joint",
           "rel_atom", "rel_rad", "inversion", "inversion_asym")

# Invariants must hold to this, beyond the rounding of the printed digits.
INVARIANT_TOL = 1e-10
# The CSV prints 9 significant digits, so a printed value may sit half a
# unit of the 9th digit (5e-9 relative) from the computed one.
PRINT_REL = 5e-9
# A reference comparison absorbs one flip of the 9th printed digit caused
# by round-off (at most 1e-8 relative, doubled for headroom) and an
# absolute 1e-12 for values that are round-off around zero; any real change
# of a value is larger.
REF_REL = 2e-8
REF_ABS = 1e-12

_TAU_LINE = re.compile(r"^tau = \S+: max \|diff\| = (\S+)")
_OK_LINE = re.compile(r"^OK: max deviation (\S+) < tolerance")


def read_csv(path):
    """Header fields and rows of floats of one output file."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = lines[0].split(",") if lines else []
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


def _matches(value: float, ref: float) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= REF_ABS + REF_REL * abs(ref)


def check_csv(path, entry: dict) -> list:
    """Check one curve file against its reference entry.

    ``entry`` holds the axis name, the expected row count, whether the
    curve is damped, and full-precision values of sampled rows keyed by row
    index.
    """
    axis = entry["axis"]
    try:
        header, rows = read_csv(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable: {exc}"]
    if header != [axis, *COLUMNS]:
        return [f"header {header}"]
    problems = []
    if len(rows) != entry["n_rows"]:
        problems.append(f"{len(rows)} rows, expected {entry['n_rows']}")
    for index, ref in entry["rows"].items():
        index = int(index)
        if index >= len(rows):
            continue
        for name, value, want in zip((axis, *COLUMNS), rows[index], ref):
            if not _matches(value, want):
                problems.append(f"row {index} {name} = {value!r}, "
                                f"reference {want!r}")
    problems += check_invariants(rows, entry["damped"])
    return problems


def check_invariants(rows, damped: bool) -> list:
    """Invariants every row must satisfy.

    Every value is finite, except the resummed inversion, which is nan on
    damped curves; the concurrence bound lies in [0, 1]; the deficit and the
    mutual entropy are non-negative; Araki-Lieb |s_atom - s_rad| <= s_joint.
    """
    col = {name: i + 1 for i, name in enumerate(COLUMNS)}
    asym = col["inversion_asym"]
    problems = []
    for index, row in enumerate(rows):
        bad = []
        for i, value in enumerate(row):
            if i == asym and damped:
                if not math.isnan(value):
                    bad.append("inversion_asym not nan on a damped curve")
            elif not math.isfinite(value):
                bad.append(f"column {i} not finite")
        clb = row[col["clb"]]
        if not -INVARIANT_TOL <= clb <= 1.0 + INVARIANT_TOL:
            bad.append(f"clb {clb!r} outside [0, 1]")
        for name in ("deficit", "mutual"):
            if row[col[name]] < -INVARIANT_TOL:
                bad.append(f"{name} {row[col[name]]!r} negative")
        s_atom, s_rad, s_joint = (row[col[n]]
                                  for n in ("s_atom", "s_rad", "s_joint"))
        slack = INVARIANT_TOL + PRINT_REL * (abs(s_atom) + abs(s_rad)
                                             + abs(s_joint))
        if s_joint < abs(s_atom - s_rad) - slack:
            bad.append("Araki-Lieb inequality fails")
        if bad:
            problems.append(f"row {index}: {'; '.join(bad)}")
            if len(problems) >= 5:
                break
    return problems


def check_validate(exit_code: int, stdout: str, checkpoints: int,
                   tol: float) -> list:
    """Check a ``validate`` call: exit 0, one compared line per requested
    checkpoint, every deviation and the printed maximum below ``tol``.

    A run that compared no state fails even when it prints OK.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    lines = stdout.splitlines()
    deviations = [float(m.group(1)) for m in map(_TAU_LINE.match, lines) if m]
    if not deviations:
        problems.append("no state was compared")
    elif len(deviations) != checkpoints:
        problems.append(f"{len(deviations)} compared states, "
                        f"expected {checkpoints}")
    if any(not dev < tol for dev in deviations):
        problems.append(f"deviation above {tol:g}: {max(deviations)!r}")
    summary = [float(m.group(1)) for m in map(_OK_LINE.match, lines) if m]
    if len(summary) != 1 or not summary[0] < tol:
        problems.append(f"no OK line with deviation below {tol:g}")
    return problems
