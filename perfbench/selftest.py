"""Show that the output checks pass good output and fire on bad output.

    PYTHONPATH=src python3 perfbench/selftest.py

Runs one catalog scenario and a few validate calls through the CLI, then
feeds the checks the real output, output with a flipped 9th digit (must
pass), and perturbed output and a validate run that compared no state
(must fail).  Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from pathlib import Path

import phasedjcm.cli

from checks import check_csv, check_validate
from workloads import load_reference

OUT = Path(__file__).resolve().parent.parent / ".bench_out" / "selftest"
FILE = "fig3b__g0.csv"


def run_cli(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = phasedjcm.cli.main(argv)
    return code, buf.getvalue()


def edit_cell(src: Path, dst: Path, row: int, column: int, text: str) -> None:
    lines = src.read_text(encoding="ascii").split("\n")
    cells = lines[row + 1].split(",")
    cells[column] = text(cells[column]) if callable(text) else text
    lines[row + 1] = ",".join(cells)
    dst.write_text("\n".join(lines), encoding="ascii")


def flip_last_digit(cell: str) -> str:
    mantissa, _, exponent = cell.partition("e")
    digit = int(mantissa[-1])
    flipped = mantissa[:-1] + str(digit - 1 if digit else 1)
    return flipped + ("e" + exponent if exponent else "")


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    code, _ = run_cli(["scenario", "fig3b", "--out", str(OUT)])
    if code != 0:
        print(f"scenario fig3b exited with code {code}")
        return 1
    entry = load_reference("catalog")["files"][FILE]
    good = OUT / FILE
    sampled = sorted(int(i) for i in entry["rows"])[1]
    unsampled = next(i for i in range(1, entry["n_rows"])
                     if str(i) not in entry["rows"])
    bad = OUT / "edited.csv"
    cases = []

    cases.append(("catalog output as written", check_csv(good, entry), False))
    edit_cell(good, bad, sampled, 6, flip_last_digit)
    cases.append(("9th digit flipped in a sampled row",
                  check_csv(bad, entry), False))
    edit_cell(good, bad, sampled, 6, lambda c: repr(float(c) * (1 + 1e-6)))
    cases.append(("s_joint of a sampled row off by 1e-6 relative",
                  check_csv(bad, entry), True))
    edit_cell(good, bad, unsampled, 1, "1.5")
    cases.append(("clb = 1.5 in a row without reference",
                  check_csv(bad, entry), True))
    edit_cell(good, bad, unsampled, 3, "nan")
    cases.append(("mutual = nan in a row without reference",
                  check_csv(bad, entry), True))

    base = ["validate", "--mean-photons", "5", "--n-max", "30",
            "--gamma-bar", "0.05", "--lambda", "0.7"]
    code, out = run_cli(base + ["--tau-max", "1"])
    cases.append(("validate with one checkpoint",
                  check_validate(code, out, 1, 1e-8), False))
    code, out = run_cli(base + ["--tau-max", "0.5"])
    cases.append(("validate that compared no state (prints OK)",
                  check_validate(code, out, 1, 1e-8), True))
    code, out = run_cli(base + ["--tau-max", "1", "--tol", "1e-30"])
    cases.append(("validate failing its own tolerance",
                  check_validate(code, out, 1, 1e-8), True))

    wrong = 0
    for name, problems, should_fail in cases:
        fired = bool(problems)
        verdict = "ok" if fired == should_fail else "WRONG"
        wrong += fired != should_fail
        print(f"{verdict:5} {name}: {'fails' if fired else 'passes'}"
              + (f" ({problems[0]})" if problems else ""))
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
