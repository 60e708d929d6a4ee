"""Scenario runner, CSV writer and the scenario catalog.

Each catalog scenario bundles one figure's worth of curves; a curve is one
parameter set swept over tau (or, for the initial state scans, over the
mixture weight lambda).  A curve is evaluated in blocks of grid rows, each
block one batched state, so every layer sees whole rows at once: a tau
curve's blocks come from ``evolution._tau_blocks``, which steps the
initial state to the first block's times and moves that block's rows on,
by one scalar time, for every later block, and a lambda scan's initial
states from ``model._lambda_blocks``.  One column kernel,
``observables._columns``, turns every block into the computed columns.
``run_scenario`` yields each curve as it is computed, and ``write_csvs``
writes one CSV per curve with a fixed column set, printed with 9
significant digits and line-feed endings so repeated runs are
byte-identical.  Each CSV is formatted and written in chunks of rows into
a temporary file as soon as its curve arrives; the temporaries are renamed
onto their CSVs only after the last curve, so a call writes all of its
CSVs or none.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .evolution import _tau_blocks
from .model import ModelParams, _lambda_blocks, build_initial_state
from .observables import _columns, _work_arrays, poisson_sum_inversion

COLUMNS = (
    "clb",
    "deficit",
    "mutual",
    "s_atom",
    "s_rad",
    "s_joint",
    "rel_atom",
    "rel_rad",
    "inversion",
    "inversion_asym",
)

# Entries (rows times n_max + 1) of one evaluated block.  Blocks of this
# size run as fast as one block holding the whole curve, at a small
# fraction of its peak memory.  A complex temporary of the block takes
# 16 bytes an entry, 120 KiB here: below glibc's 128 KiB mmap threshold,
# so temporaries reuse heap pages.  Above it each temporary is a fresh
# mapping whose pages fault in on every block (2^14 entries fault about
# four times as many pages on fig4b).
_BLOCK_ENTRIES = 7680

# Rows formatted and written at a time.  A row prints at most 11 cells of
# 17 bytes ("-1.23456789e-100,"), so a chunk's bytes (at most 47 KiB), its
# format template, its tuple of values and its stacked table each stay
# below glibc's 128 KiB mmap threshold, as a block's temporaries do.
_CSV_ROWS = 256

# Relative slack on the point count of a grid, so that a stop that is a
# whole number of steps away survives the round-off of the division.
_GRID_SLACK = 1e-9


@dataclass(frozen=True)
class Curve:
    """One parameter set inside a scenario, tagged with its file label."""

    label: str
    params: ModelParams


@dataclass(frozen=True)
class Scenario:
    """A named sweep: either tau along a grid, or lambda at tau = 0."""

    name: str
    sweep: str                  # "tau" or "lambda"
    start: float
    stop: float
    step: float
    curves: tuple
    description: str = ""
    shows: tuple = COLUMNS      # columns the figure displays

    def grid(self) -> np.ndarray:
        """Points start, start + step, ... up to and never past stop."""
        if not all(map(math.isfinite, (self.start, self.stop, self.step))):
            raise ValueError(f"{self.name}: grid bounds and step must be "
                             "finite")
        if self.step <= 0:
            raise ValueError(f"{self.name}: grid step must be positive")
        if self.stop < self.start:
            raise ValueError(f"{self.name}: empty grid")
        ratio = (self.stop - self.start) / self.step
        # Past limit a float64 array's bytes overflow an intp; inf clips to it.
        limit = np.iinfo(np.intp).max // 8
        count = math.floor(min(ratio, limit) * (1.0 + _GRID_SLACK)) + 1
        if count > limit:
            raise ValueError(f"{self.name}: grid has too many points")
        # The slack and the round-off of the product can put the last point
        # a few ulps past stop.
        return np.minimum(self.start + self.step * np.arange(count),
                          self.stop)


@dataclass
class TimeSeries:
    """Ordered records of every observable along one curve."""

    scenario: str
    label: str
    axis_name: str
    axis: np.ndarray
    columns: dict


def _run_curve(scenario: Scenario, curve: Curve,
               grid: np.ndarray) -> TimeSeries:
    """Every column along ``grid``, evaluated one block of rows at a time.

    The sweeps differ only in the batched state at a block of grid points:
    the initial state propagated to each tau (``_tau_blocks``), or the
    initial state at each lambda (where tau = 0, ``_lambda_blocks``).
    Every block's columns come from ``observables._columns``, whose large
    temporaries live in work arrays held for the whole curve.
    """
    params = curve.params
    lam = None if scenario.sweep == "tau" else grid
    # A lambda sweep validates the ends of its grid, before any column
    # exists, and that covers every interior weight: only the weight's own
    # checks (finite, inside [0, 1]) depend on it, and the grid is monotone.
    initial = build_initial_state(params,
                                  None if lam is None else grid[[0, -1]])
    rows = min(grid.size, max(1, _BLOCK_ENTRIES // (params.n_max + 1)))
    if lam is None:
        blocks = _tau_blocks(initial, params, grid, rows)
    else:
        blocks = _lambda_blocks(params, grid, rows)
    # Work arrays held for the curve, like the arrays that each block is
    # written into, spare a block the page faults of a heap that glibc
    # trims after every block.
    work = _work_arrays(rows, params.n_max)
    cols = {name: np.empty(grid.size) for name in COLUMNS[:-1]}
    for block, levels, c_sq in blocks:
        fields = _columns(levels, c_sq, work)
        for name in COLUMNS[:-1]:
            cols[name][block] = fields[name]
    # The resummed inversion is undamped-only; it is absent on damped curves.
    asym = cols["inversion_asym"] = np.full(grid.size, math.nan)
    if params.gamma_bar == 0:
        # The overlay is elementwise in the grid: taking it _BLOCK_ENTRIES
        # points at a time bounds its temporaries and changes no bit.
        for lo in range(0, grid.size, _BLOCK_ENTRIES):
            part = slice(lo, lo + _BLOCK_ENTRIES)
            asym[part] = poisson_sum_inversion(
                params, grid[part] if lam is None else 0.0,
                lam=None if lam is None else grid[part])
    return TimeSeries(scenario.name, curve.label, scenario.sweep, grid, cols)


def run_scenario(scenario: Scenario):
    """Each curve of a scenario as a TimeSeries, in the scenario's curve
    order, computed lazily as the iterator reaches it.  The sweep kind and
    the grid are checked at the call."""
    if scenario.sweep not in ("tau", "lambda"):
        raise ValueError(f"unknown sweep kind {scenario.sweep!r}")
    grid = scenario.grid()
    return (_run_curve(scenario, curve, grid) for curve in scenario.curves)


def _open_temporary(path):
    """(name, file) of a new file beside ``path``, opened for binary
    writing with the default mode: ``<path>.<pid>.tmp``, or the first free
    ``<path>.<pid>.<k>.tmp`` when a killed run left that name behind."""
    base = f"{os.fspath(path)}.{os.getpid()}"
    for k in itertools.count():
        tmp = f"{base}.{k}.tmp" if k else f"{base}.tmp"
        try:
            # "xb" never overwrites another file.
            return tmp, open(tmp, "xb")
        except FileExistsError:
            continue


def _write_temporary(series: TimeSeries, path) -> str:
    """Write one curve as CSV into a new temporary file beside ``path`` and
    return its name; a failed write removes it.

    The header goes first, then the rows, formatted _CSV_ROWS at a time, so
    the memory held beyond the columns does not grow with the grid."""
    header = ",".join((series.axis_name,) + COLUMNS)
    columns = [series.axis] + [series.columns[name] for name in COLUMNS]
    # b"%.9g" formats a float exactly as f"{value:.9g}" does, in ASCII.
    row = b",".join([b"%.9g"] * len(columns)) + b"\n"
    full = row * _CSV_ROWS
    tmp, fh = _open_temporary(path)
    try:
        with fh:
            fh.write(header.encode("ascii") + b"\n")
            for lo in range(0, series.axis.size, _CSV_ROWS):
                chunk = np.column_stack([col[lo:lo + _CSV_ROWS]
                                         for col in columns])
                rows = full if len(chunk) == _CSV_ROWS else row * len(chunk)
                fh.write(rows % tuple(chunk.ravel().tolist()))
    except BaseException:
        os.remove(tmp)
        raise
    return tmp


def write_csvs(curves, out) -> list:
    """Write each TimeSeries of ``curves`` to ``<out>/<scenario>__<label>.csv``
    and return the paths, in order.

    Each curve goes to a temporary file beside its CSV as soon as it
    arrives, and is dropped before the next is computed; ``out`` is made
    once the first has arrived.  Only after the last are the temporaries
    renamed onto their CSVs, in order.  On any failure, KeyboardInterrupt
    included, the temporaries not yet renamed are removed, so a call that
    fails before its renames replaces no CSV."""
    out = Path(out)
    staged = []
    try:
        for series in curves:
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"{series.scenario}__{series.label}.csv"
            staged.append((_write_temporary(series, path), path))
            # Free the curve's columns before the next curve is computed.
            del series
        paths = [path for _, path in staged]
        while staged:
            os.replace(*staged[0])
            del staged[0]
    finally:
        for tmp, _ in staged:
            os.remove(tmp)
    return paths


# --- scenario catalog --------------------------------------------------------

def _label_num(value: float) -> str:
    text = f"{value:g}".replace("-", "m").replace(".", "p")
    return text


def _catalog() -> dict:
    base20 = dict(kappa_bar=1.0, gamma_bar=0.0, mean_photons=20.0,
                  lam=0.0, p11=0.8, q11=0.5, bell_phase=math.pi / 6.0)
    base5 = dict(base20, mean_photons=5.0)

    def params(base, **kw):
        return ModelParams(**{**base, **kw})

    def with_damped(curves, gamma_bar):
        """The curves, then each again at ``gamma_bar``, labelled
        ``<label>_g<gamma_bar>``."""
        return tuple(curves) + tuple(
            Curve(f"{curve.label}_g{_label_num(gamma_bar)}",
                  replace(curve.params, gamma_bar=gamma_bar))
            for curve in curves)

    catalog = {}

    # Initial-state concurrence scans over the mixture weight.
    catalog["fig1a"] = Scenario(
        name="fig1a", sweep="lambda", start=0.0, stop=1.0, step=0.01,
        curves=tuple(
            Curve(f"p11_{_label_num(p11)}", params(base5, mean_photons=2.0,
                                                   p11=p11))
            for p11 in (0.0, 0.25, 0.5, 0.75, 1.0)
        ),
        description="initial-state concurrence bound vs lambda, N=2, "
                    "several upper-level weights p11",
        shows=("clb",),
    )
    catalog["fig1b"] = Scenario(
        name="fig1b", sweep="lambda", start=0.0, stop=1.0, step=0.01,
        curves=tuple(
            Curve(f"N{n:g}", params(base5, mean_photons=float(n), p11=1.0))
            for n in (2, 3, 5, 20)
        ),
        description="initial-state concurrence bound vs lambda, p11=1, "
                    "several mean photon numbers",
        shows=("clb",),
    )

    # Concurrence bound vs time for three mixture weights; the inset curves
    # repeat them with weak damping.
    def clb_vs_tau(name, base, stop, gamma_inset):
        curves = [Curve(f"lam{_label_num(lam)}", params(base, lam=lam))
                  for lam in (0.0, 0.9, 1.0)]
        return Scenario(
            name=name, sweep="tau", start=0.0, stop=stop, step=0.05,
            curves=with_damped(curves, gamma_inset),
            description="concurrence bound vs tau for lambda 0/0.9/1, "
                        "with weakly damped inset variants",
            shows=("clb",),
        )

    catalog["fig2a"] = clb_vs_tau("fig2a", base5, 30.0, 0.01)
    catalog["fig2b"] = clb_vs_tau("fig2b", base20, 70.0, 0.01)

    # Factored start: composite correlations, then marginal quantities.
    catalog["fig3a"] = Scenario(
        name="fig3a", sweep="tau", start=0.0, stop=70.0, step=0.05,
        curves=(Curve("main", params(base20)),),
        description="factored start N=20: concurrence bound, deficit, "
                    "mutual entropy vs tau",
        shows=("clb", "deficit", "mutual"),
    )
    catalog["fig3b"] = Scenario(
        name="fig3b", sweep="tau", start=0.0, stop=70.0, step=0.05,
        curves=(
            Curve("g0", params(base20)),
            Curve("g0p05", params(base20, gamma_bar=0.05)),
        ),
        description="factored start N=20: inversion and conditional "
                    "entropies, undamped and damped",
        shows=("inversion", "rel_atom", "rel_rad", "inversion_asym"),
    )

    # Bell start: composite correlations for three Bell phases, then
    # marginals with damped companions.
    phases = (("phi0", 0.0), ("phiPi6", math.pi / 6.0), ("phiPi2", math.pi / 2.0))
    bell = tuple(Curve(label, params(base20, lam=1.0, bell_phase=phi))
                 for label, phi in phases)
    catalog["fig4a"] = Scenario(
        name="fig4a", sweep="tau", start=0.0, stop=70.0, step=0.05,
        curves=bell,
        description="Bell start N=20: concurrence bound, deficit, mutual "
                    "entropy vs tau for three Bell phases",
        shows=("clb", "deficit", "mutual"),
    )
    catalog["fig4b"] = Scenario(
        name="fig4b", sweep="tau", start=0.0, stop=70.0, step=0.05,
        curves=with_damped(bell, 0.05),
        description="Bell start N=20: inversion and conditional entropies "
                    "for three Bell phases, undamped and damped",
        shows=("inversion", "rel_atom", "rel_rad", "inversion_asym"),
    )

    # Supercorrelation scans: the field conditional entropy dips negative.
    def supercorr(name, base, stop):
        variants = (
            ("lam0_p11_0", dict(lam=0.0, p11=0.0)),
            ("lam0_p11_0p8", dict(lam=0.0, p11=0.8)),
            ("lam1", dict(lam=1.0)),
        )
        curves = [Curve(label, params(base, **kw)) for label, kw in variants]
        return Scenario(
            name=name, sweep="tau", start=0.0, stop=stop, step=0.05,
            curves=with_damped(curves, 0.05),
            description="conditional entropy of the atom given the field "
                        "vs tau, undamped and damped",
            shows=("rel_rad", "rel_atom"),
        )

    catalog["fig5a"] = supercorr("fig5a", base20, 70.0)
    catalog["fig5b"] = supercorr("fig5b", base5, 30.0)
    return catalog


CATALOG = _catalog()
