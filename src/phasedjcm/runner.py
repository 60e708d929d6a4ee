"""Scenario runner, CSV emitter and the scenario catalog.

Each catalog scenario bundles one figure's worth of curves; a curve is one
parameter set swept over tau (or, for the initial state scans, over the
mixture weight lambda).  A curve is evaluated in blocks of grid rows, each
block one batched state, so every layer sees whole rows at once: a tau
curve's blocks come from ``evolution._tau_blocks``, which propagates the
first block from tau = 0 and moves that block's rows on in place, by one
scalar time, for every later block, while a lambda scan builds each
block's initial states (``_lambda_blocks``).  One column kernel,
``_write_columns``, turns every block into the computed columns.  Output is
one CSV per curve with a fixed column set, printed with 9 significant
digits and line-feed endings so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import _clb
from .evolution import _tau_blocks
from .model import (ModelParams, _abs_sq, _levels, _split_levels,
                    build_initial_state)
from .observables import _entropies
from .revival import poisson_sum_inversion

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
        if not math.isfinite(ratio):
            raise ValueError(f"{self.name}: grid has too many points")
        count = math.floor(ratio * (1.0 + _GRID_SLACK)) + 1
        return self.start + self.step * np.arange(count)


@dataclass
class TimeSeries:
    """Ordered records of every observable along one curve."""

    scenario: str
    label: str
    axis_name: str
    axis: np.ndarray
    columns: dict


def _work_arrays(rows: int, n_max: int) -> tuple:
    """Work arrays for blocks of up to ``rows`` states: the photon
    distribution, the spectrum and the entropy terms, and three for the
    concurrence bound."""
    return (np.empty((rows, n_max + 1)),
            *(np.empty((rows, 2 * n_max + 2)) for _ in range(2)),
            *(np.empty((rows, n_max)) for _ in range(3)))


def _write_columns(cols: dict, block: slice, levels, c_sq, work) -> None:
    """Write the nine computed columns of a block of states into
    ``cols[name][block]``.

    The states' populations a and b are the two halves of ``levels`` and
    c_sq their squared coherences.  The entropies and the concurrence bound
    share the photon distribution and c_sq.  The large temporaries of a
    block live in ``work`` (from ``_work_arrays``), reused block after
    block, or are allocated when it is None."""
    rows = levels.shape[0]
    photon, *work = ((None,) * 6 if work is None
                     else (arr[:rows] for arr in work))
    photon = np.add(*_split_levels(levels), out=photon)
    fields = _entropies(levels, c_sq, photon, work[:2])
    cols["clb"][block] = _clb(levels, c_sq, photon, work[2:])
    for name in COLUMNS[1:-1]:
        cols[name][block] = fields[name]


def _lambda_blocks(params: ModelParams, grid: np.ndarray, rows: int):
    """Yield (block, levels, c_sq) of the validated initial states at every
    block of ``rows`` lambdas, in order."""
    for lo in range(0, grid.size, rows):
        block = slice(lo, lo + rows)
        state = build_initial_state(params, grid[block])
        yield block, _levels(state), _abs_sq(state.c)


def _run_curve(scenario: Scenario, curve: Curve,
               grid: np.ndarray) -> TimeSeries:
    """Every column along ``grid``, evaluated one block of rows at a time.

    The sweeps differ only in the batched state at a block of grid points:
    the initial state propagated to each tau (``_tau_blocks``), or the
    validated initial state at each lambda (where tau = 0).  Every block's
    columns come from ``_write_columns``.
    """
    params = curve.params
    lam = None if scenario.sweep == "tau" else grid
    # Every lambda block validates its weights; the ends of the grid go
    # first, so a grid that leaves [0, 1] fails before any column exists.
    initial = build_initial_state(params,
                                  None if lam is None else grid[[0, -1]])
    rows = min(grid.size, max(1, _BLOCK_ENTRIES // (params.n_max + 1)))
    if lam is None:
        tau = grid
        blocks = _tau_blocks(initial, params, grid, rows)
        # A tau block makes no other large temporary, so work arrays held
        # for the curve spare it the page faults of a heap that glibc trims
        # after every block.
        work = _work_arrays(rows, params.n_max)
    else:
        tau = 0.0
        blocks = _lambda_blocks(params, grid, rows)
        # A lambda block builds its state afresh, and held work arrays made
        # lambda sweeps slower: over six alternating processes on a 2-vCPU
        # host, fig1a took 4.6-4.7 ms without them and 5.4-8.3 ms with
        # them, and a 401-row, six-curve sweep-clb set (N 2, 20 and 100)
        # 37.1-38.8 ms against 40.1-64.0 ms.
        work = None
    cols = {name: np.empty(grid.size) for name in COLUMNS[:-1]}
    for block, levels, c_sq in blocks:
        _write_columns(cols, block, levels, c_sq, work)
    if params.gamma_bar == 0:
        cols["inversion_asym"] = poisson_sum_inversion(params, tau, lam=lam)
    else:
        # The resummed inversion is undamped-only; mark it absent.
        cols["inversion_asym"] = np.full(grid.size, math.nan)
    return TimeSeries(scenario.name, curve.label, scenario.sweep, grid, cols)


def run_scenario(scenario: Scenario) -> list:
    """Evaluate every curve of a scenario; returns one TimeSeries per curve,
    in the scenario's curve order."""
    if scenario.sweep not in ("tau", "lambda"):
        raise ValueError(f"unknown sweep kind {scenario.sweep!r}")
    grid = scenario.grid()
    return [_run_curve(scenario, curve, grid) for curve in scenario.curves]


def emit_csv(series: TimeSeries, path) -> None:
    """Write one curve as CSV: header plus one row per grid point."""
    header = ",".join((series.axis_name,) + COLUMNS)
    table = np.column_stack([series.axis]
                            + [series.columns[name] for name in COLUMNS])
    # b"%.9g" formats a float exactly as f"{value:.9g}" does, in ASCII.
    row = b",".join([b"%.9g"] * table.shape[1]) + b"\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.write((row * table.shape[0]) % tuple(table.ravel().tolist()))


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
        curves = []
        for lam in (0.0, 0.9, 1.0):
            curves.append(Curve(f"lam{_label_num(lam)}", params(base, lam=lam)))
        for lam in (0.0, 0.9, 1.0):
            curves.append(Curve(
                f"lam{_label_num(lam)}_g{_label_num(gamma_inset)}",
                params(base, lam=lam, gamma_bar=gamma_inset),
            ))
        return Scenario(
            name=name, sweep="tau", start=0.0, stop=stop, step=0.05,
            curves=tuple(curves),
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
    catalog["fig4a"] = Scenario(
        name="fig4a", sweep="tau", start=0.0, stop=70.0, step=0.05,
        curves=tuple(
            Curve(label, params(base20, lam=1.0, bell_phase=phi))
            for label, phi in phases
        ),
        description="Bell start N=20: concurrence bound, deficit, mutual "
                    "entropy vs tau for three Bell phases",
        shows=("clb", "deficit", "mutual"),
    )
    catalog["fig4b"] = Scenario(
        name="fig4b", sweep="tau", start=0.0, stop=70.0, step=0.05,
        curves=tuple(
            [Curve(label, params(base20, lam=1.0, bell_phase=phi))
             for label, phi in phases]
            + [Curve(f"{label}_g0p05",
                     params(base20, lam=1.0, bell_phase=phi, gamma_bar=0.05))
               for label, phi in phases]
        ),
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
        curves += [
            Curve(f"{label}_g0p05", params(base, gamma_bar=0.05, **kw))
            for label, kw in variants
        ]
        return Scenario(
            name=name, sweep="tau", start=0.0, stop=stop, step=0.05,
            curves=tuple(curves),
            description="conditional entropy of the atom given the field "
                        "vs tau, undamped and damped",
            shows=("rel_rad", "rel_atom"),
        )

    catalog["fig5a"] = supercorr("fig5a", base20, 70.0)
    catalog["fig5b"] = supercorr("fig5b", base5, 30.0)
    return catalog


CATALOG = _catalog()
