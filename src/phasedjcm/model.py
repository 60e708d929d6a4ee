"""Model parameters and the Bell-mixture initial state.

A two-level atom is coupled resonantly to a single radiation mode while the
atom undergoes pure phase damping.  Everything is dimensionless: time tau is
measured in units of the inverse mode frequency, and both the coupling
``kappa_bar`` and the damping rate ``gamma_bar`` are rates in units of the
mode frequency.

The interaction couples only the pairs {|n,1>, |n+1,2>} of joint
photon-number/atom states (|1> ground, |2> excited), so a density matrix that
starts block diagonal in those pairs stays block diagonal.  ``BlockState``
stores exactly that structure: the populations of each pair, the single
intra-pair coherence, and the weight of the unpaired |0,2> level.  It may
carry a leading batch axis of several such states, one per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Bound on the neglected Poisson weight above the Fock cutoff.
TAIL_TOL = 1e-12

# The real-valued parameters, each once: (ModelParams field, key in config
# files, flags and messages, default).  "lambda" is reserved in Python, so
# the mixture weight's field is called lam.  The command line registers the
# flag --<key with "-" for "_"> for each entry.
_PARAMS = (
    ("kappa_bar", "kappa_bar", 1.0),
    ("gamma_bar", "gamma_bar", 0.0),
    ("mean_photons", "mean_photons", 5.0),
    ("lam", "lambda", 0.0),
    ("p11", "p11", 0.8),
    ("q11", "q11", 0.5),
    ("bell_phase", "bell_phase", math.pi / 6.0),
)


class ParameterError(ValueError):
    """Raised when model parameters fail validation."""


def default_n_max(mean_photons: float) -> int:
    """Fock cutoff that keeps the neglected Poisson tail below TAIL_TOL.

    ceil(N + 12 sqrt(N) + 20) is comfortably past the Poisson bulk: the
    neglected tail measures at most about 1e-32 for every mean N up to
    1e5 (9.98e-34 at N = 20, 3.6e-33 at 1e3, 2.0e-33 at 1e5).
    """
    if mean_photons <= 0:
        raise ValueError("mean_photons must be positive")
    return math.ceil(mean_photons + 12.0 * math.sqrt(mean_photons) + 20.0)


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless parameters of one run.

    kappa_bar    atom-field coupling rate, > 0
    gamma_bar    atomic phase-damping rate, >= 0
    mean_photons mean N of the initial Poisson photon distribution, > 0
    lam          weight of the Bell-like piece in the initial atom-field
                 mixture, in [0, 1]
    p11          ground-state probability of the factored atomic part
    q11          ground-state weight inside each Bell-like state, in (0, 1)
    bell_phase   relative phase phi of the Bell amplitudes, in [0, 2 pi)
    n_max        Fock truncation index; None picks default_n_max(N)
    """

    kappa_bar: float
    gamma_bar: float
    mean_photons: float
    lam: float
    p11: float
    q11: float
    bell_phase: float
    n_max: int | None = None

    def __post_init__(self):
        if self.n_max is None:
            # Out-of-range or non-finite means are reported by
            # validate_params, not here; the placeholder keeps the cutoff
            # usable as an integer.
            mean = self.mean_photons
            cutoff = default_n_max(mean) if math.isfinite(mean) and mean > 0 else 1
            object.__setattr__(self, "n_max", cutoff)

    @property
    def p22(self) -> float:
        return 1.0 - self.p11

    @property
    def q22(self) -> float:
        return 1.0 - self.q11


# Stirling-series error log(n!) - log(sqrt(2 pi n) (n/e)^n) at n = 1..15,
# where the asymptotic series below is not yet accurate to round-off.
_STIRLERR_SMALL = np.array([
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n) for whole numbers n >= 1.

    Above 15 the series 1/(12 n) - 1/(360 n^3) + ... to its n^-9 term
    leaves an error below 1e-16.
    """
    nn = n * n
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn))
                                   / nn) / nn) / nn) / n
    table = _STIRLERR_SMALL[np.clip(n, 1, 15).astype(int) - 1]
    return np.where(n <= 15, table, series)


def _bd0(x: np.ndarray, mean: float) -> np.ndarray:
    """x log(x / mean) + mean - x, the deviance term, without cancellation.

    Near the mean it is summed as d v + 2 x (v^3 / 3 + v^5 / 5 + ...) with
    d = x - mean and v = d / (x + mean); |v| < 0.1 there, so nine terms
    reach round-off.
    """
    d = x - mean
    v = d / (x + mean)
    v2 = v * v
    odd = 0.0
    for k in range(19, 1, -2):
        odd = (odd + 1.0 / k) * v2
    near = d * v + 2.0 * x * v * odd
    # x / mean overflows only for a subnormal mean, where inf is right.
    with np.errstate(over="ignore"):
        direct = x * np.log(x / mean) + mean - x
    return np.where(np.abs(d) < 0.1 * (x + mean), near, direct)


def poisson_pmf(mean: float, n):
    """Poisson weight mean^n e^-mean / n! in Loader's saddle-point form.

    exp(-stirlerr(n) - bd0(n, mean)) / sqrt(2 pi n) (C. Loader, "Fast and
    Accurate Computation of Binomial Probabilities", 2000) has no
    cancellation: measured against 40-digit values, the relative error
    stays below 1e-13 for means up to 100 and below 2e-12 up to 1e5, far
    into the tail where the naive product over/underflows.  Accepts a whole
    number or an integer array for ``n`` and returns a matching scalar or
    array.
    """
    if not 0.0 < mean < math.inf:
        raise ValueError("Poisson mean must be positive and finite")
    arr = np.asarray(n, dtype=float)
    if np.any(arr < 0):
        raise ValueError("photon number must be non-negative")
    if np.any(arr != np.floor(arr)):
        raise ValueError("photon number must be a whole number")
    # n = 0 is exp(-mean); the saddle-point form needs n >= 1.
    x = np.maximum(arr, 1.0)
    out = np.exp(-_stirlerr(x) - _bd0(x, mean)) / np.sqrt(2.0 * math.pi * x)
    out = np.where(arr == 0, math.exp(-mean), out)
    if np.ndim(n) == 0:
        return float(out)
    return out


def poisson_tail(mean: float, n_max: int) -> float:
    """Total Poisson weight strictly above n_max.

    Sums the weights above n_max, or, when n_max lies below the mean, takes
    the complement of the weights up to n_max, so no sum cancels.  Moving
    away from the mean the weights fall off like a Gaussian of width
    sqrt(mean) for large means and faster than geometrically for small
    ones, so 12 sqrt(mean) + 40 of them reach round-off.  They are summed
    in chunks of at most 2^15 entries; the cost grows as sqrt(mean).
    """
    if not 0.0 < mean < math.inf:
        raise ValueError("Poisson mean must be positive and finite")
    width = math.ceil(12.0 * math.sqrt(mean) + 40.0)
    above = n_max >= mean
    first = n_max + 1 if above else max(0, n_max + 1 - width)
    stop = n_max + 1 + width if above else n_max + 1
    total = 0.0
    for lo in range(first, stop, 2**15):
        chunk = np.arange(lo, min(lo + 2**15, stop))
        total += float(np.sum(poisson_pmf(mean, chunk)))
    return total if above else 1.0 - total


def _per_row(values):
    """A float for a 0-d result, the array of row values otherwise."""
    return float(values) if np.ndim(values) == 0 else values


@dataclass(frozen=True)
class BlockState:
    """Block-diagonal joint density matrix, or a batch of them.

    a[n] = <n|rho_11|n> for n = 0..n_max      (atom ground)
    b[n] = <n|rho_22|n> for n = 0..n_max      (atom excited; b[0] is the
           unpaired |0,2> weight and is a constant of the motion)
    c[n] = <n|rho_12|n+1> for n = 0..n_max-1  (intra-pair coherence)

    The pair {|n,1>, |n+1,2>} carries the 2x2 block
    [[a[n], c[n]], [conj(c[n]), b[n+1]]].  An optional leading batch axis
    holds one state per row: a and b of shape (rows, n_max + 1) and c of
    shape (rows, n_max).  Scalar results such as ``trace()`` are then one
    value per row.  The arrays are frozen after construction.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        c = np.array(self.c, dtype=complex)
        if (a.ndim not in (1, 2) or b.shape != a.shape
                or c.shape != a.shape[:-1] + (a.shape[-1] - 1,)):
            raise ValueError(
                "need len(a) == len(b) == n_max + 1 and len(c) == n_max "
                "along the last axis, with at most one batch axis"
            )
        if a.shape[-1] < 2:
            raise ValueError("n_max must be at least 1")
        for arr in (a, b, c):
            arr.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n_max(self) -> int:
        return self.a.shape[-1] - 1

    def trace(self):
        return _per_row(np.sum(self.a, axis=-1) + np.sum(self.b, axis=-1))

    def min_eigenvalue(self):
        """Smallest eigenvalue over all 2x2 blocks and unpaired levels."""
        _, lower = _pair_eigenvalues(self.a[..., :-1], self.b[..., 1:], self.c)
        lo = np.min(lower, axis=-1)
        return _per_row(np.minimum(lo, np.minimum(self.b[..., 0],
                                                  self.a[..., -1])))


def _pair_eigenvalues(a, b_hi, c):
    """Eigenvalues (upper, lower) of the 2x2 blocks [[a, c], [c*, b_hi]],
    elementwise."""
    half_sum = 0.5 * (a + b_hi)
    disc = np.sqrt(0.25 * (a - b_hi) ** 2 + np.abs(c) ** 2)
    return half_sum + disc, half_sum - disc


def _initial_arrays(params: ModelParams, lam: np.ndarray):
    """Raw (a, b, c) arrays of the Bell-mixture initial state, unvalidated.

    ``lam`` is the mixture weight; a 1-D array of weights gives arrays with
    a leading batch axis, one row per weight.
    """
    n_max = params.n_max
    pn = poisson_pmf(params.mean_photons, np.arange(n_max + 1))
    lam = lam[..., None]
    q11, q22 = params.q11, params.q22
    factored = (1.0 - lam) * params.p11 + lam * q11

    a = factored * pn
    b = np.empty(a.shape)
    # |0,2> takes only the factored excited piece; the Bell piece never
    # populates it.
    b[..., :1] = (1.0 - lam) * params.p22 * pn[0]
    b[..., 1:] = (1.0 - lam) * params.p22 * pn[1:] + lam * q22 * pn[:-1]
    c = pn[:-1] * lam * np.sqrt(q11 * q22) * np.exp(-1j * params.bell_phase)
    return a, b, c


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_params: hard errors plus advisory warnings."""

    errors: tuple = field(default_factory=tuple)
    warnings: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_invalid(self) -> None:
        if self.errors:
            raise ParameterError("; ".join(self.errors))


def validate_params(params: ModelParams) -> ValidationReport:
    """Check finiteness, ranges, underdamping, truncation, and initial-state
    positivity.

    The decisive positivity test diagonalizes every initial 2x2 block
    directly.  The closed-form inequality on the mixture weights is reported
    only as a warning when it fails, since it is sufficient but not always
    tight for 0 < lam < 1.
    """
    return _validate(params, params.lam)[0]


def _validate(params: ModelParams, lam):
    """The report of validate_params with ``lam`` as the mixture weight, and
    the initial state it checked, or None when a check before the positivity
    test failed.  A 1-D array of weights is checked weight by weight and
    gives the batched state."""
    lam = np.asarray(lam, dtype=float)
    values = {key: lam if name == "lam" else getattr(params, name)
              for name, key, _ in _PARAMS}
    errors = [f"{key} must be finite" for key, value in values.items()
              if not np.all(np.isfinite(value))]
    if errors:
        return ValidationReport(errors=tuple(errors)), None
    warnings = []
    state = None

    if not params.kappa_bar > 0:
        errors.append("kappa_bar must be positive")
    if params.gamma_bar < 0:
        errors.append("gamma_bar must be non-negative")
    if not params.mean_photons > 0:
        errors.append("mean_photons must be positive")
    if not np.all((lam >= 0.0) & (lam <= 1.0)):
        errors.append("lambda must lie in [0, 1]")
    if not 0.0 <= params.p11 <= 1.0:
        errors.append("p11 must lie in [0, 1]")
    if not 0.0 < params.q11 < 1.0:
        errors.append("q11 must lie strictly inside (0, 1)")
    if not 0.0 <= params.bell_phase < 2.0 * math.pi:
        errors.append("bell_phase must lie in [0, 2 pi)")
    if not (isinstance(params.n_max, (int, np.integer)) and params.n_max >= 1):
        errors.append("n_max must be an integer >= 1")

    # Squares are products, not **, so an overflow reads inf instead of
    # raising.  All pair frequencies must be real: the slowest pair already
    # decides.  4 kappa_bar^2 (n_max + 1) bounds every squared frequency and
    # must stay finite.
    kappa_sq = params.kappa_bar * params.kappa_bar
    half_gamma = 0.5 * params.gamma_bar
    if 4.0 * kappa_sq - half_gamma * half_gamma <= 0:
        errors.append(
            "overdamped: need 4 kappa_bar^2 > (gamma_bar / 2)^2 for every pair"
        )
    elif not errors and not math.isfinite(4.0 * kappa_sq * (params.n_max + 1)):
        errors.append("kappa_bar is too large: 4 kappa_bar^2 (n_max + 1) "
                      "overflows")

    if not errors:
        # The state's arrays come first: the tail then never costs more
        # than they do, and an n_max too large to hold fails at once.
        arrays = _initial_arrays(params, lam)
        tail = poisson_tail(params.mean_photons, params.n_max)
        if tail >= TAIL_TOL:
            errors.append(
                f"Poisson tail above n_max is {tail:.3e} >= {TAIL_TOL:.1e}; "
                "raise n_max"
            )

    if not errors:
        state = BlockState(*arrays)
        lowest = float(np.min(state.min_eigenvalue()))
        if lowest < -1e-12:
            errors.append(
                "initial state is not positive semidefinite "
                f"(min block eigenvalue {lowest:.3e})"
            )

        # Warnings reach callers only through validate_params, which checks
        # one weight.
        if lam.ndim == 0 and 0.0 < lam < 1.0:
            n = np.arange(params.n_max + 1, dtype=float)
            bound = (
                lam
                * ((n + 1.0) * params.p11 * params.q22
                   + params.mean_photons * params.p22 * (params.q11 - params.p11))
                + params.mean_photons * params.p11 * params.p22
            )
            bad = np.nonzero(bound < 0)[0]
            if bad.size:
                warnings.append(
                    "advisory mixture-weight inequality fails at n = "
                    f"{bad[0]} (and {bad.size - 1} more); positivity was "
                    "checked directly and decides validity"
                )

    report = ValidationReport(errors=tuple(errors), warnings=tuple(warnings))
    return report, state


def build_initial_state(params: ModelParams, lam=None) -> BlockState:
    """Bell mixture (1 - lam) * rho_atom x rho_field + lam * Bell average.

    The factored piece is diag(p11, p22) for the atom against a Poisson
    field; the Bell piece averages |B(n)><B(n)| over the same Poisson
    weights, with |B(n)> = sqrt(q11) |n+1,1> + sqrt(q22) e^{-i phi} |n,2>.
    ``lam`` replaces ``params.lam`` when given: a 1-D array of weights gives
    a batched state, one row per weight, and every weight is validated.
    """
    report, state = _validate(params, params.lam if lam is None else lam)
    report.raise_if_invalid()
    return state


# --- flat key=value config files -------------------------------------------

def params_from_mapping(mapping: dict) -> ModelParams:
    """Build ModelParams from string key=value pairs, applying defaults."""
    unknown = set(mapping) - {key for _, key, _ in _PARAMS} - {"n_max"}
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for name, key, default in _PARAMS:
        raw = mapping.get(key, default)
        try:
            kwargs[name] = float(raw)
        except (TypeError, ValueError):
            raise ParameterError(f"config key {key!r}: not a number: {raw!r}")
    if "n_max" in mapping:
        try:
            kwargs["n_max"] = int(mapping["n_max"])
        except (TypeError, ValueError):
            raise ParameterError(f"config key 'n_max': not an integer: "
                                 f"{mapping['n_max']!r}")
    return ModelParams(**kwargs)


def read_config(path) -> dict:
    """Parse a flat key=value file into a raw string mapping.

    Blank lines and '#' comments are ignored; keys are the ModelParams field
    names with the mixture weight spelled ``lambda``.
    """
    mapping = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            mapping[key.strip()] = value.strip()
    return mapping
