"""Model parameters, pair frequencies and the Bell-mixture initial state.

A two-level atom is coupled resonantly to a single radiation mode while the
atom undergoes pure phase damping.  Everything is dimensionless: time tau is
measured in units of the inverse mode frequency, and both the coupling
``kappa_bar`` and the damping rate ``gamma_bar`` are rates in units of the
mode frequency.

The interaction couples only the pairs {|n,1>, |n+1,2>} of joint
photon-number/atom states, so a density matrix that starts block diagonal in
those pairs stays block diagonal.  Level 1 is the upper (excited) atomic
level and level 2 the lower (ground) one: with that reading the coupling is
the rotating-wave Jaynes-Cummings interaction, which trades one atomic
excitation for one photon, and |0,2> is the uncoupled ground level of atom
and field.  The paper's text beyond its abstract is not at hand, so which
level its p11 weights is not checked here.  ``BlockState``
stores exactly that structure: the populations of each pair, the single
intra-pair coherence, and the weight of the unpaired |0,2> level.  It may
carry a leading batch axis of several such states, one per row, the layout
in which ``_lambda_blocks`` writes the initial states of a lambda scan.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# Bound on the neglected Poisson weight above the Fock cutoff.
TAIL_TOL = 1e-12

# The real-valued parameters, each once: (ModelParams field, key in
# params_from_mapping, flags and messages, default).  "lambda" is reserved in
# Python, so the mixture weight's field is called lam.  The command line
# registers the flag --<key with "-" for "_"> for each entry.
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
    if not 0.0 < mean_photons < math.inf:
        raise ValueError("mean_photons must be positive and finite")
    return math.ceil(mean_photons + 12.0 * math.sqrt(mean_photons) + 20.0)


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless parameters of one run.

    kappa_bar    atom-field coupling rate, > 0
    gamma_bar    atomic phase-damping rate, >= 0
    mean_photons mean N of the initial Poisson photon distribution, > 0
    lam          weight of the Bell-like piece in the initial atom-field
                 mixture, in [0, 1]
    p11          upper-level (level 1) probability of the factored atomic
                 part
    q11          upper-level (level 1) weight inside each Bell-like state,
                 in (0, 1)
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
            # build_initial_state, not here; the placeholder keeps the
            # cutoff usable as an integer.
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


def _per_row(values):
    """A float for a 0-d result, the array of row values otherwise."""
    return float(values) if np.ndim(values) == 0 else values


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
    return _per_row(np.where(arr == 0, math.exp(-mean), out))


def _poisson_weights(mean: float, n_max: int):
    """The Poisson weights at 0..n_max and the total weight above n_max,
    from one ``poisson_pmf`` call over 0..n_max + 12 sqrt(mean) + 40.

    The tail sums the weights above n_max, or, when n_max lies below the
    mean, takes the complement of those up to n_max, so no sum cancels.
    Away from the mean the weights fall off like a Gaussian of width
    sqrt(mean) for large means and faster than geometrically for small
    ones, so 12 sqrt(mean) + 40 of them reach round-off.
    """
    if not 0.0 < mean < math.inf:
        raise ValueError("Poisson mean must be positive and finite")
    width = math.ceil(12.0 * math.sqrt(mean) + 40.0)
    weights = poisson_pmf(mean, np.arange(n_max + 1 + width))
    if n_max >= mean:
        return weights[:n_max + 1], float(np.sum(weights[n_max + 1:]))
    below = float(np.sum(weights[max(0, n_max + 1 - width):n_max + 1]))
    return weights[:n_max + 1], 1.0 - below


@dataclass(frozen=True)
class BlockState:
    """Block-diagonal joint density matrix, or a batch of them.

    a[n] = <n|rho_11|n> for n = 0..n_max      (atom in the upper level 1)
    b[n] = <n|rho_22|n> for n = 0..n_max      (atom in the lower level 2;
           b[0] is the unpaired ground weight |0,2> and is a constant of
           the motion)
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
        """Smallest eigenvalue over all 2x2 blocks and unpaired levels.

        Each pair is divided by |trace| (1 for a zero trace) before its
        eigenvalues are taken and multiplied back after, so that squaring
        the entries of a pair of tiny weight does not underflow.  Round-off
        leaves a pure block indefinite, so a valid state can read a few
        spacings of a pair's trace below 0 (2.6 at worst, measured)."""
        a, b_hi = self.a[..., :-1], self.b[..., 1:]
        scale = np.abs(a + b_hi)
        scale[scale == 0.0] = 1.0
        # Real and imaginary parts apart: complex division by a subnormal
        # real can overflow.
        c_sq = np.square(self.c.real / scale)
        c_sq += np.square(self.c.imag / scale)
        _, lower = _pair_eigenvalues(a / scale, b_hi / scale, c_sq,
                                     out=np.empty((2,) + scale.shape))
        lower *= scale
        return _per_row(np.min(np.concatenate(
            [self.b[..., :1], self.a[..., -1:], lower], axis=-1), axis=-1))


def _abs_sq(c, out=None):
    """|c|^2 = Re c * Re c + Im c * Im c of a complex array, elementwise;
    written into ``out`` when it is given."""
    c_sq = np.multiply(c.real, c.real, out=out)
    c_sq += c.imag * c.imag
    return c_sq


def _levels(state: BlockState) -> np.ndarray:
    """The populations a and b of a state side by side along the last
    axis, as the column helpers take them."""
    return np.concatenate([state.a, state.b], axis=-1)


def _split_levels(levels):
    """The populations (a, b) laid side by side by ``_levels``, as views."""
    half = levels.shape[-1] // 2
    return levels[..., :half], levels[..., half:]


def _pair_eigenvalues(a, b_hi, c_sq, out):
    """Eigenvalues (upper, lower) of the 2x2 blocks [[a, c], [c*, b_hi]]
    with |c|^2 = c_sq, elementwise, written into the pair ``out`` of
    arrays."""
    disc = a - b_hi
    disc *= disc
    disc *= 0.25
    disc += c_sq
    np.sqrt(disc, out=disc)
    half_sum = np.add(a, b_hi, out=out[1])
    half_sum *= 0.5
    upper = np.add(half_sum, disc, out=out[0])
    return upper, np.subtract(half_sum, disc, out=half_sum)


def _spectrum(a, b, c_sq, out) -> np.ndarray:
    """All 2 (n_max + 1) eigenvalues of the state with populations a, b and
    squared coherences c_sq, written into ``out`` along the last axis: the
    unpaired b[0], the upper eigenvalue of every pair, the unpaired
    a[n_max] (its partner lies above the truncation), then the lower
    ones."""
    n_max = a.shape[-1] - 1
    out[..., 0] = b[..., 0]
    out[..., n_max + 1] = a[..., n_max]
    _pair_eigenvalues(a[..., :-1], b[..., 1:], c_sq,
                      out=(out[..., 1:n_max + 1], out[..., n_max + 2:]))
    return out


def rabi_frequency(params: ModelParams, n):
    """Damped oscillation frequency E of pair n (the pair holding n+1 quanta).

    E(n) = sqrt(4 kappa_bar^2 (n+1) - (gamma_bar/2)^2).  Accepts a scalar or
    array pair index n >= 0.  Raises ValueError when that radicand is not
    finite, when kappa_bar^2 is 0, or when any requested pair is
    overdamped, i.e. 4 kappa_bar^2 (n+1) <= (gamma_bar/2)^2.
    """
    arr = np.asarray(n, dtype=float)
    if np.any(arr < 0):
        raise ValueError("pair index must be non-negative")
    # Squares are products, not **, so an overflow reads inf instead of
    # raising.
    kappa_sq = params.kappa_bar * params.kappa_bar
    half_gamma = 0.5 * params.gamma_bar
    coupling = 4.0 * kappa_sq * (arr + 1.0)
    damping = half_gamma * half_gamma
    # Both terms are checked before the subtraction, where inf - inf would
    # warn and give nan.
    if not (np.all(np.isfinite(coupling)) and np.isfinite(damping)):
        rate = "gamma_bar" if np.all(np.isfinite(coupling)) else "kappa_bar"
        raise ValueError(f"pair frequency is not finite: {rate} is too large "
                         "or nan")
    radicand = coupling - damping
    if kappa_sq == 0:
        raise ValueError("kappa_bar is too small: kappa_bar^2 is 0")
    if np.any(radicand <= 0):
        raise ValueError("overdamped pair: 4 kappa_bar^2 (n+1) <= (gamma_bar/2)^2")
    return _per_row(np.sqrt(radicand))


def _initial_arrays(params: ModelParams, lam: np.ndarray, pn: np.ndarray,
                    out=None):
    """Raw (a, b, c) arrays of the Bell-mixture initial state, unvalidated,
    from the Poisson weights ``pn`` at 0..n_max.

    ``lam`` is the mixture weight; a 1-D array of weights gives arrays with
    a leading batch axis, one row per weight.  ``out`` is an optional triple
    of arrays of those shapes to write a, b and c into.
    """
    lam = lam[..., None]
    q11, q22 = params.q11, params.q22
    if out is None:
        shape = lam.shape[:-1] + pn.shape
        out = (np.empty(shape), np.empty(shape),
               np.empty(shape[:-1] + (pn.size - 1,), dtype=complex))
    a, b, c = out
    np.multiply((1.0 - lam) * params.p11 + lam * q11, pn, out=a)
    # |0,2> takes only the factored level-2 piece; the Bell piece never
    # populates it.
    b[..., :1] = (1.0 - lam) * params.p22 * pn[0]
    np.multiply((1.0 - lam) * params.p22, pn[1:], out=b[..., 1:])
    b[..., 1:] += lam * q22 * pn[:-1]
    np.multiply(pn[:-1], lam, out=c)
    c *= np.sqrt(q11 * q22)
    c *= np.exp(-1j * params.bell_phase)
    return a, b, c


def _lambda_blocks(params: ModelParams, grid: np.ndarray, rows: int):
    """Yield (block, levels, c_sq) of the initial states at every block of
    ``rows`` lambdas, in order, written into arrays held for the curve, so
    each block is overwritten by the next.

    The Poisson weights are taken once, and no block is validated: the
    caller validates the grid's ends, which covers every interior point
    (see ``runner._run_curve``).
    """
    pn = _poisson_weights(params.mean_photons, params.n_max)[0]
    levels = np.empty((rows, 2 * params.n_max + 2))
    c = np.empty((rows, params.n_max), dtype=complex)
    c_sq = np.empty((rows, params.n_max))
    for lo in range(0, grid.size, rows):
        lam = grid[lo:lo + rows]
        size = lam.size
        _initial_arrays(params, lam, pn,
                        out=(*_split_levels(levels[:size]), c[:size]))
        yield (slice(lo, lo + size), levels[:size],
               _abs_sq(c[:size], out=c_sq[:size]))


def build_initial_state(params: ModelParams, lam=None) -> BlockState:
    """Bell mixture (1 - lam) * rho_atom x rho_field + lam * Bell average,
    after checking every parameter.

    The factored piece is diag(p11, p22) for the atom against a Poisson
    field; the Bell piece averages |B(n)><B(n)| over the same Poisson
    weights, with |B(n)> = sqrt(q11) |n,1> + sqrt(q22) e^{i phi} |n+1,2>.
    ``lam`` replaces ``params.lam`` when given: a 1-D array of weights gives
    a batched state, one row per weight, and every weight is validated.

    Checks finiteness, then ranges, then the pair frequencies, then the
    Poisson tail above n_max, which one ``_poisson_weights`` call gives with
    the state's weights; the first stage that fails raises ParameterError
    with all of its messages.  A state that passes is positive semidefinite by construction:
    its populations are non-negative, and with the weights P_n pair n's
    determinant a[n] b[n+1] - |c[n]|^2 is (1 - lam)^2 p11 p22 P_n P_{n+1}
    + lam (1 - lam) (p11 q22 P_n^2 + q11 p22 P_n P_{n+1}) >= 0.
    """
    lam = np.asarray(params.lam if lam is None else lam, dtype=float)
    errors = [f"{key} must be finite" for name, key, _ in _PARAMS
              if not (np.all(np.isfinite(lam)) if name == "lam"
                      else math.isfinite(getattr(params, name)))]
    if errors:
        raise ParameterError("; ".join(errors))

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
    if errors:
        raise ParameterError("; ".join(errors))

    # The slowest pair decides whether any is overdamped, the fastest
    # whether any frequency overflows.
    try:
        rabi_frequency(params, np.array([0, params.n_max - 1]))
    except ValueError as exc:
        raise ParameterError(str(exc)) from None

    # One Poisson evaluation gives the state's weights and the tail.
    pn, tail = _poisson_weights(params.mean_photons, params.n_max)
    if tail >= TAIL_TOL:
        raise ParameterError(f"Poisson tail above n_max is {tail:.3e} >= "
                             f"{TAIL_TOL:.1e}; raise n_max")
    return BlockState(*_initial_arrays(params, lam, pn))


def params_from_mapping(mapping: dict) -> ModelParams:
    """Build ModelParams from a mapping of the ``_PARAMS`` keys and
    ``n_max`` to numbers or numeric strings, applying defaults."""
    unknown = set(mapping) - {key for _, key, _ in _PARAMS} - {"n_max"}
    if unknown:
        raise ParameterError(f"unknown parameter keys: {sorted(unknown)}")
    kwargs = {}
    for name, key, default in _PARAMS:
        raw = mapping.get(key, default)
        # Numbers and numeric strings only: float() would read True as 1.0.
        try:
            value = None if isinstance(raw, (bool, np.bool_)) else float(raw)
        except (TypeError, ValueError):
            value = None
        if value is None:
            raise ParameterError(f"parameter {key!r}: not a number: {raw!r}")
        kwargs[name] = value
    if "n_max" in mapping:
        raw = mapping["n_max"]
        # Integer types and strings of an integer only: int() alone would
        # cut 60.7 to 60, and bool, an int type, would read True as 1.
        try:
            n_max = int(raw) if isinstance(raw, str) else operator.index(raw)
        except (TypeError, ValueError):
            n_max = None
        if n_max is None or isinstance(raw, bool):
            raise ParameterError(f"parameter 'n_max': not an integer: {raw!r}")
        kwargs["n_max"] = n_max
    return ModelParams(**kwargs)

