"""Collapse-revival asymptotics of the atomic inversion.

The exact inversion is a sum of cosines at the pair frequencies 2 kbar
sqrt(n+1) weighted by the Poisson distribution.  Under Poisson resummation
for the undamped model this becomes one slowly decaying collapse envelope
plus a train of Gaussian revival bursts centered at tau_nu = 2 pi nu
sqrt(N) / kbar, each carrying a chirped carrier.  The expansion below keeps
the leading terms in 1/sqrt(N) of that resummation and is meaningful for
large N and times up to a few revivals.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams, _per_row, poisson_pmf

# Gaussian factors below this are flushed to zero so that far-off-center
# bursts contribute exact zeros instead of denormal noise.
_ENVELOPE_FLOOR = 1e-16


def revival_times(params: ModelParams, nu_max: int) -> np.ndarray:
    """Centers tau_nu = 2 pi nu sqrt(N) / kappa_bar for nu = 1..nu_max."""
    if nu_max < 1:
        raise ValueError("nu_max must be at least 1")
    nu = np.arange(1, nu_max + 1, dtype=float)
    return 2.0 * math.pi * nu * math.sqrt(params.mean_photons) / params.kappa_bar


def poisson_sum_inversion(params: ModelParams, tau, nu_max: int = 5,
                          lam=None):
    """The resummed inversion at tau: the constant offset from the unpaired
    |0,2> weight, the collapse burst at tau = 0 and the first nu_max revival
    bursts, added in that order.

    ``tau`` is a scalar or an array; ``lam`` replaces ``params.lam`` when
    given and may be an array of mixture weights, broadcast against tau.
    Returns a float when both are scalars, and nan wherever the series
    overflows.  Only gamma_bar == 0 is supported: damping deforms every
    pair frequency and envelope, and this expansion does not model that.
    """
    if params.gamma_bar != 0:
        raise ValueError("revival asymptotics require gamma_bar == 0")
    kbar = params.kappa_bar
    big_n = params.mean_photons
    root_n = math.sqrt(big_n)
    lam = params.lam if lam is None else np.asarray(lam, dtype=float)
    tau = np.asarray(tau, dtype=float)
    p11, p22 = params.p11, params.p22
    q11, q22 = params.q11, params.q22
    bell = 2.0 * lam * math.sqrt(q11 * q22) * math.sin(params.bell_phase)

    constant = -0.5 * (1.0 - lam) * p22 * poisson_pmf(big_n, 0)
    secular = (1.0 - lam) * (p11 - p22) + lam * (q11 - q22)
    drift = (1.0 - lam) * (3.0 * p11 - p22) + 1.5 * lam * (q11 - q22)

    # A huge kbar tau flushes the collapse envelope to zero, while for a
    # tiny N the bursts crowd towards tau = 0 and their amplitudes overflow;
    # such points are marked absent below.
    with np.errstate(over="ignore", invalid="ignore"):
        phase = 2.0 * kbar * root_n * tau
        env = np.exp(-0.5 * (kbar * tau) ** 2)
        osc = (
            secular * np.cos(phase)
            - drift * kbar * tau * np.sin(phase) / (2.0 * root_n)
            + bell * np.sin(phase)
        )
        out = constant + np.where(env < _ENVELOPE_FLOOR, 0.0, osc * env)

        norm = 1.0 / math.sqrt(math.pi * big_n)
        cos_amp_sq = (1.0 - lam) * p11 + lam * (q11 - q22)
        cos_amp_0 = -(1.0 - lam) * p22
        for nu, tau_nu in enumerate(revival_times(params, nu_max), start=1):
            width = kbar**2 / (2.0 * math.pi**2 * nu**2)
            prefac = kbar / (2.0 * math.pi * math.sqrt(float(nu) ** 3))
            env = norm * np.exp(-width * (tau - tau_nu) ** 2)
            ratio_sq = (tau / tau_nu) ** 2
            carrier = kbar**2 * tau**2 / (2.0 * math.pi * nu) - 0.25 * math.pi
            osc = (
                (cos_amp_sq * ratio_sq + cos_amp_0) * np.cos(carrier)
                + bell * ratio_sq * np.sin(carrier)
            )
            out = out + np.where(env < _ENVELOPE_FLOOR, 0.0,
                                 prefac * tau * env * osc)
    return _per_row(np.where(np.isfinite(out), out, math.nan))
