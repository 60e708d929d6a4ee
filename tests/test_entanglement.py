"""Two-level projections and the concurrence lower bound."""

import math

import numpy as np
import pytest

from phasedjcm import (
    BlockState,
    ModelParams,
    build_initial_state,
    entropy_report,
    propagate,
)
from phasedjcm.observables import _columns, _work_arrays


def make_params(**overrides):
    base = dict(kappa_bar=1.0, gamma_bar=0.0, mean_photons=2.0, lam=1.0,
                p11=0.5, q11=0.5, bell_phase=math.pi / 6.0, n_max=None)
    base.update(overrides)
    return ModelParams(**base)


def one_block(v, w, x, y, z):
    """State with n_max = 1, whose only photon-pair projection carries
    v = b[0], w = b[1], x = a[0], y = a[1] and the coherence z = c[0]; its
    concurrence lower bound is the concurrence of that one block."""
    return BlockState(a=[x, y], b=[v, w], c=[z])


def test_projection_weights_cover_trace_at_most_twice():
    state = build_initial_state(make_params(lam=0.4))
    t = state.b[:-1] + state.b[1:] + state.a[:-1] + state.a[1:]
    assert float(np.sum(t)) <= 2.0 * state.trace() + 1e-12


def test_factored_state_has_no_projected_coherence():
    state = build_initial_state(make_params(lam=0.0))
    assert state.c[3] == 0.0
    assert entropy_report(state).clb == 0.0


def test_block_concurrence_zero_coherence():
    assert entropy_report(one_block(0.1, 0.3, 0.4, 0.2, 0.0)).clb == 0.0


def test_block_concurrence_maximally_entangled():
    clb = entropy_report(one_block(0.0, 0.5, 0.5, 0.0, 0.5)).clb
    assert clb == pytest.approx(1.0, abs=1e-15)


def test_block_concurrence_hand_value():
    # lam=1, q11=0.5, N=2, n=0: v=0, w=x=|z|=p(0)/2, y=p(1)/2,
    # T = p(0) + p(1)/2; with p(1) = 2 p(0) this gives exactly 1/2
    state = build_initial_state(make_params(mean_photons=2.0, lam=1.0))
    block = one_block(state.b[0], state.b[1], state.a[0], state.a[1],
                      state.c[0])
    assert entropy_report(block).clb == pytest.approx(0.5, abs=1e-14)


def test_clb_skips_weightless_projections():
    assert entropy_report(one_block(0.0, 0.0, 0.0, 0.0, 0.0)).clb == 0.0
    assert entropy_report(one_block(0.0, 1e-15, 1e-15, 0.0,
                                    1e-15)).clb == 0.0


def test_clb_reads_round_off_negative_populations_as_zero():
    params = make_params(mean_photons=5.0, lam=0.8, gamma_bar=0.05)
    state = propagate(build_initial_state(params), params,
                      np.linspace(0.0, 12.0, 7))
    a, b = state.a.copy(), state.b.copy()
    a[:, [0, 3, 7]] = -1e-18
    b[:, [0, 2, 5]] = -1e-18
    clipped = entropy_report(BlockState(a=a, b=b, c=state.c)).clb
    a[a < 0] = 0.0
    b[b < 0] = 0.0
    zeroed = entropy_report(BlockState(a=a, b=b, c=state.c)).clb
    assert np.array_equal(clipped, zeroed)
    assert np.all(zeroed > 0.0)


def test_physical_blocks_keep_coherence_below_geometric_mean():
    # PSD of the {w, x} sub-block forces |z| <= sqrt(w x), so the min in the
    # concurrence formula never binds
    rng = np.random.default_rng(9)
    for _ in range(40):
        params = make_params(
            lam=float(rng.uniform(0, 1)),
            p11=float(rng.uniform(0, 1)),
            q11=float(rng.uniform(0.1, 0.9)),
            bell_phase=float(rng.uniform(0, 2 * math.pi)),
            mean_photons=float(rng.uniform(1.0, 8.0)),
        )
        state = propagate(build_initial_state(params), params,
                          float(rng.uniform(0, 15.0)))
        bound = np.sqrt(np.clip(state.b[1:], 0, None)
                        * np.clip(state.a[:-1], 0, None))
        assert np.all(np.abs(state.c) <= bound + 1e-12)


def test_clb_zero_for_factored_state():
    state = build_initial_state(make_params(lam=0.0))
    assert entropy_report(state).clb == 0.0


def test_clb_independent_of_p11_at_full_bell_weight():
    values = [
        entropy_report(build_initial_state(make_params(lam=1.0,
                                                       p11=p11))).clb
        for p11 in (0.0, 0.5, 1.0)
    ]
    assert max(values) - min(values) < 1e-12
    assert values[0] > 0.0


def test_clb_threshold_in_mixture_weight():
    # p11 = 0.5, N = 2: zero plateau at small lam, positive later, and
    # non-decreasing above the threshold
    lams = np.arange(0.0, 1.0001, 0.01)
    clb = np.array([
        entropy_report(
            build_initial_state(make_params(lam=float(lam), p11=0.5))).clb
        for lam in lams
    ])
    nonzero = np.nonzero(clb > 0)[0]
    assert nonzero.size > 0
    threshold = lams[nonzero[0]]
    assert threshold > 0.0
    assert np.all(clb[: nonzero[0]] == 0.0)
    above = clb[nonzero[0]:]
    assert np.all(np.diff(above) >= -1e-12)


def test_clb_decreases_with_mean_photons():
    values = [
        entropy_report(
            build_initial_state(make_params(lam=1.0, p11=1.0,
                                            mean_photons=float(n)))).clb
        for n in (2, 3, 5, 20)
    ]
    assert all(first > second for first, second in zip(values, values[1:]))


def test_clb_stays_in_unit_interval_along_evolution():
    params = make_params(mean_photons=5.0, lam=0.9, gamma_bar=0.01)
    state = build_initial_state(params)
    for tau in np.arange(0.0, 15.0001, 0.5):
        clb = entropy_report(propagate(state, params, float(tau))).clb
        assert 0.0 <= clb <= 1.0


def masked_clb(levels, c_sq):
    """The masked reference for the kernel's bound: projections below the
    1e-14 weight floor add nothing, and a row of weightless projections
    reads 0."""
    if levels.size and levels.min() < 0.0:
        levels = np.maximum(levels, 0.0)
    half = levels.shape[-1] // 2
    a, b = levels[..., :half], levels[..., half:]
    photon = a + b
    t = photon[..., :-1] + photon[..., 1:]
    weighted = np.sqrt(np.minimum(c_sq, a[..., :-1] * b[..., 1:]))
    weighted -= np.sqrt(b[..., :-1] * a[..., 1:])
    weighted = np.minimum(np.maximum(2.0 * weighted, 0.0), t)
    skip = ~(t >= 1e-14)
    t = np.where(skip, 0.0, t)
    weighted = np.where(skip, 0.0, weighted)
    total = t.sum(axis=-1)
    return np.divide(weighted.sum(axis=-1), total,
                     out=np.zeros_like(total), where=total > 0.0)


def clb_rows(*special):
    """Populations (a | b) and squared coherences of random 2x2 blocks
    over n_max = 5, one row per entry of ``special``: a list of (side,
    index, value) writes to overwrite."""
    rng = np.random.default_rng(11)
    levels = rng.random((len(special), 12)) * 0.1
    c_sq = 0.8 * levels[:, :5] * levels[:, 7:]
    for row, writes in enumerate(special):
        for side, index, value in writes:
            levels[row, index + (6 if side == "b" else 0)] = value
    return levels, c_sq


CLB_INPUTS = {
    # Every projection carries weight, zeros and a subnormal included, and
    # the round-off negative is clipped first.
    "all_weighted": (True, clb_rows([], [("b", 0, 0.0), ("a", 5, 5e-324)],
                                    [("b", 0, -1e-18)])),
    # The last row's projections carry 2e-16 each; unskipped, the even
    # ones would read fully entangled.
    "weightless_row": (False, clb_rows([], [("b", 0, 0.0)],
                                       [(side, i, 1e-16 * ((i % 2) == odd))
                                        for side, odd in (("a", 0), ("b", 1))
                                        for i in range(6)])),
    "one_weightless_projection": (False, clb_rows(
        [("a", 0, 0.0), ("b", 0, -1e-18), ("b", 1, 5e-324),
         ("a", 1, 1e-300)], [])),
    "nan": (False, clb_rows([], [("a", 2, math.nan)])),
}


@pytest.mark.parametrize("case", sorted(CLB_INPUTS))
def test_clb_matches_the_masked_reference(case):
    all_weighted, (levels, c_sq) = CLB_INPUTS[case]
    photon = np.maximum(levels, 0.0)
    photon = photon[:, :6] + photon[:, 6:]
    assert (bool((photon[:, :-1] + photon[:, 1:]).min() >= 1e-14)
            == all_weighted)
    want = masked_clb(levels, c_sq)
    work = _work_arrays(*c_sq.shape)
    np.testing.assert_array_equal(_columns(levels, c_sq, work)["clb"], want)
    # Again through the same, now written, work arrays.
    np.testing.assert_array_equal(
        _columns(levels.copy(), c_sq, work)["clb"], want)
    if case == "weightless_row":
        assert want[-1] == 0.0
