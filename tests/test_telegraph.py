"""Two-state jump process: stationary law, propagator, exact dwell sampling."""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistable_qubit import telegraph
from bistable_qubit.streams import substream
from bistable_qubit.telegraph import TelegraphParams


def test_stationary_symmetric():
    assert telegraph.stationary_distribution(TelegraphParams(1.0, 1.0)) == (0.5, 0.5)


def test_stationary_absorbing_high_mode():
    assert telegraph.stationary_distribution(TelegraphParams(0.0, 5.0)) == (0.0, 1.0)


def test_stationary_degenerate_raises():
    with pytest.raises(ValueError, match="degenerate"):
        telegraph.stationary_distribution(TelegraphParams(0.0, 0.0))


def test_stationary_asymmetric_vs_renewal_oracle():
    # Independent oracle: occupancy fraction of an alternating renewal process
    # built directly from exponential dwells (no use of evolve()).
    params = TelegraphParams(3.0, 1.0)
    rng = substream(101, "renewal")
    n_pairs, n_rep = 200_000, 16
    fractions = []
    for _ in range(n_rep):
        dwell_h = rng.exponential(1.0 / params.gamma_hl, n_pairs)
        dwell_l = rng.exponential(1.0 / params.gamma_lh, n_pairs)
        fractions.append(dwell_l.sum() / (dwell_h.sum() + dwell_l.sum()))
    fractions = np.array(fractions)
    prob_l, prob_h = telegraph.stationary_distribution(params)
    assert (prob_l, prob_h) == (0.75, 0.25)
    sem = fractions.std(ddof=1) / math.sqrt(n_rep)
    assert abs(fractions.mean() - prob_l) < 3.0 * sem


def _evolve(xi, params, dt, rng):
    """The mode ``dt`` after mode ``xi`` is entered: its dwell drawn, then the walk."""
    return telegraph.evolve(xi, telegraph.next_switch(params, xi, 0.0, rng), params, 0.0, dt, rng)[0]


def test_flip_probability_zero_dt():
    assert telegraph.flip_probability(TelegraphParams(2.0, 3.0), telegraph.XI_H, 0.0) == 0.0


def test_flip_probability_stationary_limit_symmetric():
    p = telegraph.flip_probability(TelegraphParams(1.0, 1.0), telegraph.XI_H, 1e6)
    assert abs(p - 0.5) < 1e-12


def test_flip_probability_negative_dt_raises():
    with pytest.raises(ValueError):
        telegraph.flip_probability(TelegraphParams(1.0, 1.0), telegraph.XI_H, -1.0)


def test_flip_probability_half_life_point():
    # Symmetric rates g/2 each, dt = ln(2)/g: 0.5 * (1 - exp(-ln 2)) = 0.25.
    g = 0.8
    params = TelegraphParams.symmetric(g)
    p = telegraph.flip_probability(params, telegraph.XI_H, math.log(2.0) / g)
    assert abs(p - 0.25) < 1e-12
    # Monte Carlo cross-check through the jump sampler.
    rng = substream(102, "halflife")
    n = 300_000
    flips = 0
    for _ in range(n):
        flips += _evolve(telegraph.XI_H, params, math.log(2.0) / g, rng) != telegraph.XI_H
    sigma = math.sqrt(0.25 * 0.75 / n)
    assert abs(flips / n - 0.25) < 3.0 * sigma


@settings(max_examples=60, derandomize=True)
@given(
    gamma_hl=st.floats(0.0, 50.0),
    gamma_lh=st.floats(0.0, 50.0),
    dt1=st.floats(0.0, 10.0),
    dt2=st.floats(0.0, 10.0),
    xi=st.sampled_from([telegraph.XI_H, telegraph.XI_L]),
)
def test_flip_probability_bounded_and_monotone(gamma_hl, gamma_lh, dt1, dt2, xi):
    params = TelegraphParams(gamma_hl, gamma_lh)
    lo, hi = sorted((dt1, dt2))
    p_lo = telegraph.flip_probability(params, xi, lo)
    p_hi = telegraph.flip_probability(params, xi, hi)
    assert 0.0 <= p_lo <= 1.0
    assert p_lo <= p_hi + 1e-15


def test_evolve_frozen_process():
    rng = substream(103, "frozen")
    frozen = TelegraphParams(0.0, 0.0)
    assert telegraph.next_switch(frozen, telegraph.XI_L, 0.0, rng) == math.inf
    assert telegraph.evolve(telegraph.XI_L, math.inf, frozen, 0.0, 5.0, rng) == (telegraph.XI_L, math.inf)


def test_evolve_marginal_matches_flip_probability():
    params = TelegraphParams(1.3, 0.4)
    dt = 0.9
    rng = substream(104, "marginal")
    for xi0 in (telegraph.XI_H, telegraph.XI_L):
        n = 200_000
        flips = sum(_evolve(xi0, params, dt, rng) != xi0 for _ in range(n))
        p = telegraph.flip_probability(params, xi0, dt)
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(flips / n - p) < 3.0 * sigma


def test_chapman_kolmogorov_composition():
    params = TelegraphParams(0.7, 1.9)
    dt1, dt2 = 0.35, 1.1
    rng = substream(105, "ck")
    n = 200_000
    flips = 0
    for _ in range(n):
        switch_at = telegraph.next_switch(params, telegraph.XI_H, 0.0, rng)
        mid, switch_at = telegraph.evolve(telegraph.XI_H, switch_at, params, 0.0, dt1, rng)
        flips += telegraph.evolve(mid, switch_at, params, dt1, dt2, rng)[0] != telegraph.XI_H
    p = telegraph.flip_probability(params, telegraph.XI_H, dt1 + dt2)
    sigma = math.sqrt(p * (1.0 - p) / n)
    assert abs(flips / n - p) < 3.0 * sigma


def test_dwell_distribution_is_exponential():
    params = TelegraphParams(2.0, 5.0)
    rng = substream(106, "dwell")
    # One long interval; interior segments are complete dwells.
    switch_at = telegraph.next_switch(params, telegraph.XI_H, 0.0, rng)
    segments, _, _ = telegraph.dwell_segments(telegraph.XI_H, switch_at, params, 0.0, 75_000.0, rng)
    dwells_h = [d for xi, d in segments[1:-1] if xi == telegraph.XI_H]
    assert len(dwells_h) > 100_000
    from scipy import stats

    result = stats.kstest(dwells_h[:100_000], "expon", args=(0.0, 1.0 / params.gamma_hl))
    assert result.pvalue > 0.01


def test_dwell_segments_structure():
    params = TelegraphParams(4.0, 4.0)
    rng = substream(107, "segments")
    switch_at = telegraph.next_switch(params, telegraph.XI_L, 0.0, rng)
    segments, out, _ = telegraph.dwell_segments(telegraph.XI_L, switch_at, params, 0.0, 3.0, rng)
    assert abs(sum(d for _, d in segments) - 3.0) < 1e-12
    assert segments[0][0] == telegraph.XI_L
    for (xi_a, _), (xi_b, _) in zip(segments, segments[1:]):
        assert xi_b == 1 - xi_a
    assert out == segments[-1][0]


def test_negative_dt_raises():
    rng = substream(108, "neg")
    with pytest.raises(ValueError):
        telegraph.evolve(0, 1.0, TelegraphParams(1.0, 1.0), 0.0, -0.1, rng)


def test_nan_dt_raises():
    rng = substream(108, "nan")
    with pytest.raises(ValueError):
        telegraph.evolve(0, 1.0, TelegraphParams(1.0, 1.0), 0.0, math.nan, rng)


def test_infinite_dt_raises():
    # An infinite interval has no last dwell: the sampler would never return.
    rng = substream(108, "inf")
    for params in (TelegraphParams(1.0, 1.0), TelegraphParams(0.0, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            telegraph.dwell_segments(0, 1.0, params, 0.0, math.inf, rng)


def test_flip_probability_nan_dt_raises():
    with pytest.raises(ValueError):
        telegraph.flip_probability(TelegraphParams(1.0, 1.0), telegraph.XI_H, math.nan)


def test_flip_probability_infinite_dt_is_stationary():
    params = TelegraphParams(3.0, 1.0)
    assert telegraph.flip_probability(params, telegraph.XI_H, math.inf) == 0.75


def test_from_dwell_time():
    params = TelegraphParams.from_dwell_time(10.0)
    assert params.gamma_hl == params.gamma_lh == 0.1
    assert params.total_rate == pytest.approx(0.2)


def _state(rng):
    """The generator's stream position, comparable with == (Philox keeps numpy arrays)."""
    return repr(rng.bit_generator.state)


@pytest.mark.parametrize(
    "params, xi, dt",
    [
        (TelegraphParams(2e3, 3e3), telegraph.XI_H, 0.0),  # nothing elapses
        (TelegraphParams(0.0, 3e3), telegraph.XI_H, 1e-3),  # H cannot be left
        (TelegraphParams(2e3, 0.0), telegraph.XI_L, 1e-3),  # L cannot be left
        (TelegraphParams(0.0, 0.0), telegraph.XI_L, 5.0),
    ],
)
def test_dwell_segments_draws_nothing_without_an_exit(params, xi, dt):
    rng = substream(107, "no-draw")
    switch_at = telegraph.next_switch(params, xi, 0.0, rng)
    before = _state(rng)
    segments, out, after = telegraph.dwell_segments(xi, switch_at, params, 0.0, dt, rng)
    assert _state(rng) == before
    assert segments == ([(xi, dt)] if dt > 0.0 else [])
    assert (out, after) == (xi, switch_at)


def test_next_switch_draws_one_dwell_only_where_the_mode_can_be_left():
    params = TelegraphParams(30.0, 0.0)
    rng = substream(108, "next-switch")
    reference = copy.deepcopy(rng)
    assert telegraph.next_switch(params, telegraph.XI_H, 2.5, rng) == 2.5 + reference.exponential(1.0 / 30.0)
    assert telegraph.next_switch(params, telegraph.XI_L, 2.5, rng) == math.inf
    assert _state(rng) == _state(reference)


@pytest.mark.parametrize("xi", [telegraph.XI_H, telegraph.XI_L])
def test_dwell_segments_without_a_switch_draw_nothing(xi):
    params = TelegraphParams(30.0, 70.0)
    dt = 1.3e-6  # switch probability ~1e-4 per call
    rng = substream(108, "one-draw", xi)
    switch_at = telegraph.next_switch(params, xi, 0.0, rng)
    before = _state(rng)
    t = 0.0
    for _ in range(200):
        segments, out, after = telegraph.dwell_segments(xi, switch_at, params, t, dt, rng)
        t += dt
        assert segments == [(xi, dt)]
        assert (out, after) == (xi, switch_at)
    assert switch_at >= t
    assert _state(rng) == before


def test_dwell_segments_draw_one_dwell_per_segment():
    params = TelegraphParams(4e5, 9e5)
    start, dt = 1e-3, 2e-5
    rng = substream(109, "per-segment")
    switch_at = telegraph.next_switch(params, telegraph.XI_H, start, rng)
    reference = copy.deepcopy(rng)
    segments, out, after = telegraph.dwell_segments(telegraph.XI_H, switch_at, params, start, dt, rng)
    assert len(segments) > 3
    # Each segment ends at a switch drawn as its mode was entered, or at the end.
    xi, t, s = telegraph.XI_H, start, switch_at
    for seg_xi, duration in segments[:-1]:
        assert (seg_xi, duration) == (xi, s - t)
        xi, t = 1 - xi, s
        s = t + reference.exponential(1.0 / params.exit_rate(xi))
    assert segments[-1] == (xi, start + dt - t)
    assert (out, after) == (xi, s)
    assert after >= start + dt
    assert _state(rng) == _state(reference)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    gamma_hl=st.sampled_from([0.0, 1.0, 3e4, 2e6]),
    gamma_lh=st.sampled_from([0.0, 2.0, 5e4, 1e6]),
    xi=st.sampled_from([telegraph.XI_H, telegraph.XI_L]),
    dt=st.sampled_from([0.0, 1e-7, 3e-5, 1e-3]),
)
def test_evolve_keeps_the_draws_of_dwell_segments(seed, gamma_hl, gamma_lh, xi, dt):
    params = TelegraphParams(gamma_hl, gamma_lh)
    rng = substream(110, "evolve-draws", seed)
    switch_at = telegraph.next_switch(params, xi, 0.5, rng)
    reference = copy.deepcopy(rng)
    out = telegraph.evolve(xi, switch_at, params, 0.5, dt, rng)
    assert out == telegraph.dwell_segments(xi, switch_at, params, 0.5, dt, reference)[1:]
    assert _state(rng) == _state(reference)


def test_evolve_over_many_dwells_keeps_no_segments():
    params = TelegraphParams(1e5, 1e5)
    dt = 1.0  # ~1e5 dwells of 10 us
    rng = substream(111, "long-idle")
    switch_at = telegraph.next_switch(params, telegraph.XI_H, 0.0, rng)
    reference = copy.deepcopy(rng)
    tracemalloc.start()
    try:
        out = telegraph.evolve(telegraph.XI_H, switch_at, params, 0.0, dt, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    segments, *expected = telegraph.dwell_segments(telegraph.XI_H, switch_at, params, 0.0, dt, reference)
    assert len(segments) > 90_000
    assert out == tuple(expected)
    assert _state(rng) == _state(reference)
    assert peak < 100_000
