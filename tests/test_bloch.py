"""Bloch engine: conventions, pulses, decoherence, measurement."""

import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bistable_qubit.bloch import (
    GROUND,
    IDENTITY,
    QubitParams,
    apply,
    compose,
    detuning,
    free_map,
    measure,
    pulse_duration,
    pulse_map,
    rabi_transition_probability,
    readout_bit,
    reported_excited_probability,
)
from bistable_qubit.streams import substream

IDEAL = QubitParams.defaults(
    t1=math.inf, t_phi=math.inf, readout_eps_0to1=0.0, readout_eps_1to0=0.0
)


def two_pulse_sequence(qp, f_c, xi, tau, finite=False, second_axis=0.0):
    dq = detuning(qp, f_c, xi)
    state = apply(pulse_map(0.0, -math.pi / 2, dq, qp, finite), GROUND)
    state = apply(free_map(dq, tau, qp), state)
    return apply(pulse_map(second_axis, -math.pi / 2, dq, qp, finite), state)


class TestParams:
    def test_defaults_consistency(self):
        qp = QubitParams.defaults()
        assert qp.delta_tls == pytest.approx(374e3)
        assert qp.t_pi == pytest.approx(48e-9)
        assert qp.alpha == pytest.approx(0.94)
        # 1/T2 = 1/(2 T1) + 1/Tphi reconciles the quoted coherence times
        assert qp.t2 == pytest.approx(43.2e-6, rel=1e-3)
        assert 1.0 / qp.t2 == pytest.approx(0.5 / qp.t1 + 1.0 / qp.t_phi)

    def test_invalid_ordering(self):
        with pytest.raises(ValueError, match="f_high"):
            QubitParams.defaults(f_low=5.2e9)

    def test_overflowing_splitting(self):
        # Both frequencies finite, but f_high - f_low overflows to inf.
        with pytest.raises(ValueError, match="^f_high must exceed f_low, both finite, by a finite splitting$"):
            QubitParams.defaults(f_low=-1.7e308, f_high=1.7e308)

    def test_invalid_readout(self):
        with pytest.raises(ValueError, match="readout"):
            QubitParams.defaults(readout_eps_0to1=0.6)

    @given(
        pair=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2, unique=True)
    )
    @example(pair=[QubitParams.defaults().f_low, QubitParams.defaults().f_high])
    @example(pair=[41650888.684, 1469297933.871])  # f_low < f_high / 2: f_high - delta_tls misses f_low
    def test_mode_frequency(self, pair):
        f_low, f_high = sorted(pair)
        assume(f_high - f_low < math.inf)  # a splitting that overflows is rejected
        qp = QubitParams.defaults(f_low=f_low, f_high=f_high)
        assert qp.mode_frequency(0) == qp.f_high
        assert qp.mode_frequency(1) == qp.f_low


class TestDetuning:
    def test_resonant_high_mode(self):
        qp = QubitParams.defaults()
        assert detuning(qp, qp.f_high, 0) == 0.0

    def test_high_frame_low_mode(self):
        qp = QubitParams.defaults()
        assert detuning(qp, qp.f_high, 1) == pytest.approx(qp.delta_tls)

    def test_midpoint_frame(self):
        qp = QubitParams.defaults()
        mid = 0.5 * (qp.f_low + qp.f_high)
        assert detuning(qp, mid, 0) == pytest.approx(-qp.delta_tls / 2)


class TestFreeEvolve:
    def test_identity_without_noise_or_detuning(self):
        out = apply(free_map(0.0, 1e-3, IDEAL), (0.3, -0.2, 0.5))
        assert out == pytest.approx((0.3, -0.2, 0.5))

    def test_half_turn(self):
        x, y, _ = apply(free_map(1.0, 0.5, IDEAL), (1.0, 0.0, 0.0))
        assert x == pytest.approx(-1.0)
        assert math.hypot(x, y) == pytest.approx(1.0)

    def test_transverse_contraction(self):
        qp = QubitParams.defaults()
        x, y, _ = apply(free_map(0.0, qp.t2, qp), (1.0, 0.0, 0.0))
        assert x == pytest.approx(math.exp(-1.0))
        assert y == pytest.approx(0.0)

    def test_relaxation_toward_ground(self):
        qp = QubitParams.defaults()
        out = apply(free_map(0.0, qp.t1, qp), (0.0, 0.0, -1.0))
        assert out[2] == pytest.approx(1.0 - 2.0 * math.exp(-1.0))

    def test_negative_dt_raises(self):
        with pytest.raises(ValueError):
            free_map(0.0, -1e-9, IDEAL)


class TestPulses:
    def test_instantaneous_quarter_turn_convention(self):
        out = apply(pulse_map(0.0, -math.pi / 2, 0.0, IDEAL, False), GROUND)
        assert out == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)
        assert math.hypot(*out) == pytest.approx(1.0)

    def test_finite_resonant_pi_flip(self):
        out = apply(pulse_map(0.0, math.pi, 0.0, IDEAL, True), GROUND)
        assert out[2] == pytest.approx(-1.0)

    def test_finite_pi_at_sqrt3_detuning_returns_to_ground(self):
        # Generalized rotation angle doubles, so the pulse performs a full turn.
        delta_q = math.sqrt(3.0) * IDEAL.rabi_rate / (2.0 * math.pi)
        out = apply(pulse_map(0.0, math.pi, delta_q, IDEAL, True), GROUND)
        assert out[2] == pytest.approx(1.0, abs=1e-12)
        assert rabi_transition_probability(delta_q, IDEAL) == pytest.approx(0.0, abs=1e-12)

    def test_finite_pulse_matches_rabi_formula(self):
        # Independent route: Bloch rotation vs the closed-form transition probability.
        for delta_q in (0.0, 50e3, 187e3, 1.3e6):
            out = apply(pulse_map(0.0, math.pi, delta_q, IDEAL, True), GROUND)
            assert (1.0 - out[2]) / 2.0 == pytest.approx(
                rabi_transition_probability(delta_q, IDEAL), abs=1e-12
            )

    def test_plus_minus_pulses_invert(self):
        state = (0.1, -0.4, 0.8)
        for axis in (0.0, math.pi / 2, 1.1):
            fwd = apply(pulse_map(axis, 0.7, 0.0, IDEAL, False), state)
            back = apply(pulse_map(axis, -0.7, 0.0, IDEAL, False), fwd)
            assert back == pytest.approx(state)

    def test_pulse_duration(self):
        # A finite pulse lasts |angle|/rabi_rate; a zero-angle one is no step at all.
        assert pulse_duration(-math.pi / 2, IDEAL) == pytest.approx(0.5 * math.pi / IDEAL.rabi_rate)
        assert pulse_duration(math.pi, IDEAL) == IDEAL.t_pi
        assert pulse_map(0.3, 0.0, 1e6, QubitParams.defaults(), True) == IDENTITY


class TestRabiFormula:
    def test_resonance(self):
        assert rabi_transition_probability(0.0, IDEAL) == 1.0

    def test_half_splitting_error_magnitude(self):
        # Drive midway between modes: per-mode detuning 187 kHz leaves ~3.2e-4.
        infidelity = 1.0 - rabi_transition_probability(187e3, IDEAL)
        d = 2.0 * math.pi * 187e3
        w = IDEAL.rabi_rate
        expected = 1.0 - (w**2 / (w**2 + d**2)) * math.sin(
            0.5 * math.pi * math.sqrt(w**2 + d**2) / w
        ) ** 2
        assert infidelity == pytest.approx(expected, rel=1e-12)
        assert infidelity == pytest.approx(3.22e-4, rel=0.02)


class TestMeasure:
    def test_ground_noiseless_always_zero(self):
        rng = substream(201, "measure0")
        for _ in range(200):
            m = measure(GROUND[2], IDEAL, rng)
            assert m == 0

    def test_excited_with_assignment_error(self):
        qp = QubitParams.defaults(readout_eps_1to0=0.03, readout_eps_0to1=0.0)
        rng = substream(202, "measure1")
        n = 100_000
        ones = sum(measure(-1.0, qp, rng) for _ in range(n))
        sigma = math.sqrt(0.97 * 0.03 / n)
        assert abs(ones / n - 0.97) < 3.0 * sigma

    def test_equator_symmetric_errors(self):
        qp = QubitParams.defaults()
        rng = substream(203, "measure2")
        n = 100_000
        ones = sum(measure(0.0, qp, rng) for _ in range(n))
        sigma = math.sqrt(0.25 / n)
        assert abs(ones / n - 0.5) < 3.0 * sigma

    @pytest.mark.parametrize("z", [-1.0, -0.3, 0.0, 1.0])
    @pytest.mark.parametrize("eps", [0.0, 0.03, 1.0])
    def test_draws_exactly_two_uniforms(self, z, eps):
        # The draw contract a deferred readout relies on: two random() calls in
        # either branch, whatever z and the assignment errors.  eps = 1 lies
        # outside QubitParams' range, so the errors come from a stand-in.
        params = SimpleNamespace(readout_eps_0to1=eps, readout_eps_1to0=eps)
        for k in range(40):
            rng = substream(206, "two-draws", k)
            reference = copy.deepcopy(rng)
            m = measure(z, params, rng)
            u1, u2 = reference.random(), reference.random()
            assert repr(rng.bit_generator.state) == repr(reference.bit_generator.state)
            assert m == readout_bit(z, u1, u2, params)

    def test_reset_composition(self):
        qp = QubitParams.defaults(readout_eps_0to1=0.0, readout_eps_1to0=0.0)
        rng = substream(205, "reset")
        assert GROUND == (0.0, 0.0, 1.0)
        flipped = apply(pulse_map(0.0, math.pi, 0.0, qp, False), GROUND)
        assert flipped[2] == pytest.approx(-1.0)
        m = measure(GROUND[2], qp, rng)
        assert m == 0


class TestRamseyConsistency:
    def test_ideal_two_pulse_probability_grid(self):
        # P(m=1) = (1 + cos(2 pi delta_q tau))/2 exactly, on >=100 points.
        taus = np.linspace(0.05e-6, 3.3e-6, 10)
        offsets = (-2e6, -0.5e6, 0.0, 0.7e6, 2e6)
        count = 0
        for tau in taus:
            for off in offsets:
                for xi in (0, 1):
                    f_c = IDEAL.f_high + off
                    dq = detuning(IDEAL, f_c, xi)
                    state = two_pulse_sequence(IDEAL, f_c, xi, float(tau))
                    p = (1.0 - state[2]) / 2.0
                    expected = 0.5 * (1.0 + math.cos(2.0 * math.pi * dq * tau))
                    assert abs(p - expected) < 1e-12
                    count += 1
        assert count >= 100

    def test_decohered_sequence_matches_visibility_form(self):
        # With T1, Tphi and symmetric assignment errors the same sequence gives
        # 1/2 + (alpha/2) exp(-tau/T2) cos(2 pi delta_q tau), to 1e-9.
        qp = QubitParams.defaults()
        for tau in np.linspace(0.0, 5e-6, 11):
            for off in (-1e6, 0.0, 2e6):
                for xi in (0, 1):
                    f_c = qp.f_high + off
                    dq = detuning(qp, f_c, xi)
                    state = two_pulse_sequence(qp, f_c, xi, float(tau))
                    p = reported_excited_probability(state[2], qp)
                    expected = 0.5 + 0.5 * qp.alpha * math.exp(-tau / qp.t2) * math.cos(
                        2.0 * math.pi * dq * tau
                    )
                    assert abs(p - expected) < 1e-9

    def test_sampling_matches_deterministic_probability(self):
        qp = QubitParams.defaults()
        state = two_pulse_sequence(qp, qp.f_high, 1, 0.4e-6)
        p = reported_excited_probability(state[2], qp)
        rng = substream(206, "linearity")
        n = 100_000
        ones = sum(measure(state[2], qp, rng) for _ in range(n))
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(ones / n - p) < 3.0 * sigma


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(1, 60))
def test_norm_never_exceeds_one(seed, n_ops):
    qp = QubitParams.defaults()
    rng = np.random.default_rng(seed)
    state = GROUND
    for _ in range(n_ops):
        kind = rng.integers(0, 3)
        if kind == 0:
            m = free_map(float(rng.uniform(-2e6, 2e6)), float(rng.uniform(0, 2e-6)), qp)
        else:
            axis, angle = float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(-math.pi, math.pi))
            m = pulse_map(axis, angle, float(rng.uniform(-2e6, 2e6)), qp, kind == 2)
        state = apply(m, state)
        assert math.hypot(*state) <= 1.0 + 1e-9


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_maps=st.integers(1, 12))
def test_composed_map_equals_stepwise_application(seed, n_maps):
    qp = QubitParams.defaults()
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(n_maps):
        kind = rng.integers(0, 3)
        delta_q = float(rng.uniform(-2e6, 2e6))
        axis, angle = float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(-math.pi, math.pi))
        if kind == 0:
            maps.append(free_map(delta_q, float(rng.uniform(0, 2e-6)), qp))
        else:
            maps.append(pulse_map(axis, angle, delta_q, qp, kind == 2))
    start = rng.normal(size=3)
    start *= rng.uniform(0, 1) / np.linalg.norm(start)
    state = tuple(float(v) for v in start)
    composed = apply(compose(*maps), state)
    for m in maps:
        state = apply(m, state)
    assert composed == pytest.approx(state, abs=1e-12)
    assert math.hypot(*composed) <= 1.0 + 1e-12


class TestFinitePulseTimingOffset:
    """Finite pulses shift the mode-discrimination fringe by 2/rabi_rate.

    The offset is read from the midpoint-frame contrast with a quadrature
    projection.  In the exact rectangular-pulse dynamics the offset is the
    same for every combination of prep/projection drive signs (inverting all
    drives is conjugation by a z-half-turn, which fixes both the pole and the
    z readout), so no amplitude-inversion arrangement cancels it; only the
    instantaneous-pulse limit restores the ideal fringe.
    """

    @staticmethod
    def _contrast(qp, taus, prep_angle, proj_angle, finite):
        f_mid = 0.5 * (qp.f_low + qp.f_high)
        out = []
        for tau in taus:
            ps = []
            for xi in (0, 1):
                dq = detuning(qp, f_mid, xi)
                state = apply(pulse_map(0.0, prep_angle, dq, qp, finite), GROUND)
                state = apply(free_map(dq, float(tau), qp), state)
                state = apply(pulse_map(math.pi / 2, proj_angle, dq, qp, finite), state)
                ps.append((1.0 - state[2]) / 2.0)
            out.append(abs(ps[0] - ps[1]))
        return np.array(out)

    def test_finite_pulse_offset_is_two_over_rabi_rate(self):
        from bistable_qubit.fitting import fit_fringe_time_offset

        taus = np.linspace(0.05e-6, 2.5e-6, 300)
        expected = 2.0 / IDEAL.rabi_rate
        s = self._contrast(IDEAL, taus, math.pi / 2, -math.pi / 2, finite=True)
        offset, _ = fit_fringe_time_offset(taus, s, IDEAL.delta_tls, expected)
        assert abs(offset - expected) < 0.01 * expected

    def test_instantaneous_pulses_restore_ideal_fringe(self):
        from bistable_qubit.fitting import fit_fringe_time_offset

        taus = np.linspace(0.05e-6, 2.5e-6, 300)
        s = self._contrast(IDEAL, taus, math.pi / 2, -math.pi / 2, finite=False)
        ideal = np.abs(np.sin(math.pi * IDEAL.delta_tls * taus))
        assert np.max(np.abs(s - ideal)) < 1e-9
        offset, _ = fit_fringe_time_offset(taus, s, IDEAL.delta_tls, 0.0)
        assert abs(offset) < 0.01 * 2.0 / IDEAL.rabi_rate

    def test_offset_invariant_under_drive_sign_pairings(self):
        taus = np.linspace(0.05e-6, 2.5e-6, 60)
        base = self._contrast(IDEAL, taus, math.pi / 2, math.pi / 2, finite=True)
        for prep in (math.pi / 2, -math.pi / 2):
            for proj in (math.pi / 2, -math.pi / 2):
                s = self._contrast(IDEAL, taus, prep, proj, finite=True)
                assert np.max(np.abs(s - base)) < 1e-9
