"""Feedback cycles: syndrome estimation, detuned probing, interleaved runs."""

import copy
import math
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistable_qubit import analytics, protocol, telegraph
from bistable_qubit import benchmarking as rb
from bistable_qubit.bloch import GROUND, QubitParams, apply, detuning, free_map, pulse_duration, pulse_map
from bistable_qubit.fitting import fit_cosine, fit_two_frequency_mixture
from bistable_qubit.protocol import (
    HALF_PI,
    MitigationConfig,
    calibrate_decode_map,
    cycle_bandwidth,
    default_tau_probe,
    make_environment,
    ramsey_probability,
    run_mitigation,
    syndrome_cycle,
    syndrome_error_rate,
    x_gate_excited_population,
)
from bistable_qubit.protocol import _switch_free_state, _two_pulse_cycle
from bistable_qubit.streams import substream
from bistable_qubit.telegraph import TelegraphParams

from scalar_engine import executor_run, scalar_ramsey_cycle, schedule_run

QP = QubitParams.defaults()
IDEAL = QubitParams.defaults(
    t1=math.inf, t_phi=math.inf, readout_eps_0to1=0.0, readout_eps_1to0=0.0
)
FROZEN = TelegraphParams(0.0, 0.0)


def ideal_env(rng, pinned=0, finite=False):
    return make_environment(IDEAL, FROZEN, rng, pinned_mode=pinned, finite_pulses=finite)


class TestCycleBandwidth:
    def test_reference_timing(self):
        assert cycle_bandwidth(tau=1.33e-6, t_readout=2e-6, t_reset=6e-6) == pytest.approx(107.2e3, rel=2e-3)

    def test_zero_dead_time(self):
        delta = 374e3
        assert cycle_bandwidth(tau=0.5 / delta, t_readout=0.0, t_reset=0.0) == pytest.approx(2 * delta)

    def test_monotone_in_dead_time(self):
        assert cycle_bandwidth(1.33e-6, 4e-6, 12e-6) < cycle_bandwidth(1.33e-6, 2e-6, 6e-6)

    def test_zero_cycle_raises(self):
        with pytest.raises(ValueError, match="^estimation window has zero duration$"):
            cycle_bandwidth(0.0, 0.0, 0.0)

    def test_negative_field_raises(self):
        for field in ("tau", "t_readout", "t_reset"):
            budget = {"tau": 1e-6, "t_readout": 1e-6, "t_reset": 1e-6, field: -1e-9}
            with pytest.raises(ValueError, match=f"^{field} must be nonnegative$"):
                cycle_bandwidth(**budget)


class TestDecodeCalibration:
    def test_outcome_one_means_high_mode(self):
        decode = calibrate_decode_map(QP, default_tau_probe(QP), True)
        assert decode == (1, 0)  # m=0 -> low mode, m=1 -> high mode

    def test_degenerate_probe_time_raises(self):
        with pytest.raises(ValueError, match="contrast"):
            calibrate_decode_map(QP, 1.0 / QP.delta_tls, False)


class TestSyndromeCycle:
    def test_noiseless_pinned_modes_are_decoded_exactly(self):
        tau = 0.5 / IDEAL.delta_tls
        for xi in (0, 1):
            rng = substream(401, "synd", xi)
            env = ideal_env(rng, pinned=xi)
            for _ in range(25):
                _, xi_hat = syndrome_cycle(env, tau)
                assert xi_hat == xi

    def test_invalid_probe_time(self):
        rng = substream(402, "synd")
        env = ideal_env(rng)
        with pytest.raises(ValueError):
            syndrome_cycle(env, 0.0)

    def test_clock_and_tls_advance(self, monkeypatch):
        rng = substream(404, "synd")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0, finite_pulses=True)
        tau = default_tau_probe(QP)
        advanced = []
        evolve = telegraph.evolve

        def record(xi, switch_at, params, start, dt, dwells, switches=None):  # every interval the defect is advanced over
            advanced.append(dt)
            return evolve(xi, switch_at, params, start, dt, dwells, switches)

        monkeypatch.setattr(telegraph, "evolve", record)
        env.clock = 3.0
        syndrome_cycle(env, tau)
        t_pulse = 0.5 * math.pi / QP.rabi_rate
        expected = tau + QP.t_wall + 2 * t_pulse
        assert env.clock - 3.0 == pytest.approx(expected)
        assert advanced == pytest.approx([t_pulse, tau, t_pulse, QP.t_wall])
        assert sum(advanced) == pytest.approx(env.clock - 3.0)

    def test_error_rate_needs_a_cycle(self):
        rng = substream(405, "syndmc-empty")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0)
        with pytest.raises(ValueError, match="n_cycles"):
            syndrome_error_rate(env, 0, default_tau_probe(QP), True)

    def test_error_rate_matches_static_budget(self):
        rng = substream(405, "syndmc")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0, finite_pulses=False)
        n = 100_000
        p_mc = syndrome_error_rate(env, n, default_tau_probe(QP), True)
        p_th = analytics.p_err_static(QP.delta_tls, QP.t2, QP.alpha)
        sigma = math.sqrt(p_th * (1 - p_th) / n)
        assert abs(p_mc - p_th) < 3.0 * sigma


class TestRamseyCycle:
    def test_tau_zero_composes_full_pi(self):
        rng = substream(406, "rams0")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0, finite_pulses=False)
        n = 20_000
        ones = 0
        for _ in range(n):
            ones += scalar_ramsey_cycle(env, QP.f_high, 0.0, 2e6)
        expected = 1.0 - QP.readout_eps_1to0
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(ones / n - expected) < 3.0 * sigma

    def test_virtual_detuning_sets_fringe_frequency(self):
        taus = np.linspace(0.0, 2.5e-6, 120)
        det = 2.0e6
        probs = [ramsey_probability(IDEAL, IDEAL.f_high, 0, float(t), det) for t in taus]
        fit = fit_cosine(taus, probs, f_guess=1.9e6)
        assert fit.ok
        assert fit.frequency == pytest.approx(det, rel=1e-3)
        assert probs[0] == pytest.approx(1.0)

    def test_mode_mixture_beats_with_node_at_half_inverse_splitting(self):
        taus = np.linspace(0.0, 2.5e-6, 200)
        det = 2.0e6
        mixed = np.array(
            [
                0.5 * ramsey_probability(IDEAL, IDEAL.f_high, 0, float(t), det)
                + 0.5 * ramsey_probability(IDEAL, IDEAL.f_high, 1, float(t), det)
                for t in taus
            ]
        )
        fit = fit_two_frequency_mixture(taus, mixed, det, det - IDEAL.delta_tls)
        assert fit.ok
        node = fit.envelope_node_time
        assert node == pytest.approx(0.5 / IDEAL.delta_tls, rel=0.02)

    def test_virtual_z_equivalence_to_physical_detuning(self):
        # Probing with virtual detuning D equals shifting the frame down by D.
        d = 2.33e6
        for xi in (0, 1):
            for tau in np.linspace(0.0, 3e-6, 40):
                virtual = ramsey_probability(QP, QP.f_high, xi, float(tau), d)
                physical = ramsey_probability(
                    replace(QP, f_high=QP.f_high, f_low=QP.f_low),  # same params
                    QP.f_high - d,
                    xi,
                    float(tau),
                    0.0,
                )
                assert abs(virtual - physical) < 1e-9


class TestMitigation:
    def test_pinned_mode_gives_clean_fringes(self):
        taus = tuple(np.linspace(0.0, 2.5e-6, 25))
        cfg = MitigationConfig(tau_grid=taus, n_reps=10, rows=30, tau_probe=1.33e-6)
        rng = substream(408, "mitpin")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0, finite_pulses=False)
        result = run_mitigation(env, cfg)
        n_eff = cfg.n_reps * cfg.rows
        for fringes, det in ((result.no_feedback, cfg.det_nofb), (result.feedback, cfg.det_fb)):
            avg = fringes.mean(axis=0)
            fit = fit_cosine(np.array(taus), avg, f_guess=det, t2=QP.t2)
            assert fit.ok
            assert fit.frequency == pytest.approx(det, rel=5e-3)
            assert np.max(np.abs(avg - _cosine_model(np.array(taus), fit, QP.t2))) < 2.0 / math.sqrt(n_eff)

    def test_rep_noise_scales_binomially(self):
        taus = (0.6e-6,)
        cfg = MitigationConfig(tau_grid=taus, n_reps=10, rows=200, tau_probe=1.33e-6)
        rng = substream(409, "mitnoise")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0, finite_pulses=False)
        result = run_mitigation(env, cfg)
        column = result.no_feedback[:, 0]
        p = column.mean()
        expected = math.sqrt(p * (1 - p) / cfg.n_reps)
        assert 0.7 * expected < column.std(ddof=1) < 1.3 * expected

    def test_feedback_tracks_true_mode_ideally(self):
        taus = tuple(np.linspace(0.1e-6, 1.5e-6, 5))
        cfg = MitigationConfig(tau_grid=taus, n_reps=4, rows=2, tau_probe=0.5 / IDEAL.delta_tls)
        for xi in (0, 1):
            rng = substream(410, "mitideal", xi)
            env = ideal_env(rng, pinned=xi)
            result = run_mitigation(env, cfg)
            assert np.all(result.est_xi == xi)

    def test_matrix_values_are_rep_fractions(self):
        taus = tuple(np.linspace(0.0, 2e-6, 8))
        cfg = MitigationConfig(tau_grid=taus, n_reps=7, rows=3, tau_probe=1.33e-6)
        rng = substream(411, "mitfrac")
        env = make_environment(QP, TelegraphParams.from_dwell_time(5.0), rng)
        result = run_mitigation(env, cfg)
        for fringes in (result.no_feedback, result.feedback):
            assert fringes.shape == (3, 8)
            scaled = fringes * cfg.n_reps
            assert np.max(np.abs(scaled - np.round(scaled))) < 1e-9
        assert result.outcome.size == 3 * 8 * 7

    def test_block_interleaving_preserves_counts(self):
        taus = (0.4e-6, 0.9e-6)
        base = MitigationConfig(tau_grid=taus, n_reps=6, rows=2, tau_probe=1.33e-6)
        blocked = replace(base, block_size=3)
        rng = substream(412, "mitblock")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0, finite_pulses=False)
        result = run_mitigation(env, blocked)
        assert result.no_feedback.shape == result.feedback.shape == (2, 2)
        assert result.row_times.shape == (2,)
        for trace in (result.syndrome_time, result.true_xi, result.est_xi, result.outcome):
            assert trace.shape == (2, 2, 6)
        # C order is cycle order, also across blocks: the trace file is written in it.
        assert np.all(np.diff(result.syndrome_time.ravel()) > 0)

    def test_stationary_mixture_property(self):
        # Open-loop fringe over a stationary symmetric defect equals the
        # average of the two pure-mode fringes (mode redrawn per cycle).
        taus = np.linspace(0.1e-6, 2.4e-6, 12)
        det = 2.0e6
        shots = 4000
        rng = substream(413, "mixture")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0, finite_pulses=False)
        for tau in taus:
            ones = 0
            for _ in range(shots):
                env.xi = int(rng.random() < 0.5)
                ones += scalar_ramsey_cycle(env, QP.f_high, float(tau), det)
            expected = 0.5 * (
                ramsey_probability(QP, QP.f_high, 0, float(tau), det)
                + ramsey_probability(QP, QP.f_high, 1, float(tau), det)
            )
            sigma = math.sqrt(expected * (1 - expected) / shots)
            assert abs(ones / shots - expected) < 4.5 * sigma


class TestStaleness:
    def test_error_rate_grows_with_dead_time(self):
        gamma = 4e3
        tau = default_tau_probe(QP)
        rates = []
        for t_wall in (2e-6, 14e-6):
            rng = substream(414, "stale", f"{t_wall}")
            qp = replace(QP, t_readout=0.0, t_reset=t_wall)
            env = make_environment(qp, TelegraphParams.symmetric(gamma), rng, finite_pulses=False)
            rates.append(syndrome_error_rate(env, 60_000, tau, False))
        measured_slope = (rates[1] - rates[0]) / (gamma * 12e-6)
        exact = [
            analytics.p_err_bandwidth_exact(QP.delta_tls, gamma, QP.alpha, QP.t2, t)
            for t in (2e-6, 14e-6)
        ]
        expected_slope = (exact[1] - exact[0]) / (gamma * 12e-6)
        assert measured_slope == pytest.approx(expected_slope, rel=0.3)


class TestEnvironment:
    def test_frozen_unpinned_rejected(self):
        rng = substream(415, "env")
        with pytest.raises(ValueError, match="pin"):
            make_environment(QP, FROZEN, rng)

    def test_pinned_mode_must_be_a_mode(self):
        for mode in (2, -1):
            with pytest.raises(ValueError, match="pinned_mode"):
                make_environment(QP, FROZEN, None, pinned_mode=mode)

    def test_stationary_draw(self):
        rng = substream(416, "env")
        counts = sum(
            make_environment(QP, TelegraphParams(3.0, 1.0), rng).xi for _ in range(4000)
        )
        sigma = math.sqrt(0.75 * 0.25 / 4000)
        assert abs(counts / 4000 - 0.75) < 4 * sigma

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        rates=st.tuples(*[st.sampled_from([0.0, 10.0, 3e4, 1e6])] * 2),
        pieces=st.lists(st.tuples(st.floats(0.0, 3e-5), st.booleans()), max_size=12),
    )
    def test_the_defect_path_is_a_function_of_lab_time(self, seed, rates, pieces):
        # Advancing to one end clock in any partition, by advance or dwell,
        # gives the mode, next switch and draws of advancing in one call.
        tls = TelegraphParams(*rates)
        pinned = seed % 2 if tls.total_rate == 0 else None
        split = make_environment(QP, tls, substream(426, "partition", seed), pinned)
        whole = copy.deepcopy(split)
        for dt, by_dwell in pieces:
            (split.dwell if by_dwell else split.advance)(dt)
        whole.advance(split.clock)  # from clock 0, so both end on the same clock
        assert (whole.clock, whole.xi, whole.switch_at) == (split.clock, split.xi, split.switch_at)
        assert whole.draw_counts() == split.draw_counts()
        assert split.switch_at >= split.clock

    def test_a_switching_defect_is_not_resampled(self):
        env = make_environment(QP, TelegraphParams(0.0, 5.0), substream(427, "resample"), pinned_mode=0)
        with pytest.raises(ValueError, match="frozen"):
            syndrome_error_rate(env, 10, default_tau_probe(QP), True)
        assert env.draw_counts()["readout_draws"] == 0

    def test_a_feedback_schedule_is_not_resampled(self):
        # A feedback cycle's frame gather takes the stage's one mode.
        env = make_environment(QP, FROZEN, substream(427, "resample-feedback"), pinned_mode=0)
        kinds, key = np.array([protocol.SYNDROME, protocol.FEEDBACK]), (QP.f_high, 1e-6, 0.0)
        with pytest.raises(ValueError, match="feedback"):
            protocol.CycleSchedule(env, kinds, [key], np.zeros((2, 2), dtype=np.intp), 1e-6, resample=True)

    @pytest.mark.parametrize(
        "run",
        [
            # Cycle by cycle and run by run: the staged runs equal the scalar engine, clock included
            # (tests/test_cli.py).
            lambda env, mp: mp.setattr(protocol.CycleSchedule, "run", schedule_run) or run_mitigation(
                env,
                MitigationConfig(tau_grid=(0.3e-6, 1.1e-6), tau_probe=default_tau_probe(QP), n_reps=3, rows=3,
                                 idle_between_rows=2e-5),
            ),
            lambda env, mp: mp.setattr(rb.SequenceExecutor, "run", executor_run) or rb.run_rb_interleaved(
                env,
                rb.RbConfig(tau_probe=default_tau_probe(QP), depths=(1, 8, 64), n_sequences=3,
                            shots_per_sequence=2, n_windows=2, idle_between_windows=2e-5),
            ),
        ],
        ids=["mitigation", "benchmarking"],
    )
    def test_clock_is_the_sum_of_every_defect_advance(self, monkeypatch, run):
        # Every interval the defect evolves over passes on the lab clock, in order.
        # dwell_segments advances through evolve, so each interval is counted once.
        advanced = []
        switches = []
        evolve = telegraph.evolve

        def record_evolve(xi, switch_at, params, start, dt, dwells, seen=None):
            advanced.append(dt)
            seen = [] if seen is None else seen  # a list to fill draws nothing more
            walked = evolve(xi, switch_at, params, start, dt, dwells, seen)
            switches.append(len(seen))
            return walked

        monkeypatch.setattr(telegraph, "evolve", record_evolve)
        rng = substream(419, "clock-sum")
        env = make_environment(QP, TelegraphParams(1e5, 1e5), rng, finite_pulses=True)
        run(env, monkeypatch)
        assert sum(switches) > 10
        assert env.clock == list(accumulate(advanced, initial=0.0))[-1]


@pytest.mark.parametrize(
    "config",
    [lambda **kw: MitigationConfig(tau_grid=(1e-6,), **kw), lambda **kw: rb.RbConfig(**kw)],
    ids=["mitigation", "benchmarking"],
)
class TestProbeTime:
    def test_required(self, config):
        with pytest.raises(TypeError, match="tau_probe"):
            config()

    @pytest.mark.parametrize("tau", [0.0, -1e-6, math.inf, math.nan])
    def test_rejects_a_time_that_is_not_finite_and_positive(self, config, tau):
        with pytest.raises(ValueError, match="^tau_probe must be finite and > 0$"):
            config(tau_probe=tau)


@pytest.mark.parametrize("tau", [-1e-9, math.inf, math.nan])
def test_mitigation_rejects_a_probe_grid_time_that_is_not_finite_and_nonnegative(tau):
    # The staged run takes every tau of the grid as a lab-time advance, as the cycles would.
    with pytest.raises(ValueError, match="^tau_grid values must be finite and nonnegative$"):
        MitigationConfig(tau_grid=(0.0, tau), tau_probe=1e-6)


class TestXGatePopulation:
    def test_matches_rabi_formula_without_decoherence(self):
        from bistable_qubit.bloch import rabi_transition_probability

        for f_c in (IDEAL.f_high, IDEAL.f_low, 0.5 * (IDEAL.f_low + IDEAL.f_high)):
            for xi in (0, 1):
                pop = x_gate_excited_population(IDEAL, f_c, xi)
                dq = f_c - IDEAL.mode_frequency(xi)
                assert pop == pytest.approx(rabi_transition_probability(dq, IDEAL), abs=1e-12)

    def test_decoherence_lowers_population(self):
        assert x_gate_excited_population(QP, QP.f_high, 0) < 1.0


def _reference_cycle(env, f_c, tau, phase):
    """The stepwise two-pulse cycle with no memo: each Bloch step applied as its mode is drawn from ``env.dwells``.

    Advances ``env.clock``; returns the state before readout and whether the
    mode changed anywhere between the first pulse and the second.
    """
    qp = env.qubit
    state = GROUND
    xi_first = env.xi
    switched = False
    duration = pulse_duration(HALF_PI, qp) if env.finite_pulses else 0.0
    for k, axis_phase in enumerate((0.0, phase)):
        if k == 1:
            segments, env.xi, env.switch_at = telegraph.dwell_segments(
                env.xi, env.switch_at, env.tls_params, env.clock, tau, env.dwells
            )
            for xi, dt in segments:
                state = apply(free_map(detuning(qp, f_c, xi), dt, qp), state)
            switched = len(segments) > 1 or env.xi != xi_first
            env.clock += tau
        state = apply(pulse_map(axis_phase, -HALF_PI, detuning(qp, f_c, env.xi), qp, env.finite_pulses), state)
        if duration > 0.0:
            env.xi, env.switch_at = telegraph.evolve(
                env.xi, env.switch_at, env.tls_params, env.clock, duration, env.dwells
            )
        env.clock += duration
    return state, switched


class TestCycleMemo:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        high=st.booleans(),
        xi=st.sampled_from([0, 1]),
        tau=st.floats(0.0, 5e-6),
        phase=st.floats(-20.0, 20.0),
        finite=st.booleans(),
    )
    def test_memoised_switch_free_state_is_bit_identical(self, high, xi, tau, phase, finite):
        key = (QP, finite, QP.f_high if high else QP.f_low, xi, tau, phase)
        # The key and every key one field away, all through the memo, so a
        # field missing from the key would return a neighbour's state.
        keys = [key]
        for i, other in ((1, not finite), (2, QP.f_low if high else QP.f_high), (3, 1 - xi),
                         (4, 2.0 * tau + 1e-7), (5, phase + 1.0), (0, IDEAL)):
            keys.append(key[:i] + (other,) + key[i + 1:])
        states = [_switch_free_state(*k) for k in keys]
        for k, state in zip(keys, states):
            qp, fin, f_c, mode, t, ph = k
            assert state == _switch_free_state(*k) == _switch_free_state.__wrapped__(*k)
            env = make_environment(qp, FROZEN, substream(417, "memo"), pinned_mode=mode, finite_pulses=fin)
            assert state == _reference_cycle(env, f_c, t, ph)[0]

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        rate=st.sampled_from([0.0, 1e3, 1e5, 1e6]),
        high=st.booleans(),
        tau=st.floats(0.0, 5e-6),
        phase=st.floats(-20.0, 20.0),
        finite=st.booleans(),
    )
    def test_cycle_matches_stepwise_reference(self, seed, rate, high, tau, phase, finite):
        tls = TelegraphParams(rate, 0.6 * rate)
        env = make_environment(QP, tls, substream(417, "cycle", seed), pinned_mode=seed % 2, finite_pulses=finite)
        ref_env = copy.deepcopy(env)
        f_c = QP.f_high if high else QP.f_low
        for _ in range(15):
            state = _two_pulse_cycle(env, f_c, tau, phase)
            ref_state, _ = _reference_cycle(ref_env, f_c, tau, phase)
            assert (state, env.clock, env.xi) == (ref_state, ref_env.clock, ref_env.xi)
            assert env.draw_counts() == ref_env.draw_counts()

    def test_switching_cycles_match_the_reference(self):
        # Dwell ~ tau: cycles with and without a switch both occur.
        tls = TelegraphParams(4e5, 3e5)
        env = make_environment(QP, tls, substream(418, "cycle-switching"), pinned_mode=0)
        ref_env = copy.deepcopy(env)
        switched = 0
        for k in range(400):
            tau = 0.5e-6 + 1e-8 * k
            state = _two_pulse_cycle(env, QP.f_high, tau, 0.3)
            ref_state, ref_switched = _reference_cycle(ref_env, QP.f_high, tau, 0.3)
            assert (state, env.clock, env.xi, env.switch_at) == (ref_state, ref_env.clock, ref_env.xi, ref_env.switch_at)
            assert env.draw_counts() == ref_env.draw_counts()
            switched += ref_switched
        assert 100 < switched < 300


class TestStagedMitigation:
    def test_frozen_run_draws_two_uniforms_a_cycle_and_no_dwell(self):
        config = MitigationConfig(tau_grid=(0.0, 1e-6), tau_probe=default_tau_probe(QP), n_reps=3, rows=2,
                                  idle_between_rows=1.0)
        env = make_environment(QP, FROZEN, substream(423, "frozen-draws"), pinned_mode=1)
        result = run_mitigation(env, config)
        cycles = 3 * result.outcome.size
        assert env.draw_counts() == {"defect_draws": 0, "readout_draws": 2 * cycles, "sequences_words": 0}


class TestStagedRepeats:
    @pytest.mark.parametrize("resample", [True, False])
    def test_error_rate_rejects_a_zero_probe_time_before_any_draw(self, resample):
        env = make_environment(QP, FROZEN, substream(429, "zero-probe"), pinned_mode=0)
        with pytest.raises(ValueError, match="tau_probe"):
            syndrome_error_rate(env, 10, 0.0, resample)
        assert env.draw_counts() == {"defect_draws": 0, "readout_draws": 0, "sequences_words": 0}
        assert env.clock == 0.0


# The laws of the streams, checked on many cheap replicas within 4 binomial
# sigma: a fault that the staged run and the scalar engine share (a dwell
# drawn at the other mode's rate, a readout uniform used twice) keeps them
# equal, but breaks these.
LAW_TLS = TelegraphParams(1500.0, 500.0)  # asymmetric: the stationary L share is 3/4


def _within_4_sigma(hits: int, n: int, p: float) -> bool:
    return abs(hits - n * p) < 4.0 * math.sqrt(n * p * (1.0 - p))


class TestStreamLaws:
    def test_mode_changes_across_an_idle_follow_the_propagator(self):
        idle = 4e-4  # total rate x idle = 0.8
        changed, started = [0, 0], [0, 0]
        for k in range(3000):
            env = make_environment(QP, LAW_TLS, substream(424, "law-idle", k))
            xi = env.xi
            for _ in range(4):
                env.advance(idle / 4)
            started[xi] += 1
            changed[xi] += env.xi != xi
        for xi in (0, 1):
            assert _within_4_sigma(changed[xi], started[xi], telegraph.flip_probability(LAW_TLS, xi, idle)), xi

    def test_confusion_per_mode_follows_the_error_budget(self):
        # Instantaneous pulses probing at 1/(2 delta_tls) with symmetric
        # assignment errors: the static error p0 is p_err_bandwidth_exact at
        # gamma = 0.  Over the dead time the mode the estimate is compared
        # with has changed, seen backwards from it, with the flip probability
        # f of the (reversible) process, so the error given mode x is
        # p0 + f_x (1 - 2 p0); with symmetric rates this is
        # p_err_bandwidth_exact's dead-time factor.  A switch within the
        # 1.3 us probe (rate x tau < 2e-3) is left out.
        t_wall = 2e-4
        qp = replace(QP, t_readout=0.0, t_reset=t_wall)
        tau = 0.5 / qp.delta_tls
        config = MitigationConfig(tau_grid=(0.5e-6,), tau_probe=tau, n_reps=10)
        wrong, seen = np.zeros(2), np.zeros(2)
        for k in range(2000):
            env = make_environment(qp, LAW_TLS, substream(425, "law-confusion", k), finite_pulses=False)
            result = run_mitigation(env, config)
            for xi in (0, 1):
                at = result.true_xi == xi
                seen[xi] += at.sum()
                wrong[xi] += (result.est_xi[at] != xi).sum()
        p0 = analytics.p_err_bandwidth_exact(qp.delta_tls, 0.0, qp.alpha, qp.t2, 0.0)
        for xi in (0, 1):
            expected = p0 + telegraph.flip_probability(LAW_TLS, xi, t_wall) * (1.0 - 2.0 * p0)
            assert _within_4_sigma(int(wrong[xi]), int(seen[xi]), expected), (xi, wrong[xi] / seen[xi], expected)


def _cosine_model(taus, fit, t2):
    return fit.offset + fit.amplitude * np.exp(-taus / t2) * np.cos(
        2 * math.pi * fit.frequency * taus + fit.phase
    )
