"""Clifford group, decay fitting, interleaved benchmarking execution."""

import itertools
import math

import numpy as np
import pytest

from bistable_qubit import benchmarking as rb
from bistable_qubit import telegraph
from bistable_qubit.bloch import BlochState, PulseSpec, QubitParams, apply_pulse, detuning, free_evolve
from bistable_qubit.protocol import make_environment
from bistable_qubit.streams import substream
from bistable_qubit.telegraph import TelegraphParams

QP = QubitParams.defaults()
IDEAL = QubitParams.defaults(
    t1=math.inf, t_phi=math.inf, readout_eps_0to1=0.0, readout_eps_1to0=0.0
)
FROZEN = TelegraphParams(0.0, 0.0)


def _slot_by_slot(executor, indices, f_c, segments):
    """Reference executor: one apply_pulse/free_evolve pair per slot.

    The mode of each slot is the one in force at its start; a slot consumes
    its duration from the dwell segments, and a switch takes effect from the
    next slot.
    """
    qp = executor.env.qubit
    state = BlochState.ground()
    seg_idx = 0
    xi, seg_rem = segments[0]
    for ci in indices:
        for gate in executor.table[ci].pulses:
            dq = detuning(qp, f_c, xi)
            pulse = PulseSpec.finite(gate.axis_phase, gate.angle, qp)
            state = apply_pulse(state, pulse, dq, qp)
            idle = executor.slot - pulse.duration
            if idle > 0.0:
                state = free_evolve(state, dq, idle, qp)
            spent = executor.slot
            while spent > seg_rem and seg_idx + 1 < len(segments):
                spent -= seg_rem
                seg_idx += 1
                xi, seg_rem = segments[seg_idx]
            seg_rem = max(seg_rem - spent, 0.0)
    return state


class TestCliffordTable:
    def test_group_size_and_distinctness(self):
        table = rb.clifford_table()
        assert len(table) == 24
        for a, b in itertools.combinations(table, 2):
            overlap = abs(np.trace(a.unitary.conj().T @ b.unitary)) / 2.0
            assert overlap < 1.0 - 1e-9

    def test_identity_has_empty_decomposition(self):
        table = rb.clifford_table()
        assert table[rb.identity_index()].pulses == ()

    def test_inverses_compose_to_identity(self):
        table = rb.clifford_table()
        inverses = rb._inverse_indices()
        for element in table:
            product = table[inverses[element.index]].unitary @ element.unitary
            assert abs(abs(np.trace(product)) / 2.0 - 1.0) < 1e-12

    def test_group_closure_all_576_products(self):
        table = rb.clifford_table()
        for a in table:
            for b in table:
                idx = rb.match_element(a.unitary @ b.unitary)
                assert 0 <= idx < 24

    def test_product_table_is_a_group_action(self):
        prod = rb._product_table()
        identity = rb.identity_index()
        assert np.all(prod[identity, :] == np.arange(24))
        assert np.all(prod[:, identity] == np.arange(24))
        counts = np.apply_along_axis(lambda row: np.unique(row).size, 1, prod)
        assert np.all(counts == 24)  # each row is a permutation

    def test_decomposition_unitaries_match_elements(self):
        for element in rb.clifford_table():
            rebuilt = rb.decomposition_unitary(element.pulses)
            overlap = abs(np.trace(rebuilt.conj().T @ element.unitary)) / 2.0
            assert overlap > 1.0 - 1e-12

    def test_gates_per_clifford(self):
        assert rb.gates_per_clifford() == pytest.approx(44.0 / 24.0)

    def test_non_clifford_rejected(self):
        theta = 0.3
        u = np.array(
            [[math.cos(theta / 2), -1j * math.sin(theta / 2)],
             [-1j * math.sin(theta / 2), math.cos(theta / 2)]]
        )
        with pytest.raises(ValueError):
            rb.match_element(u)


class TestRandomSequence:
    def test_empty_sequence_recovery_is_identity(self):
        rng = substream(501, "seq0")
        indices, recovery = rb.random_sequence(0, rng)
        assert indices == []
        assert recovery == rb.identity_index()

    def test_single_element_recovery_is_inverse(self):
        rng = substream(502, "seq1")
        for _ in range(20):
            indices, recovery = rb.random_sequence(1, rng)
            assert recovery == rb._inverse_indices()[indices[0]]

    def test_recovery_closes_to_identity(self):
        table = rb.clifford_table()
        rng = substream(503, "seqn")
        for _ in range(100):
            length = int(rng.integers(0, 33))
            indices, recovery = rb.random_sequence(length, rng)
            u = np.eye(2, dtype=complex)
            for idx in indices + [recovery]:
                u = table[idx].unitary @ u
            assert abs(abs(np.trace(u)) / 2.0 - 1.0) < 1e-12

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            rb.random_sequence(-1, substream(504, "neg"))


class TestExecutor:
    def test_noiseless_sequences_return_to_ground(self):
        rng = substream(505, "exec")
        env = make_environment(IDEAL, FROZEN, rng, pinned_mode=0)
        executor = rb.SequenceExecutor(env)
        for _ in range(300):
            length = int(rng.integers(0, 33))
            indices, recovery = rb.random_sequence(length, rng)
            m, _ = executor.run(indices + [recovery], IDEAL.f_high, 0.0, rng)
            assert m == 0

    @pytest.mark.parametrize("frame", ["high", "low"])
    def test_run_matches_slot_by_slot_reference(self, frame, monkeypatch):
        # Fast switching puts several mode switches inside each sequence.
        fast = TelegraphParams(2e6, 2e6)
        f_c = QP.f_high if frame == "high" else QP.f_low
        captured = []
        measure = rb.measure

        def capture(state, qp, rng):  # the state the executor hands to readout
            captured.append(state)
            return measure(state, qp, rng)

        monkeypatch.setattr(rb, "measure", capture)
        switched = 0
        for k in range(20):
            env = make_environment(QP, fast, substream(506, "paths", k))
            executor = rb.SequenceExecutor(env)
            seq = [int(i) for i in np.random.default_rng(k).integers(0, 24, size=64)]
            total = sum(executor.durations[i] for i in seq)
            segments, _ = telegraph.dwell_segments(env.tls, fast, total, substream(506, "run", k))
            switched += len(segments) > 1
            executor.run(seq, f_c, 0.0, substream(506, "run", k))
            expected = _slot_by_slot(executor, seq, f_c, segments)
            assert (captured[-1].x, captured[-1].y, captured[-1].z) == pytest.approx(
                (expected.x, expected.y, expected.z), abs=1e-12
            )
        assert switched >= 15

    def test_clock_advances_by_sequence_plus_dead_time(self):
        rng = substream(507, "clock")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0)
        executor = rb.SequenceExecutor(env)
        seq = [0, 1, 2]
        total = sum(executor.durations[i] for i in seq)
        _, clock = executor.run(seq, QP.f_high, 5.0, rng)
        assert clock == pytest.approx(5.0 + total + QP.t_wall)


class TestFitExponential:
    DEPTHS = np.array([1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048])

    def test_exact_inversion(self):
        survivals = 0.5 * 0.999**self.DEPTHS + 0.5
        fit = rb.fit_exponential(self.DEPTHS, survivals)
        assert fit.ok
        assert fit.amplitude == pytest.approx(0.5, abs=1e-9)
        assert fit.decay == pytest.approx(0.999, abs=1e-9)
        assert fit.offset == pytest.approx(0.5, abs=1e-9)
        assert fit.r_clifford == pytest.approx(0.0005, abs=1e-9)

    def test_binomial_noise_self_consistency(self):
        rng = substream(509, "fitmc")
        p_true = 0.998
        model = 0.5 * p_true**self.DEPTHS + 0.5
        n = 100
        survivals = rng.binomial(n, model) / n
        weights = n / np.clip(survivals * (1 - survivals) + 1e-4, 1e-4, None)
        fit = rb.fit_exponential(self.DEPTHS, survivals, weights)
        assert fit.ok
        assert abs(fit.decay - p_true) < 3.0 * fit.decay_err

    def test_constant_survivals_give_zero_error(self):
        fit = rb.fit_exponential(self.DEPTHS, np.full(self.DEPTHS.size, 0.97))
        assert fit.ok
        assert fit.decay == 1.0
        assert fit.r_clifford == 0.0

    def test_growing_survivals_flagged(self):
        survivals = np.clip(0.4 + 0.0003 * self.DEPTHS, 0, 1)
        fit = rb.fit_exponential(self.DEPTHS, survivals)
        assert not fit.ok

    def test_depth_count_validation(self):
        with pytest.raises(ValueError):
            rb.fit_exponential([1, 2], [0.9, 0.8])
        with pytest.raises(ValueError):
            rb.fit_exponential([1, 2, 4], [0.9, 0.8, 1.2])

    def test_injected_depolarizing_recovered(self):
        # Oracle: analytic depolarizing composition with per-Clifford strength.
        rng = substream(510, "depol")
        lam = 0.002
        d = 1.0 - 2.0 * lam
        model = 0.47 * d ** (self.DEPTHS + 1.0) + 0.5
        n = 400
        survivals = rng.binomial(n, model) / n
        weights = n / np.clip(survivals * (1 - survivals), 1e-4, None)
        fit = rb.fit_exponential(self.DEPTHS, survivals, weights)
        assert fit.ok
        assert abs(fit.r_clifford - lam) < 3.0 * fit.r_clifford_err

    def test_r_native_scaling(self):
        survivals = 0.5 * 0.999**self.DEPTHS + 0.5
        fit = rb.fit_exponential(self.DEPTHS, survivals)
        assert fit.r_native == pytest.approx(fit.r_clifford / rb.gates_per_clifford())


class TestInterleavedRun:
    def test_noiseless_survival_is_spam_floor(self):
        qp = QubitParams.defaults(t1=math.inf, t_phi=math.inf, readout_eps_1to0=0.0)
        rng = substream(511, "spamfloor")
        env = make_environment(qp, FROZEN, rng, pinned_mode=0)
        cfg = rb.RbConfig(depths=(1, 8, 64, 512), n_sequences=400, n_windows=1)
        series = rb.run_rb_interleaved(env, cfg, rng)
        win = series.windows[0]
        floor = 1.0 - qp.readout_eps_0to1
        for survivals in (win.survivals_nofb, win.survivals_fb):
            sigma = math.sqrt(floor * (1 - floor) / win.shots_per_depth)
            assert np.all(np.abs(survivals - floor) < 4.0 * sigma)
        # With only flat noise left, the decay is weakly identified: the fit is
        # either flagged or consistent with zero error.
        fit = win.fit_nofb
        assert (not fit.ok) or abs(fit.r_native) < max(3.0 * fit.r_native_err, 2e-5)

    def test_all_noise_off_gives_zero_error(self):
        rng = substream(514, "noiseoff")
        env = make_environment(IDEAL, FROZEN, rng, pinned_mode=0)
        cfg = rb.RbConfig(depths=(1, 8, 64, 512), n_sequences=50, n_windows=1)
        series = rb.run_rb_interleaved(env, cfg, rng)
        win = series.windows[0]
        assert np.all(win.survivals_nofb == 1.0)
        assert np.all(win.survivals_fb == 1.0)
        assert win.fit_nofb.ok and win.fit_nofb.r_native == 0.0
        assert win.fit_fb.ok and win.fit_fb.r_native == 0.0

    def test_decoherence_floor_value(self):
        assert rb.decoherence_floor_per_gate(QP) == pytest.approx(
            QP.t_pi * (1 / QP.t1 + 1 / QP.t_phi) / 3.0
        )
        assert rb.decoherence_floor_per_gate(QP) == pytest.approx(4.79e-4, rel=5e-3)

    def test_pinned_floor_run(self):
        rng = substream(512, "floor")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0)
        cfg = rb.RbConfig(n_sequences=30, shots_per_sequence=4, n_windows=1)
        series = rb.run_rb_interleaved(env, cfg, rng)
        win = series.windows[0]
        floor = rb.decoherence_floor_per_gate(QP)
        assert win.fit_nofb.ok
        assert abs(win.fit_nofb.r_native - floor) < 4.0 * win.fit_nofb.r_native_err
        assert win.mode_fraction_l == 0.0

    def test_window_bookkeeping(self):
        rng = substream(513, "windows")
        env = make_environment(QP, TelegraphParams.from_dwell_time(1.0), rng)
        cfg = rb.RbConfig(
            depths=(1, 4, 16), n_sequences=5, n_windows=3, idle_between_windows=0.5
        )
        series = rb.run_rb_interleaved(env, cfg, rng)
        assert len(series.windows) == 3
        starts = [w.lab_time_start for w in series.windows]
        assert starts == sorted(starts)
        for win in series.windows:
            assert win.lab_time_end > win.lab_time_start
            assert 0.0 <= win.mode_fraction_l <= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            rb.RbConfig(depths=())
        with pytest.raises(ValueError):
            rb.RbConfig(depths=(4, 2))
        with pytest.raises(ValueError):
            rb.RbConfig(depths=(1, 2), n_sequences=0)

    def test_feedback_arm_wins_below_quarter_error_rate(self):
        # Lengthening the dead time drives the estimate stale; while the
        # empirical syndrome error stays below 1/4 the feedback arm's fitted
        # infidelity must not exceed the open-loop arm's (3-sigma on means).
        from dataclasses import replace as dreplace

        from bistable_qubit.protocol import default_tau_probe, syndrome_error_rate

        cfg = rb.RbConfig(
            depths=(1, 4, 16, 64, 256, 1024),
            n_sequences=42,
            shots_per_sequence=4,
            n_windows=12,
            idle_between_windows=2e-3,
        )
        dwell = 5e-3
        for t_wall in (8e-6, 1e-3):
            qp = dreplace(QP, t_readout=0.0, t_reset=t_wall)
            rng = substream(515, "threshold", f"{t_wall}")
            env = make_environment(qp, TelegraphParams.from_dwell_time(dwell), rng)
            p_err = syndrome_error_rate(env, 20_000, default_tau_probe(qp), rng)
            assert p_err < 0.25
            env = make_environment(qp, TelegraphParams.from_dwell_time(dwell), rng)
            series = rb.run_rb_interleaved(env, cfg, rng)
            valid = [w for w in series.windows if w.fit_nofb.ok and w.fit_fb.ok]
            r_fb = np.array([w.fit_fb.r_native for w in valid])
            r_nofb = np.array([w.fit_nofb.r_native for w in valid])
            sem = math.sqrt(
                r_fb.var(ddof=1) / r_fb.size + r_nofb.var(ddof=1) / r_nofb.size
            )
            assert r_fb.mean() <= r_nofb.mean() + 3.0 * sem
