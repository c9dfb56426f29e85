"""Clifford group, decay fitting, interleaved benchmarking execution."""

import collections
import copy
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistable_qubit import benchmarking as rb
from bistable_qubit import protocol, telegraph
from bistable_qubit.bloch import (
    GROUND,
    QubitParams,
    apply,
    detuning,
    free_map,
    pulse_duration,
    pulse_map,
    readout_bits,
)
from bistable_qubit.protocol import default_tau_probe, make_environment, syndrome_cycle
from bistable_qubit.streams import substream, words_drawn
from bistable_qubit.telegraph import TelegraphParams

import scalar_engine
from scalar_engine import executor_run, slot_steps, step

QP = QubitParams.defaults()
IDEAL = QubitParams.defaults(
    t1=math.inf, t_phi=math.inf, readout_eps_0to1=0.0, readout_eps_1to0=0.0
)
FROZEN = TelegraphParams(0.0, 0.0)


def _slot_by_slot(executor, indices, f_c, segments):
    """Reference executor: per slot, its pulse map and then its idle's free map.

    The mode of each slot is the one in force at its start; a slot consumes
    its duration from the dwell segments, and a switch takes effect from the
    next slot.
    """
    qp = executor.env.qubit
    state = GROUND
    seg_idx = 0
    xi, seg_rem = segments[0]
    for ci in indices:
        for axis_phase, angle in rb.PULSES[ci]:
            dq = detuning(qp, f_c, xi)
            state = apply(pulse_map(axis_phase, angle, dq, qp, True), state)
            idle = executor.slot - pulse_duration(angle, qp)
            if idle > 0.0:
                state = apply(free_map(dq, idle, qp), state)
            spent = executor.slot
            while spent > seg_rem and seg_idx + 1 < len(segments):
                spent -= seg_rem
                seg_idx += 1
                xi, seg_rem = segments[seg_idx]
            seg_rem = max(seg_rem - spent, 0.0)
    return state


class TestCliffordTable:
    def test_group_size_and_distinctness(self):
        assert len(rb.PULSES) == len(rb.UNITARIES) == 24
        for a, b in itertools.combinations(rb.UNITARIES, 2):
            overlap = abs(np.trace(a.conj().T @ b)) / 2.0
            assert overlap < 1.0 - 1e-9

    def test_identity_has_empty_decomposition(self):
        assert rb.PULSES[rb.IDENTITY_INDEX] == ()

    def test_inverses_compose_to_identity(self):
        for index, unitary in enumerate(rb.UNITARIES):
            product = rb.UNITARIES[rb.INVERSE[index]] @ unitary
            assert abs(abs(np.trace(product)) / 2.0 - 1.0) < 1e-12

    def test_group_closure_all_576_products(self):
        for a in rb.UNITARIES:
            for b in rb.UNITARIES:
                idx = rb.match_element(a @ b)
                assert 0 <= idx < 24

    def test_tables_equal_a_per_pair_build(self):
        product = [[rb.match_element(a @ b) for b in rb.UNITARIES] for a in rb.UNITARIES]
        assert rb.PRODUCT.tolist() == product
        assert rb.INVERSE == tuple(rb.match_element(u.conj().T) for u in rb.UNITARIES)

    def test_product_table_is_a_group_action(self):
        prod = np.array(rb.PRODUCT)
        identity = rb.IDENTITY_INDEX
        assert np.all(prod[identity, :] == np.arange(24))
        assert np.all(prod[:, identity] == np.arange(24))
        counts = np.apply_along_axis(lambda row: np.unique(row).size, 1, prod)
        assert np.all(counts == 24)  # each row is a permutation

    def test_decomposition_unitaries_match_elements(self):
        for pulses, unitary in zip(rb.PULSES, rb.UNITARIES):
            rebuilt = rb.decomposition_unitary(pulses)
            overlap = abs(np.trace(rebuilt.conj().T @ unitary)) / 2.0
            assert overlap > 1.0 - 1e-12

    def test_gates_per_clifford(self):
        assert rb.GATES_PER_CLIFFORD == pytest.approx(44.0 / 24.0)

    def test_non_clifford_rejected(self):
        theta = 0.3
        u = np.array(
            [[math.cos(theta / 2), -1j * math.sin(theta / 2)],
             [-1j * math.sin(theta / 2), math.cos(theta / 2)]]
        )
        with pytest.raises(ValueError):
            rb.match_element(u)
        with pytest.raises(ValueError):
            rb.match_element(np.stack([rb.UNITARIES[3], u]))


class TestRandomSequence:
    def test_empty_sequence_recovery_is_identity(self):
        rng = substream(501, "seq0")
        assert rb.random_sequence(0, rng).tolist() == [[rb.IDENTITY_INDEX]]
        assert words_drawn(rng) == 0

    def test_single_element_recovery_is_inverse(self):
        rng = substream(502, "seq1")
        for index, recovery in rb.random_sequence(1, rng, 20).tolist():
            assert recovery == rb.INVERSE[index]

    def test_recovery_closes_to_identity(self):
        rng = substream(503, "seqn")
        for _ in range(100):
            length = int(rng.integers(0, 33))
            u = np.eye(2, dtype=complex)
            for idx in rb.random_sequence(length, rng)[0]:
                u = rb.UNITARIES[idx] @ u
            assert abs(abs(np.trace(u)) / 2.0 - 1.0) < 1e-12

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 10_000), length=st.one_of(st.integers(0, 70), st.sampled_from([255, 1024, 2049])))
    def test_pairwise_recovery_equals_the_loop_over_the_product_table(self, seed, length):
        rng = substream(504, "pairwise", seed)
        reference = copy.deepcopy(rng)
        *indices, recovery = rb.random_sequence(length, rng)[0].tolist()
        assert indices == reference.integers(0, 24, size=length).tolist()
        composed = rb.IDENTITY_INDEX
        for idx in indices:  # one index at a time, in time order
            composed = rb.PRODUCT[idx][composed]
        assert recovery == rb.INVERSE[composed]

    @pytest.mark.parametrize("length", [0, 1, 17, 2048])
    def test_a_block_draw_reads_the_stream_as_row_draws(self, length):
        # The staged run draws a depth's sequences in one call: it must read the
        # sequences stream as one call per sequence does, to the word.
        block, rows = substream(521, "block", length), substream(521, "block", length)
        drawn = block.integers(0, 24, size=(50, length))
        assert drawn.tolist() == [rows.integers(0, 24, size=length).tolist() for _ in range(50)]
        assert words_drawn(block) == words_drawn(rows)
        assert repr(block.bit_generator.state) == repr(rows.bit_generator.state)  # the 32-bit half-word too

    @pytest.mark.parametrize("length", [0, 1, 2, 17, 2048])
    def test_block_recoveries_equal_one_sequence_at_a_time(self, length):
        block, rows = substream(522, "recoveries", length), substream(522, "recoveries", length)
        sequences = rb.random_sequence(length, block, 40)
        assert sequences.shape == (40, length + 1)
        assert sequences.tolist() == [rb.random_sequence(length, rows)[0].tolist() for _ in range(40)]
        assert repr(block.bit_generator.state) == repr(rows.bit_generator.state)  # the 32-bit half-word too

    def test_row_cumsum_adds_left_to_right(self):
        # A run's duration is the running sum of its Cliffords' durations, which
        # the staged run takes from a row cumsum: it must equal the left-to-right
        # Python sum bit for bit (np.sum, pairwise, does not).  rb-slow's shapes.
        executor = rb.SequenceExecutor(make_environment(QP, FROZEN, substream(523, "sums"), pinned_mode=0))
        sequences = rb.random_sequence(2048, substream(523, "durations"), 84)
        durations = np.array(executor.durations)[sequences]
        totals = np.cumsum(durations, axis=1)[:, -1].tolist()
        assert totals != durations.sum(axis=1).tolist()  # the order of the additions shows
        for row, total in zip(sequences.tolist(), totals):
            expected = 0.0
            for i in row:
                expected += executor.durations[i]
            assert total == expected

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            rb.random_sequence(-1, substream(504, "neg"))


def _capture_decisions(monkeypatch):
    """Record the z-components the executor hands to its readout decisions, flattened in run order."""
    captured = []

    def capture(z, u1, u2, qp):
        captured.extend(np.ravel(z).tolist())
        return readout_bits(z, u1, u2, qp)

    monkeypatch.setattr(rb, "readout_bits", capture)
    return captured


def _record_stepping(monkeypatch):
    """Record the code rows of every ``_step_batch`` call, one list of rows per call, and per
    call the rows that runs a switch lands in take, the last ones."""
    batches, segmented = [], []
    step_batch, with_segmented_rows = rb.SequenceExecutor._step_batch, rb.SequenceExecutor._with_segmented_rows

    def record_rows(self, codes, sequences, rows, *args):
        padded = with_segmented_rows(self, codes, sequences, rows, *args)
        segmented.append(padded[len(codes):].tolist())
        return padded

    def record_batch(self, codes):
        batches.append(codes.tolist())
        if len(segmented) < len(batches):  # no run of the depth has a switch land in it
            segmented.append([])
        return step_batch(self, codes)

    monkeypatch.setattr(rb.SequenceExecutor, "_step_batch", record_batch)
    monkeypatch.setattr(rb.SequenceExecutor, "_with_segmented_rows", record_rows)
    return batches, segmented


def _key(row):
    """The (sequence bytes, block offset) of a switch-free code row: every code composed, in one block."""
    offset = 24 * (row[-1] // 24)
    return bytes(code - offset for code in row), offset


def _reference_codes(qp, indices, f_c, segments):
    """The gather-table codes of the maps ``scalar_engine.slot_steps`` applies, leading IDENTITY_INDEX codes dropped."""
    frame, codes = int(f_c == qp.f_low), []
    for xi, i, k in slot_steps(qp, indices, segments):
        block = 2 * xi + frame
        codes.append(24 * block + i if k is None else 96 + 6 * block + int(rb.KINDS[i, k]))
    return _unpadded(codes)


def _unpadded(row):
    """A code row without its leading IDENTITY_INDEX codes."""
    while row and row[0] == rb.IDENTITY_INDEX:
        row = row[1:]
    return row


class TestExecutor:
    def test_noiseless_sequences_return_to_ground(self):
        rng = substream(505, "exec")
        env = make_environment(IDEAL, FROZEN, rng, pinned_mode=0)
        executor = rb.SequenceExecutor(env)
        for length in range(0, 33, 4):
            bits, modes = executor.run(rb.random_sequence(length, rng, 30), 2, default_tau_probe(IDEAL))
            assert bits.shape == (30, 2, 2) and modes.tolist() == [0] * 30
            assert not bits.any()

    @pytest.mark.parametrize("frame", ["high", "low"])
    def test_run_matches_slot_by_slot_reference(self, frame, monkeypatch):
        # Fast switching puts several mode switches inside each sequence.  The
        # one open-loop run is read out from the slot-by-slot state, and so is
        # the feedback run when the syndrome retunes to ``frame``.
        fast = TelegraphParams(2e6, 2e6)
        f_c = QP.f_high if frame == "high" else QP.f_low
        captured = _capture_decisions(monkeypatch)
        switched = checked = 0
        for k in range(40):
            env = make_environment(QP, fast, substream(506, "paths", k))
            executor = rb.SequenceExecutor(env)
            seq = [int(i) for i in np.random.default_rng(k).integers(0, 24, size=64)]
            total = sum(executor.durations[i] for i in seq)
            segments, _, _ = telegraph.dwell_segments(
                env.xi, env.switch_at, fast, env.clock, total, copy.deepcopy(env.dwells)
            )
            switched += len(segments) > 1
            ahead = copy.deepcopy(env)  # the open-loop run, its readout and the syndrome cycle
            ahead.dwell(total)
            ahead.readout(1.0)
            estimate = syndrome_cycle(ahead, default_tau_probe(QP))[1]
            fb_segments = ahead.dwell(total)
            executor.run(np.array([seq]), 1, default_tau_probe(QP))
            if frame == "high":
                expected = _slot_by_slot(executor, seq, f_c, segments)
                assert captured[-2] == pytest.approx(expected[2], abs=1e-12)
                assert step(QP, seq, f_c, segments) == pytest.approx(expected, abs=1e-12)
                checked += 1
            if QP.mode_frequency(estimate) == f_c:
                expected = _slot_by_slot(executor, seq, f_c, fb_segments)
                assert captured[-1] == pytest.approx(expected[2], abs=1e-12)
                assert step(QP, seq, f_c, fb_segments) == pytest.approx(expected, abs=1e-12)
                checked += 1
        assert switched >= 30 and checked >= 15

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        lengths=st.permutations([0, 1, 2049]).flatmap(
            lambda order: st.sampled_from([3, 7, 33]).map(lambda odd: order + [odd])
        ),
    )
    def test_batched_state_equals_the_scalar_step(self, seed, lengths):
        # Batches of lengths 0, 1, odd and 2049, each row in both modes and both frames; then
        # all of them in one batch, each row front-padded with IDENTITY_INDEX.
        env = make_environment(QP, FROZEN, substream(518, "batch", seed), pinned_mode=0)
        executor = rb.SequenceExecutor(env)
        draw = np.random.default_rng(seed)
        padded, everything = np.full((0, max(lengths)), rb.IDENTITY_INDEX, dtype=np.uint8), []
        for length in lengths:
            if length == 1:  # distinct single elements
                sequences = draw.permutation(24)[:3, None]
            else:
                sequences = draw.integers(0, 24, size=(1 if length == 0 else 3, length))
            rows, expected = [], []
            for seq in sequences.tolist():
                total = sum(executor.durations[i] for i in seq)
                for xi in (0, 1):
                    for frame, f_c in enumerate((QP.f_high, QP.f_low)):
                        rows.append([i + 24 * (2 * xi + frame) for i in seq])
                        expected.append(step(QP, seq, f_c, [(xi, total)])[2])
            codes = np.array(rows, dtype=np.uint8).reshape(len(rows), length)
            assert executor._step_batch(codes).tolist() == expected
            padded = np.concatenate((padded, np.full((len(rows), max(lengths)), rb.IDENTITY_INDEX, dtype=np.uint8)))
            padded[len(padded) - len(rows):, max(lengths) - length:] = codes
            everything += expected
        assert [z.hex() for z in executor._step_batch(padded).tolist()] == [z.hex() for z in everything]

    def test_each_distinct_key_is_stepped_once(self, monkeypatch):
        # A frozen defect: every run is switch-free, so no run has a row of its own,
        # and one batch per depth holds each sequence's keys once, in row order:
        # the open-loop key in the high frame, then the feedback key if its
        # estimate retunes to the low frame.
        batches, segmented = _record_stepping(monkeypatch)
        for pinned in (0, 1):
            env = make_environment(QP, FROZEN, substream(516, "distinct-keys", pinned), pinned_mode=pinned)
            executor = rb.SequenceExecutor(env)
            high, low = 48 * pinned, 48 * pinned + 24
            for length in (0, 2, 30):
                sequences = rb.random_sequence(length, env.sequences, 12)
                executor.run(sequences, 3, default_tau_probe(QP))
                (batch,) = map(lambda rows: list(map(_key, rows)), batches)
                batches.clear()
                starts = [i for i, (_, offset) in enumerate(batch) if offset == high]
                assert [batch[i][0] for i in starts] == [bytes(row) for row in sequences.tolist()]
                groups = [batch[i:j] for i, j in zip(starts, starts[1:] + [len(batch)])]
                assert all(group[1:] in ([], [(group[0][0], low)]) for group in groups)
        assert not any(segmented)

    def test_segmented_runs_join_the_batch(self, monkeypatch):
        # One batch per depth: each distinct switch-free key once, then a row per run a switch
        # lands in, in run order, holding the codes of the maps the scalar engine applies.
        fast = TelegraphParams(1e5, 1e5)  # 10 us dwells against ~6 us sequences
        env = make_environment(QP, fast, substream(517, "segmented"), pinned_mode=0)
        executor = rb.SequenceExecutor(env)
        sequences = np.random.default_rng(517).integers(0, 24, size=(40, 64))  # distinct rows
        # The runs' dwells, read ahead on a copy: the switch-free runs' keys and the segmented runs' codes.
        ahead, switch_free, expected = copy.deepcopy(env), set(), []
        for row in sequences.tolist():
            total = sum(executor.durations[i] for i in row)
            frame = 0
            for arm in (0, 1):
                if arm:
                    frame = syndrome_cycle(ahead, default_tau_probe(QP))[1]
                dwelt = ahead.dwell(total)
                if len(dwelt) > 1:
                    expected.append(_reference_codes(QP, row, QP.mode_frequency(frame), dwelt))
                else:
                    switch_free.add((bytes(row), 24 * (2 * ahead.xi + frame)))
                ahead.readout(1.0)
        batches, segmented = _record_stepping(monkeypatch)
        executor.run(sequences, 1, default_tau_probe(QP))
        (batch,), (rows,) = batches, segmented
        assert len(expected) >= 10 and len(switch_free) >= 10
        assert sorted(_key(row[-64:]) for row in batch[:len(switch_free)]) == sorted(switch_free)
        assert batch[len(switch_free):] == rows and [_unpadded(row) for row in rows] == expected
        assert any(code >= 96 for row in rows for code in row)  # some element is stepped slot by slot

    def test_stepped_segments_equal_the_scalar_engine(self, monkeypatch):
        # Bits cannot show an ulp, so this compares what is stepped: the code rows of the runs a
        # switch lands in equal, in run order, the codes of the maps the scalar engine applies
        # to them, and the (mode, segments) the depth hands to ``_cycle_state`` equal, as
        # multisets, those the scalar engine hands it for the syndromes a switch lands in or
        # between.  At 1.5e6/s a switch lands in most syndromes and in some runs, and now and
        # then in a syndrome's first pulse alone, whose uncut tau is stepped as the one segment (xi, tau).
        fast, tau = TelegraphParams(1.5e6, 1.5e6), default_tau_probe(QP)
        protocol.calibrate_decode_map(QP, tau, True)  # memoised first, so every recorded cycle is a switched one
        for xi in (0, 1):
            protocol._switch_free_state(QP, True, QP.f_high, xi, tau, 0.0)
        cycle_state, calls, runs = protocol._cycle_state, [], []

        def record_step(qp, indices, f_c, segments):
            if len(segments) > 1:  # the scalar engine steps every run, the depth gives only these a row
                runs.append(_reference_codes(qp, indices, f_c, segments))
            return step(qp, indices, f_c, segments)

        def record_cycle(qp, finite_pulses, f_c, xi_first, segments, xi_second, phase):
            calls.append((f_c, xi_first, tuple(segments), xi_second, phase))
            return cycle_state(qp, finite_pulses, f_c, xi_first, segments, xi_second, phase)

        monkeypatch.setattr(scalar_engine, "step", record_step)
        monkeypatch.setattr(rb, "_cycle_state", record_cycle)
        monkeypatch.setattr(protocol, "_cycle_state", record_cycle)
        _, segmented = _record_stepping(monkeypatch)
        seen = collections.Counter()
        for k in range(5):
            env = make_environment(QP, fast, substream(521, "segments", k))
            twin = copy.deepcopy(env)
            staged, scalar, draw = rb.SequenceExecutor(env), rb.SequenceExecutor(twin), np.random.default_rng(k)
            for length in (0,) * 10 + (1, 3):
                sequences = rb.random_sequence(length, draw, 60)
                bits, modes = staged.run(sequences, 1, tau)
                staged_calls = collections.Counter(calls)
                calls.clear()
                expected = executor_run(scalar, sequences, 1, tau)
                assert collections.Counter(calls) == staged_calls
                assert [_unpadded(row) for row in segmented[-1]] == runs
                assert bits.tolist() == expected[0].tolist() and modes.tolist() == expected[1].tolist()
                seen["run"] += len(runs)
                calls.clear()
                runs.clear()
                for call in staged_calls.elements():
                    seen["first pulse alone" if len(call[2]) == 1 else "cycle"] += 1
            assert (env.clock, env.xi, env.switch_at) == (twin.clock, twin.xi, twin.switch_at)
            assert env.draw_counts() == twin.draw_counts()
        assert seen["run"] >= 200 and seen["cycle"] >= 2000 and seen["first pulse alone"] >= 10

    def test_segmented_rows_equal_the_scalar_step(self, monkeypatch):
        # Every run a switch lands in is a row of its depth's one ``_step_batch`` call, and its z
        # there equals the scalar ``step`` over its dwell segments bit for bit.  At 1.5e6/s a
        # switch lands in most runs of depths up to 64, often inside an element, in both frames.
        fast, tau = TelegraphParams(1.5e6, 1.5e6), default_tau_probe(QP)
        batches, segmented = _record_stepping(monkeypatch)
        record_batch, states, expected, frames = rb.SequenceExecutor._step_batch, [], [], set()
        monkeypatch.setattr(rb.SequenceExecutor, "_step_batch",
                            lambda self, codes: states.append(record_batch(self, codes)) or states[-1])

        def record_step(qp, indices, f_c, segments):
            z = step(qp, indices, f_c, segments)[2]
            if len(segments) > 1:
                expected.append(z.hex())
                frames.add(f_c)
            return 0.0, 0.0, z

        monkeypatch.setattr(scalar_engine, "step", record_step)
        env = make_environment(QP, fast, substream(524, "rows"))
        twin = copy.deepcopy(env)
        staged, scalar, draw = rb.SequenceExecutor(env), rb.SequenceExecutor(twin), np.random.default_rng(524)
        checked = 0
        for length in range(65):
            sequences = rb.random_sequence(length, draw, 6)
            bits, modes = staged.run(sequences, 2, tau)
            reference = executor_run(scalar, sequences, 2, tau)
            assert bits.tolist() == reference[0].tolist() and modes.tolist() == reference[1].tolist()
            (z,), (rows,) = states, segmented
            assert len(rows) == len(expected)
            assert [value.hex() for value in z[len(z) - len(rows):].tolist()] == expected
            checked += len(rows)
            for recorded in (batches, segmented, states, expected):
                recorded.clear()
        assert checked >= 500 and frames == {QP.f_high, QP.f_low}

    @pytest.mark.parametrize("sequence", [0, 1, 3])
    def test_a_switch_on_an_advance_boundary(self, sequence):
        # A switch exactly at the clock a sequence starts at lands in its first run, which
        # starts in the mode before the switch, as the scalar engine's walk has it.
        tau = default_tau_probe(QP)
        env = make_environment(QP, TelegraphParams(1e3, 1e3), substream(525, "boundary"))
        sequences = rb.random_sequence(40, substream(525, "sequences"), 4)
        ahead = copy.deepcopy(env)
        executor_run(rb.SequenceExecutor(ahead), sequences[:sequence], 2, tau)
        env.switch_at, xi = ahead.clock, env.xi  # a value of the depth's own clock chain
        twin = copy.deepcopy(env)
        bits, modes = rb.SequenceExecutor(env).run(sequences, 2, tau)
        expected = executor_run(rb.SequenceExecutor(twin), sequences, 2, tau)
        assert bits.tolist() == expected[0].tolist() and modes.tolist() == expected[1].tolist()
        assert (env.clock, env.xi, env.switch_at) == (twin.clock, twin.xi, twin.switch_at)
        assert env.draw_counts() == twin.draw_counts()
        assert modes[sequence] == xi

    def test_resolving_an_rb_depth_stays_small(self):
        # The bench rb-slow depth: 84 sequences of 2048 Cliffords plus recovery, four shots per
        # arm, the two arms in different frames; frozen, and switching at 1e4/s per direction,
        # where a switch lands in most runs and each such run is a code row of its own.
        for tls in (FROZEN, TelegraphParams(1e4, 1e4)):
            rng = substream(520, "memory")
            env = make_environment(QP, tls, rng, pinned_mode=1)
            executor = rb.SequenceExecutor(env)
            sequences = rb.random_sequence(2048, rng, 84)
            tracemalloc.start()
            try:
                bits, _ = executor.run(sequences, 4, default_tau_probe(QP))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert bits.shape == (84, 2, 4)
            assert peak < 8_000_000

    def test_clock_advances_by_sequence_plus_dead_time(self):
        rng = substream(507, "clock")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0)
        executor = rb.SequenceExecutor(env)
        seq = [0, 1, 2]
        total = sum(executor.durations[i] for i in seq)
        tau = default_tau_probe(QP)
        env.clock = 5.0
        executor.run(np.array([seq, seq]), 3, tau)
        cycle = 2 * pulse_duration(math.pi / 2, QP) + tau + QP.t_wall
        assert env.clock == pytest.approx(5.0 + 2 * (6 * (total + QP.t_wall) + cycle))


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
        assert fit.r_native == pytest.approx(fit.r_clifford / rb.GATES_PER_CLIFFORD)


class TestInterleavedRun:
    def test_noiseless_survival_is_spam_floor(self):
        qp = QubitParams.defaults(t1=math.inf, t_phi=math.inf, readout_eps_1to0=0.0)
        rng = substream(511, "spamfloor")
        env = make_environment(qp, FROZEN, rng, pinned_mode=0)
        cfg = rb.RbConfig(tau_probe=default_tau_probe(qp), depths=(1, 8, 64, 512), n_sequences=400, n_windows=1)
        win = rb.run_rb_interleaved(env, cfg)[0]
        floor = 1.0 - qp.readout_eps_0to1
        for survivals in (win.survivals_nofb, win.survivals_fb):
            sigma = math.sqrt(floor * (1 - floor) / (cfg.n_sequences * cfg.shots_per_sequence))
            assert np.all(np.abs(survivals - floor) < 4.0 * sigma)
        # With only flat noise left, the decay is weakly identified: the fit is
        # either flagged or consistent with zero error.
        fit = win.fit_nofb
        assert (not fit.ok) or abs(fit.r_native) < max(3.0 * fit.r_native_err, 2e-5)

    def test_all_noise_off_gives_zero_error(self):
        rng = substream(514, "noiseoff")
        env = make_environment(IDEAL, FROZEN, rng, pinned_mode=0)
        cfg = rb.RbConfig(tau_probe=default_tau_probe(IDEAL), depths=(1, 8, 64, 512), n_sequences=50, n_windows=1)
        win = rb.run_rb_interleaved(env, cfg)[0]
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
        cfg = rb.RbConfig(tau_probe=default_tau_probe(QP), n_sequences=30, shots_per_sequence=4, n_windows=1)
        win = rb.run_rb_interleaved(env, cfg)[0]
        floor = rb.decoherence_floor_per_gate(QP)
        assert win.fit_nofb.ok
        assert abs(win.fit_nofb.r_native - floor) < 4.0 * win.fit_nofb.r_native_err
        assert win.mode_fraction_l == 0.0

    def test_window_bookkeeping(self):
        rng = substream(513, "windows")
        env = make_environment(QP, TelegraphParams.from_dwell_time(1.0), rng)
        cfg = rb.RbConfig(
            tau_probe=default_tau_probe(QP), depths=(1, 4, 16), n_sequences=5, n_windows=3, idle_between_windows=0.5
        )
        windows = rb.run_rb_interleaved(env, cfg)
        assert len(windows) == 3
        starts = [w.lab_time_start for w in windows]
        assert starts == sorted(starts)
        for win in windows:
            assert win.lab_time_end > win.lab_time_start
            assert 0.0 <= win.mode_fraction_l <= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            rb.RbConfig(tau_probe=1e-6, depths=())
        with pytest.raises(ValueError):
            rb.RbConfig(tau_probe=1e-6, depths=(4, 2))
        with pytest.raises(ValueError):
            rb.RbConfig(tau_probe=1e-6, depths=(1, 2, 4), n_sequences=0)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"depths": (1, 2)}, "depths"),  # one fitted window needs three depths
            ({"depths": (-1, 2, 4)}, "depths"),
            ({"idle_between_windows": -1.0}, "idle_between_windows"),
        ],
        ids=["two-depths", "negative-depth", "negative-idle"],
    )
    def test_config_rejects_before_the_run(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            rb.RbConfig(tau_probe=1e-6, **kwargs)

    def test_feedback_arm_wins_below_quarter_error_rate(self):
        # Lengthening the dead time drives the estimate stale; while the
        # empirical syndrome error stays below 1/4 the feedback arm's fitted
        # infidelity must not exceed the open-loop arm's (3-sigma on means).
        from dataclasses import replace as dreplace

        from bistable_qubit.protocol import syndrome_error_rate

        cfg = rb.RbConfig(
            tau_probe=default_tau_probe(QP),
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
            p_err = syndrome_error_rate(env, 20_000, default_tau_probe(qp), False)
            assert p_err < 0.25
            env = make_environment(qp, TelegraphParams.from_dwell_time(dwell), rng)
            windows = rb.run_rb_interleaved(env, cfg)
            valid = [w for w in windows if w.fit_nofb.ok and w.fit_fb.ok]
            r_fb = np.array([w.fit_fb.r_native for w in valid])
            r_nofb = np.array([w.fit_nofb.r_native for w in valid])
            sem = math.sqrt(
                r_fb.var(ddof=1) / r_fb.size + r_nofb.var(ddof=1) / r_nofb.size
            )
            assert r_fb.mean() <= r_nofb.mean() + 3.0 * sem
