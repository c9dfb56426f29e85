"""Single-qubit Clifford randomized benchmarking with interleaved feedback.

The 24-element Clifford group is decomposed into physical pi and pi/2 pulses
about the X and Y axes.  Every physical pulse occupies a fixed gate slot of
t_pi: pi pulses fill it at full amplitude, pi/2 pulses are driven for t_pi/2
and idle for the remainder.  Fixed slots keep the decoherence cost per
native gate uniform, so the fitted per-gate infidelity floor is
t_gate*(1/T1 + 1/T_phi)/3.

Sequences run in the controller's rotating frame; a mistuned frame detunes
every pulse by the mode splitting and lets frame phase errors accrue across
the sequence, which is exactly the error the interleaved syndrome feedback
is meant to remove.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import telegraph
from .bloch import IDENTITY, QubitParams, compose, detuning, free_map, pulse_duration, pulse_map, readout_bits
from .fitting import _least_squares
from .protocol import HALF_PI, Environment, _cycle_state, _switch_free_state, calibrate_decode_map


def decomposition_unitary(pulses: tuple) -> np.ndarray:
    """Composed unitary of a time-ordered list of (axis_phase, angle) pulses."""
    u = np.eye(2, dtype=complex)
    for axis_phase, angle in pulses:
        c = math.cos(0.5 * angle)
        s = math.sin(0.5 * angle)
        u = np.array([[c, -1j * s * np.exp(-1j * axis_phase)], [-1j * s * np.exp(1j * axis_phase), c]]) @ u
    return u


def _decomposition_specs() -> tuple:
    x_axis, y_axis = 0.0, HALF_PI
    specs: list[tuple] = []
    for e0 in (1.0, 0.5, -0.5):
        for e1 in (0.0, 0.5, -0.5):
            tail_y = ((y_axis, e1 * math.pi),) if e1 else ()
            tail_x = ((x_axis, e1 * math.pi),) if e1 else ()
            specs.append(((x_axis, e0 * math.pi),) + tail_y)
            specs.append(((y_axis, e0 * math.pi),) + tail_x)
    specs.append(())
    specs.append(((y_axis, math.pi), (x_axis, math.pi)))
    for y0, ex, y1 in ((-0.5, 0.5, 0.5), (-0.5, -0.5, 0.5), (0.5, 0.5, 0.5), (-0.5, 0.5, -0.5)):
        specs.append(((y_axis, y0 * math.pi), (x_axis, ex * math.pi), (y_axis, y1 * math.pi)))
    return tuple(specs)


# The 24 single-qubit Cliffords in the X/Y pulse decomposition, built once at
# import.  An element is its index: PULSES[i] holds its physical equatorial
# pulses as (axis_phase, signed angle) in time order, UNITARIES[i] its unitary.
PULSES: tuple[tuple[tuple[float, float], ...], ...] = _decomposition_specs()
UNITARIES = np.stack([decomposition_unitary(pulses) for pulses in PULSES])
GATES_PER_CLIFFORD = sum(map(len, PULSES)) / len(PULSES)  # average physical-pulse count


def match_element(u: np.ndarray):
    """Index of the table element equal to ``u`` up to global phase.

    ``u`` may be a stack of unitaries, shape (..., 2, 2); the result is then
    the array of their indices, shape (...).
    """
    scores = np.abs(np.einsum("nij,...ji->...n", UNITARIES.conj().transpose(0, 2, 1), u)) / 2.0
    idx = np.argmax(scores, axis=-1)
    if np.any(np.take_along_axis(scores, idx[..., None], axis=-1) < 1.0 - 1e-9):
        raise ValueError("unitary is not a Clifford element of the table")
    return int(idx) if idx.ndim == 0 else idx


# PRODUCT[a, b] is the index of U_a @ U_b (group closure).
PRODUCT = match_element(UNITARIES[:, None] @ UNITARIES[None, :])
INVERSE = tuple(match_element(UNITARIES.conj().transpose(0, 2, 1)).tolist())
IDENTITY_INDEX = match_element(np.eye(2, dtype=complex))


def random_sequence(length: int, rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """``n`` sequences of ``length`` uniform i.i.d. Clifford indices, each followed by
    its recovery element's index: an (n, length + 1) array, one sequence per row.

    The recovery is the inverse of the composed sequence, so executing the
    sequence followed by the recovery implements the identity up to phase.
    The composition is a pairwise reduction over ``PRODUCT``: the group product
    is associative, so it is the element of the product taken one index at a time.
    The indices are one (n, length) draw, which reads ``rng`` as n draws of a
    row each would.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    indices = rng.integers(0, len(PULSES), size=(n, length))
    level = indices[:, ::-1]  # U_last @ ... @ U_first, the time order reversed
    while level.shape[1] > 1:
        if level.shape[1] % 2:
            level = np.column_stack((level, np.full(n, IDENTITY_INDEX)))
        level = PRODUCT[level[:, 0::2], level[:, 1::2]]
    sequences = np.empty((n, length + 1), dtype=np.uint8)  # every index fits a byte
    sequences[:, :length] = indices
    sequences[:, length] = np.take(INVERSE, level[:, 0] if length else IDENTITY_INDEX)
    return sequences


# ---------------------------------------------------------------------------
# Execution


def _pairs(a, b) -> np.ndarray:
    """The pairs (a, b), broadcast, as complex numbers a + bj: numpy orders complex numbers
    lexicographically, so sorted pairs are one array that ``np.searchsorted`` searches exactly."""
    pairs = np.empty(np.broadcast(a, b).shape, dtype=complex)
    pairs.real, pairs.imag = a, b
    return pairs


# The six native pulses, and per element the index among them of each of its (at most three) slots' pulse.
NATIVE = sorted({pulse for pulses in PULSES for pulse in pulses})
SLOTS = np.array([len(pulses) for pulses in PULSES])
KINDS = np.array([[NATIVE.index(pulse) for pulse in pulses] + [0] * (3 - len(pulses)) for pulses in PULSES])


class SequenceExecutor:
    """Runs Clifford sequences against the environment's defect trajectory.

    Each native pulse occupies one slot and runs in the mode at the slot's
    start: the mode is held over a slot and switches take effect at slot
    boundaries.  Per (mode, frame) combination every element is precompiled
    into the affine Bloch maps of its slots and their composition, one gather
    table of codes, so a run is a row of codes: an element that one dwell
    segment covers is one composed code and an element a switch lands inside
    is its slot codes.  ``_step_batch`` applies every row of a depth at once.
    """

    def __init__(self, env: Environment):
        self.env = env
        qp = env.qubit
        self.slot = qp.t_pi
        self.durations = tuple(len(pulses) * self.slot for pulses in PULSES)
        composed, slots = [], []
        for xi in (0, 1):
            for f_c in (qp.f_high, qp.f_low):
                delta_q = detuning(qp, f_c, xi)
                maps = {}  # per native pulse the map of its slot
                for axis_phase, angle in NATIVE:
                    duration = pulse_duration(angle, qp)
                    steps = [pulse_map(axis_phase, angle, delta_q, qp, True)]
                    if self.slot > duration:
                        steps.append(free_map(delta_q, self.slot - duration, qp))
                    maps[axis_phase, angle] = compose(*steps)
                composed += [compose(IDENTITY, *map(maps.get, pulses)) for pulses in PULSES]
                slots += maps.values()
        # The (4, 3, 4 * (24 + 6)) gather table: per column the coefficients of x, y, z and the
        # offset, per row.  In (mode, frame) block b = 2 * mode + (frame is f_low), element i's
        # composed map is code 24 * b + i and a slot of native pulse n is code 96 + 6 * b + n.
        m = np.array(composed + slots).T
        self._table = np.ascontiguousarray([m[0:9:3], m[1:9:3], m[2:9:3], m[9:12]])

    def run(self, sequences: np.ndarray, shots: int, tau_probe: float) -> tuple[np.ndarray, np.ndarray]:
        """Run one depth of interleaved sequences; return the (n, 2, shots) reported bits,
        open-loop arm first, and each sequence's mode at its start.

        Row k of the (n, width) ``sequences`` holds a sequence's Clifford indices,
        recovery included.  The rows run in order, each as ``shots`` runs in the
        high-mode frame, one syndrome cycle probing for ``tau_probe``, then ``shots``
        runs in the frame of its estimate; a run is reset -> sequence -> readout
        and reset dead time.

        The defect path and the clock never depend on an outcome, so the depth first
        makes the draws and arithmetic of running the sequences one by one: the clock
        as the running sum of the advances, the defect's switches up to its end (one
        ``searchsorted`` locates them among the advances) and a block of readout
        uniforms.  A syndrome takes the memoised switch-free state unless a switch lands
        in its tau or between its pulses' starts, when ``_cycle_state`` steps it over its
        dwell segments (``telegraph.cut``).  A switch-free run's state depends only on its
        (sequence, mode, frame) key, so each distinct key is one code row; each run a
        switch lands in is its own row (``_with_segmented_rows``).  One ``_step_batch`` call
        steps every row and ``readout_bits`` decides every run.
        """
        env, qp = self.env, self.env.qubit
        n, s, per = len(sequences), 2 * shots, 4 * shots + 4  # per sequence: per advances, the syndrome's from s
        decode = calibrate_decode_map(qp, tau_probe, env.finite_pulses)
        totals = np.cumsum(np.array(self.durations)[sequences], axis=1)[:, -1].copy()  # summed left to right
        # Per sequence its advances in run order: shots x (sequence, readout and reset),
        # the syndrome's pulse, tau, pulse, readout and reset, then shots x again.
        runs = np.array([*range(0, s, 2), *range(s + 4, per, 2)])  # the runs' advances, open-loop arm first
        steps = np.full((n, per), qp.t_wall)
        steps[:, runs], steps[:, s:s + 3] = totals[:, None], (env.pulse_time, tau_probe, env.pulse_time)
        clock = np.cumsum(np.append(env.clock, steps))  # the clock += chain: advance k is clock[k] to clock[k + 1]
        xi, switches, env.clock = env.xi, [], float(clock[-1])
        env.xi, env.switch_at = telegraph.walk(xi, env.switch_at, env.tls_params, env.clock, env.dwells, switches)
        before = np.searchsorted(switches, clock, "left")  # per clock the switches before it
        modes = (xi ^ (before[:-1] & 1)).reshape(n, per)  # per advance its mode at its start
        switched = (before[1:] > before[:-1]).reshape(n, per)  # per advance whether a switch lands in it
        u = env.uniforms.take(n * (2 * s + 2)).reshape(n, s + 1, 2)

        def segments(k: int) -> list[tuple[int, float]]:  # the dwell segments of advance k
            first, last = before[k:k + 2].tolist()
            return telegraph.cut(int(modes.flat[k]), switches[first:last], float(clock[k]), float(steps.flat[k]))

        memo = [_switch_free_state(qp, env.finite_pulses, qp.f_high, x, tau_probe, 0.0)[2] for x in (0, 1)]
        syndrome_z = np.take(memo, modes[:, s])
        for p in np.flatnonzero(switched[:, s + 1] | (modes[:, s] != modes[:, s + 2])).tolist():
            syndrome_z[p] = _cycle_state(qp, env.finite_pulses, qp.f_high, int(modes[p, s]), segments(p * per + s + 1),
                                         int(modes[p, s + 2]), 0.0)[2]
        estimates = np.take(decode, readout_bits(syndrome_z, u[:, shots, 0], u[:, shots, 1], qp))
        keys = 4 * np.arange(n)[:, None, None] + 2 * modes[:, runs].reshape(n, 2, shots)
        keys[:, 1] += estimates[:, None]  # per run 4 * row + 2 * mode + (frame is f_low)
        segmented = switched[:, runs].reshape(n, 2, shots)
        distinct, inverse = np.unique(keys[~segmented], return_inverse=True)
        codes = sequences[distinct // 4] + 24 * (distinct % 4).astype(np.uint8)[:, None]  # a row per distinct key
        rows, arms, shot = np.nonzero(segmented)  # the runs a switch lands in, in run order
        if rows.size:  # then a row per such run
            k = rows * per + runs[arms * shots + shot]  # their advances
            codes = self._with_segmented_rows(codes, sequences, rows, 2 * modes.flat[k] + arms * estimates[rows],
                                              clock[k], np.array(switches), before[k], before[k + 1])
        z = np.empty((n, 2, shots))  # per run the z it is read out from
        states = self._step_batch(codes)
        z[~segmented], z[segmented] = states[inverse], states[distinct.size:]
        u = np.delete(u, shots, axis=1).reshape(n, 2, shots, 2)
        return readout_bits(z, u[..., 0], u[..., 1], qp), modes[:, 0]

    def _with_segmented_rows(self, codes, sequences, rows, blocks, starts, switches, first, last) -> np.ndarray:
        """The code matrix ``codes`` of a depth's switch-free rows, then one row per run a switch
        lands in, every row front-padded with ``IDENTITY_INDEX`` to one length.

        Run r is the sequence ``rows[r]`` from (mode, frame) block ``blocks[r]`` (2 * mode +
        (frame is f_low)), starting at lab time ``starts[r]``, and ``switches[first[r]:last[r]]``
        land in it.  Its elements are the codes ``_slot_steps`` finds.
        """
        width, blocks, counts = sequences.shape[1], blocks.astype(np.uint8), last - first
        # Each switch's run and its dwell segment's end from the run's start: the running sum of
        # the segment durations ``telegraph.cut`` gives, differences of lab times.
        owner = np.repeat(np.arange(rows.size), counts)
        rank = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
        at = first[owner] + rank
        durations = np.zeros((rows.size, counts.max()))
        durations[owner, rank] = switches[at] - np.where(rank > 0, switches[at - 1], starts[owner])
        parity, at, slot_codes = self._slot_steps(sequences, rows, blocks, owner,
                                                  np.cumsum(durations, axis=1)[owner, rank])
        composed = sequences[rows] + 24 * (blocks[:, None] ^ 2 * parity)
        # An element stepped slot by slot is its last slot's code, the others inserted before it.
        final = np.diff(at, append=-1) != 0  # the last of its element's slots
        composed.ravel()[at[final]] = slot_codes[final]
        lengths = np.bincount(at[~final] // width, minlength=rows.size) + width
        length = lengths.max()
        pads = np.repeat(np.arange(rows.size) * width, length - lengths)
        padded = np.full((len(codes) + rows.size, length), IDENTITY_INDEX, dtype=np.uint8)
        padded[:len(codes), length - width:] = codes
        padded[len(codes):] = np.insert(composed.ravel(), np.concatenate((pads, at[~final])), np.concatenate(
            (np.full(pads.size, IDENTITY_INDEX), slot_codes[~final]))).reshape(rows.size, -1)
        return padded

    def _slot_steps(self, sequences, rows, blocks, owner, dwell_ends) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The elements of the runs a switch lands in that run slot by slot: run r is the sequence
        ``rows[r]`` from block ``blocks[r]``, and its dwell segments but the last end at
        ``dwell_ends[owner == r]`` from its start.

        An element runs as its composed map in the mode of the dwell segment reached if its last
        slot starts by that segment's end, ``t + durations[i] - slot <= end`` with t the running
        sum of the durations before it; else each slot runs in the mode of the segment it starts
        in (``t + k * slot``), and the last slot's segment is reached.  Each pass takes every run's
        next such element at once, found by one ``searchsorted`` for the first element after the
        last one whose last slot starts past the end of the segment reached.  (The identity
        element has no slot: it keeps its composed code, the identity map, which returns any
        state unchanged but for the sign of a zero.)

        Returns, per run and element, the parity of the switches passed before it, and each slot
        stepped: its place (run * width + element) and its code, sorted by place, in slot order.
        """
        width, slot, n = sequences.shape[1], self.slot, len(rows)
        used, row = np.unique(rows, return_inverse=True)
        ends = np.cumsum(np.array(self.durations)[sequences[used]], axis=1)  # per element t + durations[i]
        last_starts = _pairs(np.arange(used.size)[:, None], ends - slot).ravel()  # sorted per row
        segment_ends = _pairs(owner, dwell_ends)  # sorted per run
        counts = np.bincount(owner, minlength=n)
        offset = np.cumsum(counts) - counts  # per run its first switch
        reached = np.zeros(n, dtype=np.intp)  # per run the index of its dwell segment reached
        element = np.full(n, -1)  # per run its last element stepped slot by slot
        parity = np.zeros((n, width + 1), dtype=np.uint8)  # flips, then their running xor
        at, codes = [], []
        live = np.arange(n)
        while live.size:
            after = np.searchsorted(last_starts, _pairs(row[live], dwell_ends[offset[live] + reached[live]]), "right")
            j = np.maximum(element[live] + 1, after - row[live] * width)
            live, j = live[j < width], j[j < width]
            element[live], index, passed = j, sequences[rows[live], j], reached[live]
            t = np.where(j > 0, ends[row[live], j - 1], 0.0)
            for k in range(3):
                has = k < SLOTS[index]
                segment = np.searchsorted(segment_ends, _pairs(live, t + k * slot), "left") - offset[live]
                at.append((live * width + j)[has])
                codes.append((96 + 6 * (blocks[live] ^ 2 * (segment & 1)) + KINDS[index, k])[has].astype(np.uint8))
                reached[live[has]] = segment[has]
            parity[live, j + 1] = (reached[live] - passed) & 1
            live = live[reached[live] < counts[live]]
        np.bitwise_xor.accumulate(parity, axis=1, out=parity)
        at = np.concatenate(at)
        order = np.argsort(at, kind="stable")
        return parity[:, :width], at[order], np.concatenate(codes)[order]

    def _step_batch(self, codes: np.ndarray) -> np.ndarray:
        """Bloch z after each row of the (n, width) ``codes`` from ground, each code a column of the gather table.

        Per column of ``codes`` the maps are gathered from one (4, 3, 120) table
        (coefficients of x, y, z and the offset, per row, per code) and applied to a
        (3, n) state array as ((m0*x + m1*y) + m2*z) + m9 elementwise: the scalar
        operations in the scalar order, so every z equals the scalar stepping of the
        same maps bit for bit.  The identity element's map, which front-pads rows,
        takes the ground state to itself exactly.
        """
        table = self._table
        state = np.zeros((3, len(codes)))
        state[2] = 1.0
        m = np.empty((4, 3, len(codes)))
        products, (m_x, m_y, m_z, shift) = m[:3], m
        for start in range(0, codes.shape[1], 256):  # the codes as table indices, 256 columns at a time
            for column in codes[:, start:start + 256].T.astype(np.intp, order="C"):
                table.take(column, axis=2, out=m)
                products *= state[:, None]  # m_x, m_y, m_z now hold m0*x, m1*y, m2*z per row
                np.add(m_x, m_y, out=state)
                state += m_z
                state += shift
        return state[2]


# ---------------------------------------------------------------------------
# Decay fitting


@dataclass(frozen=True)
class FitResult:
    """A * decay^L + offset fit of survival versus sequence depth.

    The per-Clifford infidelity is r = (1 - decay)/2 and the per-native-gate
    value divides it by the decomposition's average pulse count.
    """

    amplitude: float
    decay: float
    offset: float
    amplitude_err: float
    decay_err: float
    offset_err: float
    ok: bool

    @property
    def r_clifford(self) -> float:
        return 0.5 * (1.0 - self.decay)

    @property
    def r_clifford_err(self) -> float:
        return 0.5 * self.decay_err

    @property
    def r_native(self) -> float:
        return self.r_clifford / GATES_PER_CLIFFORD

    @property
    def r_native_err(self) -> float:
        return self.r_clifford_err / GATES_PER_CLIFFORD


_FAILED_FIT = FitResult(*[math.nan] * 6, ok=False)


def _pow(p: float, n: float) -> float:
    """``math.pow(p, n)``, inf past the largest float as ``np.power`` gives."""
    try:
        return math.pow(p, n)
    except OverflowError:
        return math.inf


def fit_exponential(depths, survivals, weights=None) -> FitResult:
    """Weighted least-squares fit of A*p^L + B.

    ``weights`` are inverse variances per point (None for unweighted).  A fit
    that does not converge from any of its start points, or lands at p > 1,
    is returned with ``ok=False``.
    """
    depths = np.asarray(depths, dtype=float)
    survivals = np.asarray(survivals, dtype=float)
    if len(set(depths.tolist())) < 3:  # np.unique would load numpy.ma at the first fit
        raise ValueError("need at least three distinct depths")
    if np.any((survivals < 0) | (survivals > 1)):
        raise ValueError("survivals must lie in [0, 1]")

    if float(np.ptp(survivals)) < 1e-12:
        return FitResult(0.0, 1.0, float(survivals.mean()), 0.0, 0.0, 0.0, True)

    sigma = None
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        sigma = 1.0 / np.sqrt(weights)

    def model(length, a, p, b):
        # p**L by the C library's pow: numpy's SIMD power kernels round differently by CPU.
        return a * np.array([_pow(p, n) for n in length.tolist()]) + b

    b0 = 0.5
    a0 = float(np.clip(survivals[np.argmin(depths)] - b0, 0.05, 1.0))
    fit = _least_squares(
        model,
        depths,
        survivals,
        [(a0, p_guess, b0) for p_guess in (0.999, 0.99, 0.9999, 0.9)],
        sigma=sigma,
        absolute_sigma=sigma is not None,
        bounds=([0.0, 1e-9, 0.0], [1.0, 1.05, 1.0]),
        maxfev=20000,
    )
    if fit is None or fit[0][1] > 1.0 + 1e-9:
        return _FAILED_FIT
    popt, pcov = fit
    errs = np.sqrt(np.abs(np.diag(pcov)))
    return FitResult(
        amplitude=float(popt[0]),
        decay=min(float(popt[1]), 1.0),
        offset=float(popt[2]),
        amplitude_err=float(errs[0]),
        decay_err=float(errs[1]),
        offset_err=float(errs[2]),
        ok=True,
    )


# ---------------------------------------------------------------------------
# Interleaved runs


@dataclass(frozen=True)
class RbConfig:
    """Interleaved benchmarking run: depth sweep per window, windows in time."""

    tau_probe: float  # the syndrome probe time; protocol.default_tau_probe gives the optimal one
    depths: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
    n_sequences: int = 100
    shots_per_sequence: int = 1
    n_windows: int = 1
    idle_between_windows: float = 0.0

    def __post_init__(self):
        if not 0 < self.tau_probe < math.inf:
            raise ValueError("tau_probe must be finite and > 0")
        if len(self.depths) < 3:
            raise ValueError("depths must hold at least 3 depths, one per fit parameter")
        if any(b <= a for a, b in zip(self.depths, self.depths[1:])):
            raise ValueError("depths must be strictly increasing")
        if self.depths[0] < 0:
            raise ValueError("depths must be nonnegative")
        for name in ("n_sequences", "shots_per_sequence", "n_windows"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 <= self.idle_between_windows < math.inf:
            raise ValueError("idle_between_windows must be finite and nonnegative")


@dataclass(frozen=True)
class RbWindow:
    lab_time_start: float
    lab_time_end: float
    survivals_nofb: np.ndarray
    survivals_fb: np.ndarray
    fit_nofb: FitResult
    fit_fb: FitResult
    mode_fraction_l: float


def _survival_weights(k: np.ndarray, n: int) -> np.ndarray:
    smoothed = (k + 0.5) / (n + 1.0)
    return n / (smoothed * (1.0 - smoothed))


def run_rb_interleaved(env: Environment, config: RbConfig) -> list[RbWindow]:
    """Interleave each random sequence without and with syndrome feedback.

    Per sequence the frame is first reset to the high-mode frequency and the
    sequence is executed; one syndrome cycle then estimates the mode and the
    same sequence runs again in that mode's frame.  The sequences are drawn
    from the environment's own stream, ``env.sequences``.  Each window
    holds one full depth sweep and is fitted per arm; non-converged fits are
    flagged, not raised.
    """
    executor = SequenceExecutor(env)
    depths = np.asarray(config.depths, dtype=int)
    shots_per_depth = config.n_sequences * config.shots_per_sequence
    windows: list[RbWindow] = []

    for _ in range(config.n_windows):
        t_start = env.clock
        k_nofb = np.zeros(depths.size)
        k_fb = np.zeros(depths.size)
        xi_sum = 0  # the mode at the start of each of the window's sequences
        for di, length in enumerate(depths):
            sequences = random_sequence(int(length), env.sequences, config.n_sequences)
            bits, modes = executor.run(sequences, config.shots_per_sequence, config.tau_probe)
            xi_sum += int(modes.sum())
            k_nofb[di], k_fb[di] = (bits == 0).sum(axis=(0, 2))
        surv_nofb = k_nofb / shots_per_depth
        surv_fb = k_fb / shots_per_depth
        windows.append(
            RbWindow(
                lab_time_start=t_start,
                lab_time_end=env.clock,
                survivals_nofb=surv_nofb,
                survivals_fb=surv_fb,
                fit_nofb=fit_exponential(
                    depths, surv_nofb, _survival_weights(k_nofb, shots_per_depth)
                ),
                fit_fb=fit_exponential(
                    depths, surv_fb, _survival_weights(k_fb, shots_per_depth)
                ),
                mode_fraction_l=xi_sum / (depths.size * config.n_sequences),
            )
        )
        if config.idle_between_windows > 0:
            env.advance(config.idle_between_windows)

    return windows


def decoherence_floor_per_gate(qp: QubitParams) -> float:
    """Analytic per-native-gate infidelity floor t_gate*(1/T1 + 1/T_phi)/3."""
    return qp.t_pi * (1.0 / qp.t1 + 1.0 / qp.t_phi) / 3.0
