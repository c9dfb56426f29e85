"""Feedback cycles: mode-syndrome estimation, detuned probing, interleaving.

The controller runs in a rotating frame at ``f_c`` (one of the two mode
frequencies).  One syndrome cycle estimates the current mode from a single
measurement and returns the estimate, to whose frequency ``f_c`` is retuned;
probing (Ramsey-style) cycles read the qubit phase evolution with a
software-applied virtual detuning.
The ``Environment`` owns lab time and its randomness: the defect mode, an int
``xi`` (0 = H, 1 = L), and the lab clock advance together over every elapsed
interval, including the readout and reset dead time after each measurement,
which is what makes stale estimates possible; each dwell of the defect is
drawn from its defect stream as its mode is entered, and every readout from
its readout stream.

Conventions:

* the syndrome always probes in the rotating frame of the high mode,
  whatever ``f_c`` currently is;
* the outcome -> mode decode map is calibrated once from the noiseless
  deterministic propagation and cached, so it tracks the engine's handedness
  instead of hand-derived signs;
* a virtual detuning D advances the final pulse axis by 2*pi*D*tau, which
  with ``f_c = f_high`` produces fringes at D - delta_tls*xi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import telegraph
from .analytics import tau_opt
from .bloch import (
    GROUND,
    QubitParams,
    apply,
    detuning,
    free_map,
    measure,
    pulse_duration,
    pulse_map,
    readout_bits,
    reported_excited_probability,
)
from .streams import BLOCK, Draws, substream, words_drawn
from .telegraph import TelegraphParams

HALF_PI = 0.5 * math.pi
OPEN, SYNDROME, FEEDBACK = 0, 1, 2  # the kinds of a cycle: probing in a fixed frame, estimating, retuned probing
CHUNK = BLOCK // 2  # cycles staged at once (2/3 as many if each redraws the mode): their readout uniforms fit a block
ALONE = 8  # a cycle with a switch due within ALONE cycles runs alone; a stage costs about as much as 8 of them


@dataclass
class Environment:
    """Mutable world state shared by the cycles of one experiment run.

    The run's random events come from three streams, one kind of draw each:
    ``dwells`` holds the defect's dwell draws, one per mode entered, which
    put its next switch at ``switch_at`` (lab time; ``inf`` if it cannot switch),
    ``uniforms`` the two uniforms of every readout (the projection's, then the
    report's), and ``sequences`` is the generator of the benchmarking
    sequences.  Each stream is drawn in the order the methods below are called.
    ``finite_pulses`` selects rectangular finite-duration pulses (with their
    detuning-tilted rotation axes) versus idealized instantaneous rotations.
    ``clock`` is the lab time (s); the methods below are the only place that
    advances the defect or draws a readout, and each advances the clock with
    the defect.
    """

    qubit: QubitParams
    tls_params: TelegraphParams
    xi: int
    switch_at: float
    dwells: Draws
    uniforms: Draws
    sequences: np.random.Generator
    finite_pulses: bool = True
    clock: float = 0.0

    @property
    def pulse_time(self) -> float:
        """Duration of a cycle's pi/2 pulse: 0 for idealized instantaneous rotations."""
        return pulse_duration(HALF_PI, self.qubit) if self.finite_pulses else 0.0

    def advance(self, dt: float) -> None:
        """Let ``dt`` of lab time pass: the defect evolves and the clock moves on."""
        self.xi, self.switch_at = telegraph.evolve(
            self.xi, self.switch_at, self.tls_params, self.clock, dt, self.dwells
        )
        self.clock += dt

    def dwell(self, dt: float) -> list[tuple[int, float]]:
        """``advance`` over ``dt``, returning the (xi, duration) segments the defect dwelt in."""
        segments, self.xi, self.switch_at = telegraph.dwell_segments(
            self.xi, self.switch_at, self.tls_params, self.clock, dt, self.dwells
        )
        self.clock += dt
        return segments

    def readout(self, z: float) -> int:
        """Measure a state with Bloch z-component ``z``, then wait out the readout and reset."""
        m = measure(z, self.qubit, self.uniforms)
        self.advance(self.qubit.t_wall)
        return m

    def draw_counts(self) -> dict[str, int]:
        """Draws read from each stream so far; counting draws no random number.

        The defect count includes the draw of a stationary initial mode; the
        sequences count is in 64-bit words, since a bounded integer draw uses a
        varying number of them.
        """
        return {
            "defect_draws": self.dwells.taken,
            "readout_draws": self.uniforms.taken,
            "sequences_words": words_drawn(self.sequences),
        }


def make_environment(
    qubit: QubitParams,
    tls_params: TelegraphParams,
    rng: np.random.Generator,
    pinned_mode: int | None = None,
    finite_pulses: bool = True,
) -> Environment:
    """Build an environment, drawing the initial mode stationarily unless pinned.

    One 64-bit word of ``rng`` roots the environment's three named substreams,
    made in the order ``defect``, ``readout``, ``sequences``.  The defect
    stream draws the initial mode (unless pinned), then each mode's dwell.
    """
    if pinned_mode is not None and pinned_mode not in (telegraph.XI_H, telegraph.XI_L):
        raise ValueError("pinned_mode must be 0 (H mode) or 1 (L mode)")
    if pinned_mode is None and not tls_params.total_rate > 0:
        raise ValueError("both switching rates are zero: pin the mode explicitly")
    root = rng.bit_generator.random_raw()
    defect, readout, sequences = (substream(root, name) for name in ("defect", "readout", "sequences"))
    xi = telegraph.draw_stationary(tls_params, defect) if pinned_mode is None else pinned_mode
    dwells = Draws(defect, "standard_exponential", taken=int(pinned_mode is None))
    switch_at = telegraph.next_switch(tls_params, xi, 0.0, dwells)
    return Environment(qubit, tls_params, xi, switch_at, dwells, Draws(readout, "random"), sequences, finite_pulses)


def cycle_bandwidth(tau: float, t_readout: float, t_reset: float) -> float:
    """Estimation bandwidth 1/(tau + t_readout + t_reset), from the per-cycle time budget (s).

    Gate times are excluded from the dead-time accounting; if the readout
    overlaps the next probe, 1/(tau + t_reset) applies instead (both numbers
    are surfaced by the CLI manifest).
    """
    for name, value in (("tau", tau), ("t_readout", t_readout), ("t_reset", t_reset)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative")
    denom = tau + t_readout + t_reset
    if denom <= 0:
        raise ValueError("estimation window has zero duration")
    return 1.0 / denom


def _cycle_state(
    qp: QubitParams,
    finite_pulses: bool,
    f_c: float,
    xi_first: int,
    segments: list[tuple[int, float]],
    xi_second: int,
    second_axis_phase: float,
) -> tuple[float, float, float]:
    """State before readout of reset, X(-pi/2), free evolution, X(-pi/2) about ``second_axis_phase``.

    In frame f_c the first pulse sees mode ``xi_first``, the free evolution
    runs over the (xi, duration) dwell ``segments`` and the second pulse sees
    mode ``xi_second``.
    """
    state = apply(pulse_map(0.0, -HALF_PI, detuning(qp, f_c, xi_first), qp, finite_pulses), GROUND)
    for xi, dt in segments:
        state = apply(free_map(detuning(qp, f_c, xi), dt, qp), state)
    second = pulse_map(second_axis_phase, -HALF_PI, detuning(qp, f_c, xi_second), qp, finite_pulses)
    return apply(second, state)


@lru_cache(maxsize=4096)
def _switch_free_state(
    qp: QubitParams,
    finite_pulses: bool,
    f_c: float,
    xi: int,
    tau: float,
    second_axis_phase: float,
) -> tuple[float, float, float]:
    """``_cycle_state`` with mode ``xi`` over both pulses and tau, memoised.

    The segments are the ones ``telegraph.dwell_segments`` returns when
    nothing switches, so a cached state is bit-identical to a stepwise one.
    """
    segments = [(xi, tau)] if tau > 0.0 else []
    return _cycle_state(qp, finite_pulses, f_c, xi, segments, xi, second_axis_phase)


def _two_pulse_cycle(
    env: Environment, f_c: float, tau: float, second_axis_phase: float
) -> tuple[float, float, float]:
    """Reset, X(-pi/2), free evolution over tau, then X(-pi/2) about ``second_axis_phase``.

    Runs in frame f_c against the defect trajectory: the mode is held over
    each pulse (a switch takes effect afterwards) and may switch within the
    free evolution.  The trajectory is drawn first, over pulse 1, tau and
    pulse 2 in turn; a cycle that one mode covers takes its state from the
    memo.  Returns the state before readout.
    """
    qp, pulse_time = env.qubit, env.pulse_time
    xi_first = env.xi
    env.advance(pulse_time)
    segments = env.dwell(tau)
    xi_second = env.xi
    env.advance(pulse_time)
    if len(segments) <= 1 and xi_second == xi_first:
        return _switch_free_state(qp, env.finite_pulses, f_c, xi_first, tau, second_axis_phase)
    return _cycle_state(qp, env.finite_pulses, f_c, xi_first, segments, xi_second, second_axis_phase)


def _noiseless(qp: QubitParams) -> QubitParams:
    return replace(qp, t1=math.inf, t_phi=math.inf, readout_eps_0to1=0.0, readout_eps_1to0=0.0)


def ramsey_probability(
    qp: QubitParams,
    f_c: float,
    xi: int,
    tau: float,
    virtual_detuning: float = 0.0,
    finite_pulses: bool = False,
) -> float:
    """Deterministic P(m=1) of one probing cycle with the mode pinned to xi."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    phase = 2.0 * math.pi * virtual_detuning * tau
    state = _switch_free_state(qp, finite_pulses, f_c, xi, tau, phase)
    return reported_excited_probability(state[2], qp)


@lru_cache(maxsize=64)
def calibrate_decode_map(
    qp: QubitParams, tau_probe: float, finite_pulses: bool
) -> tuple[int, int]:
    """Map measurement outcome -> mode estimate, frozen from a noiseless run.

    Returns (xi_for_m0, xi_for_m1).  Raises if the probe time is not positive
    or gives no contrast between the modes.
    """
    if not tau_probe > 0:
        raise ValueError("tau_probe must be positive")
    ideal = _noiseless(qp)
    p1 = [ramsey_probability(ideal, qp.f_high, xi, tau_probe, 0.0, finite_pulses) for xi in (0, 1)]
    if abs(p1[0] - p1[1]) < 1e-6:
        raise ValueError("probe time yields no contrast between the modes")
    xi_for_m1 = 0 if p1[0] > p1[1] else 1
    return (1 - xi_for_m1, xi_for_m1)


def syndrome_cycle(env: Environment, tau_probe: float) -> tuple[int, int]:
    """One mode-estimation cycle; returns the outcome m and the mode estimate.

    Probes in the high-mode frame and decodes the single shot into the
    estimate ``decode[m]`` by the calibrated map.
    """
    qp = env.qubit
    decode = calibrate_decode_map(qp, tau_probe, env.finite_pulses)
    m = env.readout(_two_pulse_cycle(env, qp.f_high, tau_probe, 0.0)[2])
    return m, decode[m]


@dataclass(frozen=True)
class MitigationConfig:
    """Interleaved fringe experiment: alternating open-loop and feedback cycles."""

    tau_grid: tuple[float, ...]
    tau_probe: float  # the syndrome probe time; default_tau_probe gives the optimal one
    n_reps: int = 10
    rows: int = 1
    det_nofb: float = 2.0e6
    det_fb: float = 2.33e6
    idle_between_rows: float = 0.0
    block_size: int = 1

    def __post_init__(self):
        if len(self.tau_grid) < 1:
            raise ValueError("tau_grid must be nonempty")
        if not 0 < self.tau_probe < math.inf:
            raise ValueError("tau_probe must be finite and > 0")
        for name in ("n_reps", "rows", "block_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 <= self.idle_between_rows < math.inf:
            raise ValueError("idle_between_rows must be finite and nonnegative")
        if not all(0 <= tau < math.inf for tau in self.tau_grid):
            raise ValueError("tau_grid values must be finite and nonnegative")


@dataclass(frozen=True)
class MitigationResult:
    """Per (row, tau): each arm's m=1 fraction; per row: its start time; per
    (row, tau, rep) syndrome cycle: the lab time after it, the true mode then,
    the estimate and the outcome.  C order is the order the cycles ran in."""

    no_feedback: np.ndarray
    feedback: np.ndarray
    row_times: np.ndarray
    syndrome_time: np.ndarray
    true_xi: np.ndarray
    est_xi: np.ndarray
    outcome: np.ndarray


def default_tau_probe(qp: QubitParams) -> float:
    """Optimal probing time for the engine parameters."""
    return tau_opt(qp.delta_tls, qp.t2)


class CycleSchedule:
    """A run's two-pulse cycles, built once: per cycle k its kind, its key (f_c, tau, second-axis
    phase) ``keys[columns[e, k]]`` after estimate e (the two differ for a FEEDBACK cycle, which
    follows a SYNDROME cycle and runs in the frame of its estimate) and its four advances (pulse,
    tau, pulse, readout and reset).  A SYNDROME cycle decodes its outcome by the map of ``tau_probe``.
    With ``resample`` each cycle first redraws the mode from a readout uniform (L below 1/2).
    """

    def __init__(self, env: Environment, kinds: np.ndarray, keys: list, columns: np.ndarray,
                 tau_probe: float | None = None, resample: bool = False):
        if resample and (env.tls_params.total_rate > 0 or FEEDBACK in kinds):  # all staged; feedback takes one mode
            raise ValueError("resampling the mode needs a frozen defect and no feedback cycle")
        qp = env.qubit
        self.kinds, self.keys, self.columns, self.resample = kinds, keys, columns, resample
        self.decode = (0, 0) if tau_probe is None else calibrate_decode_map(qp, tau_probe, env.finite_pulses)
        self.steps = np.empty((kinds.size, 4))
        self.steps[:, 0::2] = env.pulse_time
        self.steps[:, 1] = np.array([key[1] for key in keys])[columns[0]]
        self.steps[:, 3] = qp.t_wall
        self.z = np.full((2, len(keys)), math.nan)  # per mode the keys' switch-free z, made as it is first staged

    def run(self, env: Environment, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Run the first ``n`` cycles; return per cycle its outcome, its estimate (a
        SYNDROME cycle's, else 0), the mode and the lab time after it.

        The defect path and the clock never depend on an outcome, so the cycles that end
        by the defect's next switch (``env.switch_at``) are decided in stages of up to
        ``CHUNK``, with the draws and arithmetic of running them one by one: the clock as
        the running sum of the advances, the readout uniforms, the switch-free z, the bits,
        and from the syndrome outcomes the feedback frames and bits.  While a switch is due
        within ``ALONE`` cycles, cycles run alone (``_two_pulse_cycle``, ``env.readout``).
        """
        qp, draws, keys, decode, z = env.qubit, 3 if self.resample else 2, self.keys, self.decode, self.z
        ends = np.cumsum(np.append(env.clock, self.steps[:n]))[4::4]  # the clock += chain of the advances, per end
        bits, modes = np.zeros((2, n), dtype=int)
        p = hi = 0  # the lone cycles of [lo, hi) read their columns and ALONE-th ends from lists
        while p < n:
            if env.switch_at >= ends[min(n, p + ALONE) - 1]:  # no switch within ALONE cycles: stage
                q = min(n, p + 2 * CHUNK // draws, int(np.searchsorted(ends, env.switch_at, side="right")))
                u = env.uniforms.take(draws * (q - p))
                x = np.where(u[0::3] < 0.5, telegraph.XI_L, telegraph.XI_H) if self.resample else env.xi
                for mode in (0, 1) if self.resample else (x,):  # the stage's modes' switch-free z, made once
                    if math.isnan(z[mode, 0]):
                        z[mode] = [_switch_free_state(qp, env.finite_pulses, f_c, mode, tau, phase)[2]
                                   for f_c, tau, phase in keys]
                if self.resample:  # the last mode is kept
                    env.xi = int(x[-1])
                u1, u2 = u[draws - 2::draws], u[draws - 1::draws]
                bits[p:q] = readout_bits(z[x, self.columns[0, p:q]], u1, u2, qp)
                fb = np.flatnonzero(self.kinds[p:q] == FEEDBACK)
                if fb.size:  # in the frame of the estimate the syndrome outcome before it decodes to
                    frames = self.columns[np.take(decode, bits[p + fb - 1]), p + fb]
                    bits[p + fb] = readout_bits(z[x, frames], u1[fb], u2[fb], qp)
                modes[p:q], env.clock = x, float(ends[q - 1])
                p = q
            else:  # cycles run alone until a stage would not stop at once, or the lists end
                if p >= hi:
                    lo, hi = p, min(n, p + CHUNK)
                    columns = self.columns[list(decode), lo:hi].tolist()  # row m: after a syndrome outcome m
                    ahead = ends[np.minimum(np.arange(lo, hi) + ALONE + 1, n) - 1].tolist()  # the next cycle's check
                first, m, lone_bits, lone_modes = p, int(bits[p - 1]), [], []  # m: the last outcome
                for i in range(p - lo, hi - lo):
                    m = env.readout(_two_pulse_cycle(env, *keys[columns[m][i]])[2])
                    lone_bits.append(m)
                    lone_modes.append(env.xi)
                    if env.switch_at >= ahead[i]:
                        break
                p = first + len(lone_bits)
                bits[first:p], modes[first:p] = lone_bits, lone_modes
        return bits, np.where(self.kinds[:n] == SYNDROME, np.take(decode, bits), 0), modes, ends


def repeat_cycle(env: Environment, key: tuple, n: int, tau_probe: float | None = None, resample: bool = False):
    """Run ``n`` cycles of one key, SYNDROME cycles decoded by the map of ``tau_probe`` if it is
    given, else OPEN ones, as one ``CycleSchedule`` of at most ``CHUNK`` cycles run over and
    over; yield each run's result."""
    size, kind = min(CHUNK, n), OPEN if tau_probe is None else SYNDROME
    schedule = CycleSchedule(env, np.full(size, kind), [key], np.zeros((2, size), dtype=np.intp), tau_probe, resample)
    for first in range(0, n, size):
        yield schedule.run(env, min(size, n - first))


def run_mitigation(env: Environment, config: MitigationConfig) -> MitigationResult:
    """Run the interleaved fringe experiment.

    Per probe time and repetition: one open-loop cycle in the high-mode frame
    (virtual detuning ``det_nofb``), one syndrome cycle estimating the mode,
    one feedback cycle in the estimated mode's frame (``det_fb``).
    ``block_size`` groups repetitions that run one arm back-to-back before
    switching arms; a block runs its repetitions in ascending order.  Every
    row runs the one ``CycleSchedule`` of a row's cycles, built once.
    """
    qp = env.qubit
    n_tau = len(config.tau_grid)
    shape = (config.rows, n_tau, config.n_reps)
    counts_nofb, counts_fb = np.zeros((2, *shape[:2]), dtype=int)
    row_times = np.zeros(config.rows)
    syndrome_time = np.zeros(shape)
    true_xi, est_xi, outcome = np.zeros((3, *shape), dtype=int)

    cycles = []  # one probe time's cycles in run order, (kind, rep); a row runs them for each probe time
    for first in range(0, config.n_reps, config.block_size):
        block = range(first, min(first + config.block_size, config.n_reps))
        cycles += [(OPEN, rep) for rep in block]
        cycles += [(kind, rep) for rep in block for kind in (SYNDROME, FEEDBACK)]
    kind, rep = np.array(cycles).T
    kinds, tau_index = np.tile(kind, n_tau), np.repeat(np.arange(n_tau), kind.size)
    at = np.empty((3, n_tau, config.n_reps), dtype=np.intp)  # at[kind, i, rep]: the cycle run for (i, rep)
    at[kinds, tau_index, np.tile(rep, n_tau)] = np.arange(kinds.size)
    # The keys: open loop, feedback in the high frame, then in the low frame, syndrome.
    keys = [(qp.f_high, tau, 2.0 * math.pi * config.det_nofb * tau) for tau in config.tau_grid]
    for f_c in (qp.f_high, qp.f_low):
        keys += [(f_c, tau, 2.0 * math.pi * config.det_fb * tau) for tau in config.tau_grid]
    keys.append((qp.f_high, config.tau_probe, 0.0))
    feedback = kinds == FEEDBACK
    columns = np.array([tau_index + n_tau * feedback, tau_index + 2 * n_tau * feedback])
    columns[:, kinds == SYNDROME] = 3 * n_tau
    schedule = CycleSchedule(env, kinds, keys, columns, config.tau_probe)

    for row in range(config.rows):
        row_times[row] = env.clock
        bits, est, modes, ends = schedule.run(env, kinds.size)
        counts_nofb[row] = bits[at[OPEN]].sum(axis=1)
        counts_fb[row] = bits[at[FEEDBACK]].sum(axis=1)
        syndromes = at[SYNDROME]
        outcome[row], est_xi[row], true_xi[row] = bits[syndromes], est[syndromes], modes[syndromes]
        syndrome_time[row] = ends[syndromes]
        if config.idle_between_rows > 0:
            env.advance(config.idle_between_rows)

    return MitigationResult(
        counts_nofb / config.n_reps, counts_fb / config.n_reps, row_times, syndrome_time, true_xi, est_xi, outcome
    )


def syndrome_error_rate(
    env: Environment, n_cycles: int, tau_probe: float, resample_each_cycle: bool
) -> float:
    """Monte Carlo fraction of cycles whose mode estimate misses the true mode.

    The comparison uses the mode *after* the readout + reset dead time, i.e.
    at the moment the estimate would first be used.  ``resample_each_cycle``
    redraws the mode with equal odds before each cycle, the stationary
    ensemble of a frozen defect (one that can switch holds its mode's dwell,
    so it is refused); without it the environment's own mode is kept.  The
    cycles run as ``repeat_cycle`` schedules.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    runs = repeat_cycle(env, (env.qubit.f_high, tau_probe, 0.0), n_cycles, tau_probe, resample_each_cycle)
    return sum(int(np.count_nonzero(est != modes)) for _, est, modes, _ in runs) / n_cycles


@lru_cache(maxsize=1024)
def x_gate_excited_population(
    qp: QubitParams, f_c: float, xi: int, finite_pulses: bool = True
) -> float:
    """Excited-state population after one pi pulse at frame f_c, mode pinned.

    Deterministic (no readout), so memoised: the Bloch-vector counterpart of
    the Rabi transition probability, including decoherence during the pulse.
    """
    z = apply(pulse_map(0.0, math.pi, detuning(qp, f_c, xi), qp, finite_pulses), GROUND)[2]
    return (1.0 - z) / 2.0
