"""Feedback cycles: mode-syndrome estimation, detuned probing, interleaving.

The controller owns a rotating frame at ``f_c`` (one of the two mode
frequencies) and a wall clock.  One syndrome cycle estimates the current
mode from a single measurement and retunes ``f_c``; probing (Ramsey-style)
cycles read the qubit phase evolution with a software-applied virtual
detuning.  The defect process keeps evolving through every elapsed interval,
including readout and reset dead time, which is what makes stale estimates
possible.

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
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import telegraph
from .bloch import (
    BlochState,
    PulseSpec,
    QubitParams,
    apply_pulse,
    detuning,
    free_evolve,
    measure,
    reported_excited_probability,
    reset,
)
from .telegraph import TelegraphParams, TlsState

HALF_PI = 0.5 * math.pi


@dataclass
class Environment:
    """Mutable world state shared by the cycles of one experiment run.

    ``finite_pulses`` selects rectangular finite-duration pulses (with their
    detuning-tilted rotation axes) versus idealized instantaneous rotations.
    """

    qubit: QubitParams
    tls_params: TelegraphParams
    tls: TlsState
    finite_pulses: bool = True


def make_environment(
    qubit: QubitParams,
    tls_params: TelegraphParams,
    rng: np.random.Generator,
    pinned_mode: int | None = None,
    finite_pulses: bool = True,
) -> Environment:
    """Build an environment, drawing the initial mode stationarily unless pinned."""
    if pinned_mode is not None:
        tls = TlsState(xi=pinned_mode)
    elif tls_params.total_rate > 0:
        tls = telegraph.draw_stationary(tls_params, rng)
    else:
        raise ValueError("both switching rates are zero: pin the mode explicitly")
    return Environment(qubit=qubit, tls_params=tls_params, tls=tls, finite_pulses=finite_pulses)


@dataclass(frozen=True)
class ControllerState:
    """Feedback controller state: frame frequency, frame phase, wall clock."""

    f_c: float
    frame_phase: float = 0.0
    clock: float = 0.0


@dataclass(frozen=True)
class CycleTiming:
    """Per-cycle time budget (s)."""

    t_gate: float
    tau: float
    t_readout: float
    t_reset: float

    def __post_init__(self):
        for name in ("t_gate", "tau", "t_readout", "t_reset"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def cycle_total(self) -> float:
        return 2.0 * self.t_gate + self.tau + self.t_readout + self.t_reset


def cycle_bandwidth(timing: CycleTiming) -> float:
    """Estimation bandwidth 1/(tau + t_readout + t_reset).

    Gate times are excluded from the dead-time accounting; if the readout
    overlaps the next probe, 1/(tau + t_reset) applies instead (both numbers
    are surfaced by the CLI manifest).
    """
    if timing.cycle_total <= 0:
        raise ValueError("cycle has zero duration")
    denom = timing.tau + timing.t_readout + timing.t_reset
    if denom <= 0:
        raise ValueError("estimation window has zero duration")
    return 1.0 / denom


def _check_f_c(ctrl: ControllerState, qp: QubitParams) -> None:
    if ctrl.f_c not in (qp.f_low, qp.f_high):
        raise ValueError("controller frame must sit on one of the two mode frequencies")


def _advance_tls(env: Environment, dt: float, rng: np.random.Generator) -> None:
    env.tls = telegraph.evolve(env.tls, env.tls_params, dt, rng)


def _half_pi(axis_phase: float, qp: QubitParams, finite_pulses: bool) -> PulseSpec:
    if finite_pulses:
        return PulseSpec.finite(axis_phase, -HALF_PI, qp)
    return PulseSpec.instantaneous(axis_phase, -HALF_PI)


def _cycle_state(
    qp: QubitParams,
    finite_pulses: bool,
    f_c: float,
    xi_first: int,
    segments: list[tuple[int, float]],
    xi_second: int,
    second_axis_phase: float,
) -> BlochState:
    """State before readout of reset, X(-pi/2), free evolution, X(-pi/2) about ``second_axis_phase``.

    In frame f_c the first pulse sees mode ``xi_first``, the free evolution
    runs over the (xi, duration) dwell ``segments`` and the second pulse sees
    mode ``xi_second``.
    """
    state = apply_pulse(reset(), _half_pi(0.0, qp, finite_pulses), detuning(qp, f_c, xi_first), qp)
    for xi, dt in segments:
        state = free_evolve(state, detuning(qp, f_c, xi), dt, qp)
    pulse = _half_pi(second_axis_phase, qp, finite_pulses)
    return apply_pulse(state, pulse, detuning(qp, f_c, xi_second), qp)


@lru_cache(maxsize=4096)
def _switch_free_state(
    qp: QubitParams,
    finite_pulses: bool,
    f_c: float,
    xi: int,
    tau: float,
    second_axis_phase: float,
) -> BlochState:
    """``_cycle_state`` with mode ``xi`` over both pulses and tau, memoised.

    The segments are the ones ``telegraph.dwell_segments`` returns when
    nothing switches, so a cached state is bit-identical to a stepwise one.
    """
    segments = [(xi, tau)] if tau > 0.0 else []
    return _cycle_state(qp, finite_pulses, f_c, xi, segments, xi, second_axis_phase)


def _two_pulse_cycle(
    env: Environment,
    f_c: float,
    tau: float,
    second_axis_phase: float,
    clock: float,
    rng: np.random.Generator,
) -> tuple[BlochState, float]:
    """Reset, X(-pi/2), free evolution over tau, then X(-pi/2) about ``second_axis_phase``.

    Runs in frame f_c against the defect trajectory: the mode is held over
    each pulse (a switch takes effect afterwards) and may switch within the
    free evolution.  The trajectory is drawn first, over pulse 1, tau and
    pulse 2 in turn; a cycle that one mode covers takes its state from the
    memo.  Returns the state before readout and the clock advanced by both
    pulses and tau.
    """
    qp = env.qubit
    pulse_time = HALF_PI / qp.rabi_rate if env.finite_pulses else 0.0  # PulseSpec.finite's duration
    xi_first = env.tls.xi
    _advance_tls(env, pulse_time, rng)
    segments, env.tls = telegraph.dwell_segments(env.tls, env.tls_params, tau, rng)
    xi_second = env.tls.xi
    _advance_tls(env, pulse_time, rng)
    if len(segments) <= 1 and xi_second == xi_first:
        state = _switch_free_state(qp, env.finite_pulses, f_c, xi_first, tau, second_axis_phase)
    else:
        state = _cycle_state(
            qp, env.finite_pulses, f_c, xi_first, segments, xi_second, second_axis_phase
        )
    return state, clock + pulse_time + tau + pulse_time


def _noiseless(qp: QubitParams) -> QubitParams:
    return replace(qp, t1=math.inf, t_phi=math.inf, readout_eps_0to1=0.0, readout_eps_1to0=0.0)


def _two_pulse_probability(
    qp: QubitParams,
    f_c: float,
    xi: int,
    tau: float,
    second_axis_phase: float,
    finite_pulses: bool,
) -> float:
    """Deterministic P(m=1) of the two-pulse cycle with the mode pinned."""
    state = _switch_free_state(qp, finite_pulses, f_c, xi, tau, second_axis_phase)
    return reported_excited_probability(state.z, qp)


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
    return _two_pulse_probability(qp, f_c, xi, tau, phase, finite_pulses)


@lru_cache(maxsize=64)
def calibrate_decode_map(
    qp: QubitParams, tau_probe: float, finite_pulses: bool
) -> tuple[int, int]:
    """Map measurement outcome -> mode estimate, frozen from a noiseless run.

    Returns (xi_for_m0, xi_for_m1).  Raises if the probe time gives no
    contrast between the modes.
    """
    ideal = _noiseless(qp)
    p1 = [
        _two_pulse_probability(ideal, qp.f_high, xi, tau_probe, 0.0, finite_pulses)
        for xi in (0, 1)
    ]
    if abs(p1[0] - p1[1]) < 1e-6:
        raise ValueError("probe time yields no contrast between the modes")
    xi_for_m1 = 0 if p1[0] > p1[1] else 1
    return (1 - xi_for_m1, xi_for_m1)


def syndrome_cycle(
    env: Environment,
    ctrl: ControllerState,
    tau_probe: float,
    rng: np.random.Generator,
) -> tuple[int, ControllerState]:
    """One mode-estimation cycle; returns the outcome and the retuned controller.

    Probes in the high-mode frame, decodes the single shot into a mode
    estimate, advances the defect through readout + reset dead time, and sets
    f_c to the estimated mode's frequency.
    """
    if tau_probe <= 0:
        raise ValueError("tau_probe must be positive")
    qp = env.qubit
    _check_f_c(ctrl, qp)
    decode = calibrate_decode_map(qp, tau_probe, env.finite_pulses)

    state, clock = _two_pulse_cycle(env, qp.f_high, tau_probe, 0.0, ctrl.clock, rng)
    m, _ = measure(state, qp, rng)
    _advance_tls(env, qp.t_wall, rng)
    return m, ControllerState(qp.mode_frequency(decode[m]), ctrl.frame_phase, clock + qp.t_wall)


def ramsey_cycle(
    env: Environment,
    ctrl: ControllerState,
    tau: float,
    virtual_detuning: float,
    rng: np.random.Generator,
) -> tuple[int, ControllerState]:
    """One probing cycle at the controller's frame with a virtual detuning.

    The second pulse's axis is advanced by 2*pi*virtual_detuning*tau; the
    frame phase bookkeeping accumulates the applied shift.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    qp = env.qubit
    _check_f_c(ctrl, qp)

    virtual_phase = 2.0 * math.pi * virtual_detuning * tau
    state, clock = _two_pulse_cycle(env, ctrl.f_c, tau, virtual_phase, ctrl.clock, rng)
    m, _ = measure(state, qp, rng)
    _advance_tls(env, qp.t_wall, rng)
    return m, ControllerState(ctrl.f_c, ctrl.frame_phase + virtual_phase, clock + qp.t_wall)


@dataclass(frozen=True)
class FringeMatrix:
    """Fraction of m=1 outcomes per (repetition row, probe time)."""

    taus: np.ndarray
    values: np.ndarray
    row_times: np.ndarray


@dataclass(frozen=True)
class SyndromeRecord:
    row: int
    tau_index: int
    rep: int
    lab_time: float
    true_xi: int
    est_xi: int
    outcome: int


@dataclass(frozen=True)
class MitigationConfig:
    """Interleaved fringe experiment: alternating open-loop and feedback cycles."""

    tau_grid: tuple[float, ...]
    n_reps: int = 10
    rows: int = 1
    det_nofb: float = 2.0e6
    det_fb: float = 2.33e6
    tau_probe: float = 0.0  # 0 -> optimal probing time for the qubit params
    idle_between_rows: float = 0.0
    block_size: int = 1

    def __post_init__(self):
        if len(self.tau_grid) < 1:
            raise ValueError("tau_grid must be nonempty")
        for name in ("n_reps", "rows", "block_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.idle_between_rows >= 0:
            raise ValueError("idle_between_rows must be nonnegative")


@dataclass
class MitigationResult:
    no_feedback: FringeMatrix
    feedback: FringeMatrix
    trace: list[SyndromeRecord] = field(default_factory=list)


def default_tau_probe(qp: QubitParams) -> float:
    """Optimal probing time for the engine parameters."""
    from .analytics import tau_opt

    return tau_opt(qp.delta_tls, qp.t2)


def run_mitigation(
    env: Environment, config: MitigationConfig, rng: np.random.Generator
) -> MitigationResult:
    """Run the interleaved fringe experiment.

    Per probe time and repetition: one open-loop cycle in the high-mode frame
    (virtual detuning ``det_nofb``), one syndrome cycle retuning f_c, one
    feedback cycle at the retuned frame (``det_fb``).  ``block_size`` groups
    repetitions that run one arm back-to-back before switching arms.
    """
    qp = env.qubit
    taus = np.asarray(config.tau_grid, dtype=float)
    tau_probe = config.tau_probe or default_tau_probe(qp)
    n_tau = taus.size
    counts_nofb = np.zeros((config.rows, n_tau))
    counts_fb = np.zeros((config.rows, n_tau))
    row_times = np.zeros(config.rows)
    trace: list[SyndromeRecord] = []
    ctrl = ControllerState(f_c=qp.f_high)

    for row in range(config.rows):
        row_times[row] = ctrl.clock
        for i, tau in enumerate(taus):
            rep = 0
            while rep < config.n_reps:
                block = min(config.block_size, config.n_reps - rep)
                for _ in range(block):
                    open_loop = ControllerState(qp.f_high, ctrl.frame_phase, ctrl.clock)
                    m, ctrl = ramsey_cycle(env, open_loop, tau, config.det_nofb, rng)
                    counts_nofb[row, i] += m
                for k in range(block):
                    m_syn, ctrl = syndrome_cycle(env, ctrl, tau_probe, rng)
                    est_xi = 0 if ctrl.f_c == qp.f_high else 1
                    trace.append(
                        SyndromeRecord(
                            row=row,
                            tau_index=i,
                            rep=rep + k,
                            lab_time=ctrl.clock,
                            true_xi=env.tls.xi,
                            est_xi=est_xi,
                            outcome=m_syn,
                        )
                    )
                    m, ctrl = ramsey_cycle(env, ctrl, tau, config.det_fb, rng)
                    counts_fb[row, i] += m
                rep += block
        if config.idle_between_rows > 0:
            _advance_tls(env, config.idle_between_rows, rng)
            ctrl = ControllerState(ctrl.f_c, ctrl.frame_phase, ctrl.clock + config.idle_between_rows)

    return MitigationResult(
        no_feedback=FringeMatrix(taus=taus, values=counts_nofb / config.n_reps, row_times=row_times),
        feedback=FringeMatrix(taus=taus, values=counts_fb / config.n_reps, row_times=row_times),
        trace=trace,
    )


def syndrome_error_rate(
    env: Environment,
    n_cycles: int,
    tau_probe: float,
    rng: np.random.Generator,
    resample_each_cycle: bool | None = None,
) -> float:
    """Monte Carlo fraction of cycles whose retuned f_c misses the true mode.

    The comparison uses the mode *after* the readout + reset dead time, i.e.
    at the moment the estimate would first be used.  With a frozen defect
    (both rates zero) the mode is redrawn stationarily each cycle by default,
    which realizes the stationary ensemble without switching dynamics; pass
    ``resample_each_cycle=False`` to keep the pinned mode instead.
    """
    qp = env.qubit
    if resample_each_cycle is None:
        resample_each_cycle = env.tls_params.total_rate == 0.0
    ctrl = ControllerState(f_c=qp.f_high)
    errors = 0
    for _ in range(n_cycles):
        if resample_each_cycle:
            env.tls = TlsState(xi=(telegraph.XI_L if rng.random() < 0.5 else telegraph.XI_H))
        _, ctrl = syndrome_cycle(env, ctrl, tau_probe, rng)
        if ctrl.f_c != qp.mode_frequency(env.tls.xi):
            errors += 1
    return errors / n_cycles


@lru_cache(maxsize=1024)
def x_gate_excited_population(
    qp: QubitParams, f_c: float, xi: int, finite_pulses: bool = True
) -> float:
    """Excited-state population after one pi pulse at frame f_c, mode pinned.

    Deterministic (no readout), so memoised: the Bloch-vector counterpart of
    the Rabi transition probability, including decoherence during the pulse.
    """
    dq = detuning(qp, f_c, xi)
    if finite_pulses:
        pulse = PulseSpec.finite(0.0, math.pi, qp)
    else:
        pulse = PulseSpec.instantaneous(0.0, math.pi)
    state = apply_pulse(reset(), pulse, dq, qp)
    return (1.0 - state.z) / 2.0
