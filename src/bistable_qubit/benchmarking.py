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
from functools import cache
from itertools import accumulate

import numpy as np
from scipy.optimize import curve_fit

from . import telegraph
from .bloch import (
    IDENTITY,
    BlochState,
    PulseSpec,
    QubitParams,
    compose,
    detuning,
    free_map,
    measure,
    pulse_map,
)
from .protocol import ControllerState, Environment, default_tau_probe, syndrome_cycle

HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class NativePulse:
    """Physical equatorial pulse: axis phase in-plane, signed rotation angle."""

    axis_phase: float
    angle: float


@dataclass(frozen=True, eq=False)
class CliffordElement:
    index: int
    pulses: tuple
    unitary: np.ndarray

    @property
    def n_pulses(self) -> int:
        return len(self.pulses)


def _pulse_unitary(axis_phase: float, angle: float) -> np.ndarray:
    c = math.cos(0.5 * angle)
    s = math.sin(0.5 * angle)
    return np.array(
        [[c, -1j * s * np.exp(-1j * axis_phase)], [-1j * s * np.exp(1j * axis_phase), c]]
    )


def decomposition_unitary(pulses: tuple) -> np.ndarray:
    """Composed unitary of a time-ordered pulse list."""
    u = np.eye(2, dtype=complex)
    for gate in pulses:
        u = _pulse_unitary(gate.axis_phase, gate.angle) @ u
    return u


def _decomposition_specs() -> list[tuple]:
    x_axis, y_axis = 0.0, HALF_PI
    specs: list[tuple] = []
    for e0 in (1.0, 0.5, -0.5):
        for e1 in (0.0, 0.5, -0.5):
            tail_y = (NativePulse(y_axis, e1 * math.pi),) if e1 else ()
            tail_x = (NativePulse(x_axis, e1 * math.pi),) if e1 else ()
            specs.append((NativePulse(x_axis, e0 * math.pi),) + tail_y)
            specs.append((NativePulse(y_axis, e0 * math.pi),) + tail_x)
    specs.append(())
    specs.append((NativePulse(y_axis, math.pi), NativePulse(x_axis, math.pi)))
    for y0, ex, y1 in ((-0.5, 0.5, 0.5), (-0.5, -0.5, 0.5), (0.5, 0.5, 0.5), (-0.5, 0.5, -0.5)):
        specs.append(
            (
                NativePulse(y_axis, y0 * math.pi),
                NativePulse(x_axis, ex * math.pi),
                NativePulse(y_axis, y1 * math.pi),
            )
        )
    return specs


@cache
def clifford_table() -> tuple[CliffordElement, ...]:
    """The 24 single-qubit Cliffords in the X/Y pulse decomposition."""
    elements = tuple(
        CliffordElement(index=i, pulses=spec, unitary=decomposition_unitary(spec))
        for i, spec in enumerate(_decomposition_specs())
    )
    return elements


def gates_per_clifford() -> float:
    """Average physical-pulse count per Clifford element."""
    table = clifford_table()
    return sum(e.n_pulses for e in table) / len(table)


def _match_scores(u: np.ndarray, stack: np.ndarray) -> np.ndarray:
    return np.abs(np.einsum("nij,ji->n", stack.conj().transpose(0, 2, 1), u)) / 2.0


@cache
def _unitary_stack() -> np.ndarray:
    return np.stack([e.unitary for e in clifford_table()])


def match_element(u: np.ndarray) -> int:
    """Index of the table element equal to ``u`` up to global phase."""
    scores = _match_scores(u, _unitary_stack())
    idx = int(np.argmax(scores))
    if scores[idx] < 1.0 - 1e-9:
        raise ValueError("unitary is not a Clifford element of the table")
    return idx


@cache
def _product_table() -> np.ndarray:
    """prod[a, b] = index of U_a @ U_b (group closure)."""
    table = clifford_table()
    n = len(table)
    prod = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            prod[a, b] = match_element(table[a].unitary @ table[b].unitary)
    return prod


@cache
def _inverse_indices() -> tuple[int, ...]:
    return tuple(match_element(e.unitary.conj().T) for e in clifford_table())


@cache
def identity_index() -> int:
    return match_element(np.eye(2, dtype=complex))


def random_sequence(length: int, rng: np.random.Generator) -> tuple[list[int], int]:
    """Uniform i.i.d. Clifford indices plus the recovery element's index.

    The recovery is the inverse of the composed sequence, so executing the
    sequence followed by the recovery implements the identity up to phase.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    prod = _product_table()
    indices = rng.integers(0, len(clifford_table()), size=length).tolist()
    composed = identity_index()
    for idx in indices:
        composed = prod[idx, composed]
    return indices, _inverse_indices()[int(composed)]


# ---------------------------------------------------------------------------
# Execution


class SequenceExecutor:
    """Runs Clifford sequences against the environment's defect trajectory.

    Each native pulse occupies one slot and runs in the mode at the slot's
    start: the mode is held over a slot and switches take effect at slot
    boundaries.  Per (mode, frame) combination every element is precompiled
    into the affine Bloch maps of its slots and their composition, so an
    element that one dwell segment covers costs a single map application and
    only an element a switch lands inside is stepped slot by slot.
    """

    def __init__(self, env: Environment, table: tuple[CliffordElement, ...] | None = None):
        self.env = env
        self.table = table if table is not None else clifford_table()
        self.slot = env.qubit.t_pi
        self.durations = tuple(e.n_pulses * self.slot for e in self.table)
        self._maps: dict[tuple[int, float], list[tuple[tuple, tuple]]] = {}

    def _map_table(self, xi: int, f_c: float) -> list[tuple[tuple, tuple]]:
        """Per element: (its composed map,) and the maps of its slots, in mode xi and frame f_c."""
        key = (xi, f_c)
        if key not in self._maps:
            qp = self.env.qubit
            delta_q = detuning(qp, f_c, xi)
            entries = []
            for element in self.table:
                slots = []
                for gate in element.pulses:
                    pulse = PulseSpec.finite(gate.axis_phase, gate.angle, qp)
                    steps = [pulse_map(pulse, delta_q, qp)]
                    if self.slot > pulse.duration:
                        steps.append(free_map(delta_q, self.slot - pulse.duration, qp))
                    slots.append(compose(*steps))
                entries.append(((compose(IDENTITY, *slots),), tuple(slots)))
            self._maps[key] = entries
        return self._maps[key]

    def run(
        self, indices: list[int], f_c: float, clock: float, rng: np.random.Generator
    ) -> tuple[int, float]:
        """Execute reset -> sequence -> measure; returns (outcome, new clock).

        Advances the defect process through the sequence and the trailing
        readout + reset dead time.
        """
        env = self.env
        qp = env.qubit
        if f_c not in (qp.f_high, qp.f_low):
            raise ValueError("sequence frame must sit on one of the two mode frequencies")
        durations = self.durations
        slot = self.slot
        total = 0.0
        for i in indices:
            total += durations[i]
        segments, env.tls = telegraph.dwell_segments(env.tls, env.tls_params, total, rng)
        # Segment end times from the sequence start; the last segment covers the
        # rest.  A pulse-free sequence has no segments and applies only identities.
        ends = list(accumulate(dt for _, dt in segments))[:-1] + [math.inf]
        seg = 0
        table = self._map_table(segments[0][0] if segments else env.tls.xi, f_c)
        end = ends[0]
        t = 0.0
        x, y, z = 0.0, 0.0, 1.0
        for i in indices:
            if t + durations[i] - slot <= end:  # every slot starts in this segment
                steps = table[i][0]
            else:  # a switch lands inside the element: step it slot by slot
                steps = []
                for k in range(len(table[i][1])):
                    while t + k * slot > end:
                        seg += 1
                        end = ends[seg]
                        table = self._map_table(segments[seg][0], f_c)
                    steps.append(table[i][1][k])
            t += durations[i]
            # bloch.apply, inlined: a call per step would dominate runs of a
            # few million Cliffords.
            for m in steps:
                x, y, z = (
                    m[0] * x + m[1] * y + m[2] * z + m[9],
                    m[3] * x + m[4] * y + m[5] * z + m[10],
                    m[6] * x + m[7] * y + m[8] * z + m[11],
                )
        outcome, _ = measure(BlochState(x, y, z), qp, rng)
        env.tls = telegraph.evolve(env.tls, env.tls_params, qp.t_wall, rng)
        return outcome, clock + total + qp.t_wall


# ---------------------------------------------------------------------------
# Decay fitting


@dataclass(frozen=True)
class FitResult:
    """A * decay^L + offset fit of survival versus sequence depth."""

    amplitude: float
    decay: float
    offset: float
    amplitude_err: float
    decay_err: float
    offset_err: float
    r_clifford: float
    r_clifford_err: float
    r_native: float
    r_native_err: float
    ok: bool


def _failed_fit() -> FitResult:
    nan = float("nan")
    return FitResult(nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, False)


def fit_exponential(
    depths,
    survivals,
    weights=None,
    gates_per_clifford_value: float | None = None,
) -> FitResult:
    """Weighted least-squares fit of A*p^L + B.

    ``weights`` are inverse variances per point (None for unweighted).  The
    per-Clifford infidelity is r = (1-p)/2 and the per-native-gate value
    divides by the decomposition's average pulse count.  A fit that does not
    converge, or lands at p > 1, is returned with ``ok=False``.
    """
    depths = np.asarray(depths, dtype=float)
    survivals = np.asarray(survivals, dtype=float)
    if np.unique(depths).size < 3:
        raise ValueError("need at least three distinct depths")
    if np.any((survivals < 0) | (survivals > 1)):
        raise ValueError("survivals must lie in [0, 1]")
    gpc = gates_per_clifford() if gates_per_clifford_value is None else gates_per_clifford_value

    if float(np.ptp(survivals)) < 1e-12:
        b = float(survivals.mean())
        return FitResult(0.0, 1.0, b, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, True)

    sigma = None
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        sigma = 1.0 / np.sqrt(weights)

    def model(length, a, p, b):
        return a * np.power(p, length) + b

    b0 = 0.5
    a0 = float(np.clip(survivals[np.argmin(depths)] - b0, 0.05, 1.0))
    popt = None
    for p_guess in (0.999, 0.99, 0.9999, 0.9):
        try:
            popt, pcov = curve_fit(
                model,
                depths,
                survivals,
                p0=(a0, p_guess, b0),
                sigma=sigma,
                absolute_sigma=sigma is not None,
                bounds=([0.0, 1e-9, 0.0], [1.0, 1.05, 1.0]),
                maxfev=20000,
            )
            break
        except (RuntimeError, ValueError):
            continue
    if popt is None or not np.all(np.isfinite(popt)):
        return _failed_fit()
    a, p, b = (float(v) for v in popt)
    if p > 1.0 + 1e-9:
        return _failed_fit()
    p = min(p, 1.0)
    errs = np.sqrt(np.abs(np.diag(pcov)))
    r = 0.5 * (1.0 - p)
    r_err = 0.5 * float(errs[1])
    return FitResult(
        amplitude=a,
        decay=p,
        offset=b,
        amplitude_err=float(errs[0]),
        decay_err=float(errs[1]),
        offset_err=float(errs[2]),
        r_clifford=r,
        r_clifford_err=r_err,
        r_native=r / gpc,
        r_native_err=r_err / gpc,
        ok=True,
    )


# ---------------------------------------------------------------------------
# Interleaved runs


@dataclass(frozen=True)
class RbConfig:
    """Interleaved benchmarking run: depth sweep per window, windows in time."""

    depths: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
    n_sequences: int = 100
    shots_per_sequence: int = 1
    n_windows: int = 1
    idle_between_windows: float = 0.0
    tau_probe: float = 0.0  # 0 -> optimal probe time for the qubit params

    def __post_init__(self):
        if len(self.depths) < 3:
            raise ValueError("depths must hold at least 3 depths, one per fit parameter")
        if any(b <= a for a, b in zip(self.depths, self.depths[1:])):
            raise ValueError("depths must be strictly increasing")
        if self.depths[0] < 0:
            raise ValueError("depths must be nonnegative")
        for name in ("n_sequences", "shots_per_sequence", "n_windows"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.idle_between_windows >= 0:
            raise ValueError("idle_between_windows must be nonnegative")


@dataclass(frozen=True)
class RbWindow:
    index: int
    lab_time_start: float
    lab_time_end: float
    survivals_nofb: np.ndarray
    survivals_fb: np.ndarray
    shots_per_depth: int
    fit_nofb: FitResult
    fit_fb: FitResult
    mode_fraction_l: float


@dataclass(frozen=True)
class RbTimeSeries:
    depths: np.ndarray
    windows: list[RbWindow]
    gates_per_clifford: float


def _survival_weights(k: np.ndarray, n: int) -> np.ndarray:
    smoothed = (k + 0.5) / (n + 1.0)
    return n / (smoothed * (1.0 - smoothed))


def run_rb_interleaved(
    env: Environment, config: RbConfig, rng: np.random.Generator
) -> RbTimeSeries:
    """Interleave each random sequence without and with syndrome feedback.

    Per sequence the frame is first reset to the high-mode frequency and the
    sequence is executed; one syndrome cycle then retunes the frame and the
    same sequence runs again.  Each window holds one full depth sweep and is
    fitted per arm; non-converged fits are flagged, not raised.
    """
    qp = env.qubit
    executor = SequenceExecutor(env)
    tau_probe = config.tau_probe or default_tau_probe(qp)
    ctrl = ControllerState(f_c=qp.f_high)
    depths = np.asarray(config.depths, dtype=int)
    shots_per_depth = config.n_sequences * config.shots_per_sequence
    windows: list[RbWindow] = []

    for w in range(config.n_windows):
        t_start = ctrl.clock
        k_nofb = np.zeros(depths.size)
        k_fb = np.zeros(depths.size)
        xi_sum = 0
        xi_count = 0
        for di, length in enumerate(depths):
            for _ in range(config.n_sequences):
                indices, recovery = random_sequence(int(length), rng)
                indices.append(recovery)
                xi_sum += env.tls.xi
                xi_count += 1
                ctrl = ControllerState(qp.f_high, ctrl.frame_phase, ctrl.clock)
                for _ in range(config.shots_per_sequence):
                    m, clock = executor.run(indices, qp.f_high, ctrl.clock, rng)
                    ctrl = ControllerState(ctrl.f_c, ctrl.frame_phase, clock)
                    k_nofb[di] += m == 0
                _, ctrl = syndrome_cycle(env, ctrl, tau_probe, rng)
                for _ in range(config.shots_per_sequence):
                    m, clock = executor.run(indices, ctrl.f_c, ctrl.clock, rng)
                    ctrl = ControllerState(ctrl.f_c, ctrl.frame_phase, clock)
                    k_fb[di] += m == 0
        surv_nofb = k_nofb / shots_per_depth
        surv_fb = k_fb / shots_per_depth
        windows.append(
            RbWindow(
                index=w,
                lab_time_start=t_start,
                lab_time_end=ctrl.clock,
                survivals_nofb=surv_nofb,
                survivals_fb=surv_fb,
                shots_per_depth=shots_per_depth,
                fit_nofb=fit_exponential(
                    depths, surv_nofb, _survival_weights(k_nofb, shots_per_depth)
                ),
                fit_fb=fit_exponential(
                    depths, surv_fb, _survival_weights(k_fb, shots_per_depth)
                ),
                mode_fraction_l=xi_sum / xi_count,
            )
        )
        if config.idle_between_windows > 0:
            env.tls = telegraph.evolve(
                env.tls, env.tls_params, config.idle_between_windows, rng
            )
            ctrl = ControllerState(
                ctrl.f_c, ctrl.frame_phase, ctrl.clock + config.idle_between_windows
            )

    return RbTimeSeries(depths=depths, windows=windows, gates_per_clifford=gates_per_clifford())


def decoherence_floor_per_gate(qp: QubitParams) -> float:
    """Analytic per-native-gate infidelity floor t_gate*(1/T1 + 1/T_phi)/3."""
    return qp.t_pi * (1.0 / qp.t1 + 1.0 / qp.t_phi) / 3.0
