"""Single-qubit Bloch-vector engine in a controller-defined rotating frame.

Conventions, fixed once and relied on everywhere else:

* z = +1 is the ground state |0>; relaxation drives z toward +1.
* ``detuning(params, f_c, xi)`` = f_c - f_q(xi): control frequency minus the
  instantaneous qubit frequency, in Hz.
* Free precession rotates (x, y) about +z by 2*pi*delta_q*dt (right-handed).
  With instantaneous pulses and no decoherence the two-pulse sequence
  X(-pi/2) -- free(tau) -- X(-pi/2) therefore returns
  P(m=1) = (1 + cos(2*pi*delta_q*tau)) / 2.
* A pulse of nominal angle theta about the equatorial axis at phase phi
  rotates the Bloch vector by theta about (cos phi, sin phi, 0),
  right-handed: X(-pi/2) maps (0, 0, 1) -> (0, 1, 0).
* A finite-duration pulse with signed drive rate W = theta/duration and
  angular detuning wd = 2*pi*delta_q rotates by sqrt(W^2 + wd^2)*duration
  about the tilted axis (W cos phi, W sin phi, wd)/sqrt(W^2 + wd^2).

Decoherence contracts (x, y) by exp(-dt/T2) and relaxes z toward +1 with
exp(-dt/T1), where 1/T2 = 1/(2 T1) + 1/Tphi.  During a finite pulse the
contraction is applied after the rotation (operator splitting; pulse
durations are ~1e-3 of T1, T2, so the splitting error is negligible).

A Bloch state is the tuple (x, y, z); a cycle starts from ``GROUND``.
Every propagation step is an affine map v -> M v + c held as 12 Python
floats (the rows of M, then c); it is the single propagation form of the
package.  ``pulse_map`` and ``free_map`` build the map of one step (a finite
pulse lasts ``pulse_duration``), ``compose`` chains maps in time order and
``apply`` takes a state to its image, so a precompiled sequence and a
step-by-step one run the same arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class QubitParams:
    """Physical constants of the bistable qubit.

    Frequencies in Hz, times in s, ``rabi_rate`` in rad/s.  Readout errors
    are classical assignment-error probabilities (state preparation error is
    folded into the same budget).
    """

    f_low: float
    f_high: float
    rabi_rate: float
    t1: float
    t_phi: float
    readout_eps_0to1: float = 0.03
    readout_eps_1to0: float = 0.03
    t_readout: float = 2e-6
    t_reset: float = 6e-6

    def __post_init__(self):
        if not -math.inf < self.f_low < self.f_high < math.inf or self.delta_tls == math.inf:
            raise ValueError("f_high must exceed f_low, both finite, by a finite splitting")
        for name in ("rabi_rate", "t1", "t_phi"):  # t1, t_phi = inf: no decay
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.rabi_rate == math.inf:
            raise ValueError("rabi_rate must be finite")
        if self.t2 == 0.0:  # 1/(2 T1) + 1/Tphi overflows for times below ~1e-308 s
            raise ValueError("T2 = 1/(1/(2 t1) + 1/t_phi) must be positive: t1 or t_phi is too short")
        for name in ("readout_eps_0to1", "readout_eps_1to0"):
            if not 0.0 <= getattr(self, name) < 0.5:
                raise ValueError(f"{name} must lie in [0, 0.5)")
        for name in ("t_readout", "t_reset"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # Hashed once: the memoised protocol functions take QubitParams as a key every cycle.
        return hash(astuple(self))

    @property
    def delta_tls(self) -> float:
        """Mode splitting f_high - f_low in Hz."""
        return self.f_high - self.f_low

    @property
    def t2(self) -> float:
        """Coherence time from 1/T2 = 1/(2 T1) + 1/Tphi."""
        rate = 0.5 / self.t1 + 1.0 / self.t_phi
        return math.inf if rate == 0.0 else 1.0 / rate

    @property
    def alpha(self) -> float:
        """Fringe visibility 1 - eps01 - eps10 left after assignment errors."""
        return 1.0 - self.readout_eps_0to1 - self.readout_eps_1to0

    @property
    def t_pi(self) -> float:
        """Duration pi/rabi_rate of a full-amplitude pi pulse."""
        return math.pi / self.rabi_rate

    @property
    def t_wall(self) -> float:
        """Hardware dead time per cycle (readout plus resonator reset)."""
        return self.t_readout + self.t_reset

    def mode_frequency(self, xi: int) -> float:
        """Qubit frequency in mode ``xi`` (0 -> f_high, 1 -> f_low): the configured value itself."""
        return self.f_low if xi else self.f_high

    @classmethod
    def defaults(cls, **overrides) -> "QubitParams":
        """Reference device parameter set (374 kHz splitting, 48 ns pi pulse)."""
        params = cls(
            f_low=5.10e9 - 374e3,
            f_high=5.10e9,
            rabi_rate=math.pi / 48e-9,
            t1=74e-6,
            t_phi=61e-6,
        )
        return replace(params, **overrides) if overrides else params


# An affine Bloch map v -> M v + c is a tuple of 12 Python floats: the rows of
# M, then c.
IDENTITY = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
# A Bloch state is the tuple (x, y, z); every cycle starts from the ground state.
GROUND = (0.0, 0.0, 1.0)


def detuning(params: QubitParams, f_c: float, xi: int) -> float:
    """Frame detuning f_c - f_q(xi) in Hz."""
    return f_c - params.mode_frequency(xi)


def _rotation(nx: float, ny: float, nz: float, angle: float) -> tuple:
    """Right-handed rotation by ``angle`` about the unit axis (nx, ny, nz), as an affine map."""
    c = math.cos(angle)
    s = math.sin(angle)
    k = 1.0 - c
    return (
        c + nx * nx * k, nx * ny * k - nz * s, nx * nz * k + ny * s,
        ny * nx * k + nz * s, c + ny * ny * k, ny * nz * k - nx * s,
        nz * nx * k - ny * s, nz * ny * k + nx * s, c + nz * nz * k,
        0.0, 0.0, 0.0,
    )


def _decay(dt: float, params: QubitParams) -> tuple:
    """Decay over ``dt``: (x, y) scale by exp(-dt/T2); z relaxes toward +1 by exp(-dt/T1)."""
    e2 = math.exp(-dt / params.t2)
    e1 = math.exp(-dt / params.t1)
    return (e2, 0.0, 0.0, 0.0, e2, 0.0, 0.0, 0.0, e1, 0.0, 0.0, 1.0 - e1)


def compose(*maps: tuple) -> tuple:
    """The single affine map that applies ``maps`` in time order (first argument first)."""
    m = maps[0]
    for a in maps[1:]:
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = a
        m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11 = m
        m = (
            a0 * m0 + a1 * m3 + a2 * m6, a0 * m1 + a1 * m4 + a2 * m7, a0 * m2 + a1 * m5 + a2 * m8,
            a3 * m0 + a4 * m3 + a5 * m6, a3 * m1 + a4 * m4 + a5 * m7, a3 * m2 + a4 * m5 + a5 * m8,
            a6 * m0 + a7 * m3 + a8 * m6, a6 * m1 + a7 * m4 + a8 * m7, a6 * m2 + a7 * m5 + a8 * m8,
            a0 * m9 + a1 * m10 + a2 * m11 + a9,
            a3 * m9 + a4 * m10 + a5 * m11 + a10,
            a6 * m9 + a7 * m10 + a8 * m11 + a11,
        )
    return m


def apply(m: tuple, v: tuple) -> tuple:
    """Image of the Bloch state ``v`` = (x, y, z) under the affine map ``m``."""
    x, y, z = v
    return (
        m[0] * x + m[1] * y + m[2] * z + m[9],
        m[3] * x + m[4] * y + m[5] * z + m[10],
        m[6] * x + m[7] * y + m[8] * z + m[11],
    )


def pulse_duration(angle: float, params: QubitParams) -> float:
    """Duration |angle|/rabi_rate of a finite pulse: rectangular, at full drive amplitude."""
    return abs(angle) / params.rabi_rate


def pulse_map(
    axis_phase: float, angle: float, delta_q: float, params: QubitParams, finite: bool
) -> tuple:
    """Map of a pulse of signed ``angle`` about the equatorial axis at ``axis_phase``
    (0 = X axis), at frame detuning ``delta_q``.

    An instantaneous pulse is the bare rotation.  A finite one lasts
    ``pulse_duration(angle, params)``: rotation about the detuning-tilted
    axis, then decay over the pulse.
    """
    cphi = math.cos(axis_phase)
    sphi = math.sin(axis_phase)
    if not finite:
        return _rotation(cphi, sphi, 0.0, angle)
    duration = pulse_duration(angle, params)
    if duration == 0.0:
        return IDENTITY
    w_drive = angle / duration
    w_detune = 2.0 * math.pi * delta_q
    w_total = math.hypot(w_drive, w_detune)
    if w_total == 0.0:
        return _decay(duration, params)
    axis = (w_drive * cphi / w_total, w_drive * sphi / w_total, w_detune / w_total)
    return compose(_rotation(*axis, w_total * duration), _decay(duration, params))


def free_map(delta_q: float, dt: float, params: QubitParams) -> tuple:
    """Map of free evolution: precession about z by 2*pi*delta_q*dt, then decay over ``dt``."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    return compose(_rotation(0.0, 0.0, 1.0, 2.0 * math.pi * delta_q * dt), _decay(dt, params))


def rabi_transition_probability(delta_q: float, params: QubitParams) -> float:
    """Excited-state population after a nominal pi pulse detuned by ``delta_q`` Hz.

    Generalized Rabi formula W^2/(W^2+d^2) * sin^2(pi*sqrt(W^2+d^2)/(2W))
    with d = 2*pi*delta_q.
    """
    w = params.rabi_rate
    d = 2.0 * math.pi * delta_q
    w_gen_sq = w * w + d * d
    amp = w * w / w_gen_sq
    return amp * math.sin(0.5 * math.pi * math.sqrt(w_gen_sq) / w) ** 2


def readout_bit(z: float, u1: float, u2: float, params: QubitParams) -> int:
    """Reported outcome of a z measurement of a state with Bloch z-component ``z``,
    decided by the uniforms ``u1`` (the true projection: excited when
    u1 < p_excited) and ``u2`` (the assignment-error flip of its report).

    Pure: the draws are the caller's, so a readout can be drawn before the
    state it decides is known.
    """
    p_excited = min(max((1.0 - z) / 2.0, 0.0), 1.0)
    if u1 < p_excited:
        return 0 if u2 < params.readout_eps_1to0 else 1
    return 1 if u2 < params.readout_eps_0to1 else 0


def readout_bits(z: np.ndarray, u1: np.ndarray, u2: np.ndarray, params: QubitParams) -> np.ndarray:
    """``readout_bit`` elementwise on arrays: the same arithmetic and comparisons, so the same bits."""
    p_excited = np.clip((1.0 - z) / 2.0, 0.0, 1.0)
    return np.where(u1 < p_excited, u2 >= params.readout_eps_1to0, u2 < params.readout_eps_0to1).astype(int)


def measure(z: float, params: QubitParams, rng: np.random.Generator) -> int:
    """Reported outcome of a projective z measurement of a state with Bloch z-component ``z``.

    Draw contract: exactly two ``rng.random()`` calls, the projection's then
    the report's, whatever ``z`` and the assignment errors are; a deferred
    readout relies on it.  The state after readout is not kept, since every
    cycle starts from a reset.
    """
    return readout_bit(z, rng.random(), rng.random(), params)


def reported_excited_probability(z: float, params: QubitParams) -> float:
    """P(m=1) for a state with Bloch z-component ``z``, including assignment errors."""
    p_excited = min(max((1.0 - z) / 2.0, 0.0), 1.0)
    return p_excited * (1.0 - params.readout_eps_1to0) + (1.0 - p_excited) * params.readout_eps_0to1

