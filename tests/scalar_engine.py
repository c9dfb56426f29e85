"""The scalar reference of the staged engines: every cycle and every run on its own.

``schedule_run`` stands in for ``protocol.CycleSchedule.run`` and
``executor_run`` for ``benchmarking.SequenceExecutor.run``.  Each makes the
draws of the staged method in its order per stream and returns the same
arrays, so a run with them monkeypatched in must write the same bytes.
``step`` steps one run Clifford by Clifford on maps it builds from ``bloch``,
the reference of ``SequenceExecutor._step_batch``.
"""

import functools
import math
from itertools import accumulate

import numpy as np

from bistable_qubit import telegraph
from bistable_qubit.benchmarking import PULSES
from bistable_qubit.bloch import IDENTITY, compose, detuning, free_map, pulse_duration, pulse_map
from bistable_qubit.protocol import FEEDBACK, SYNDROME, _two_pulse_cycle, syndrome_cycle


def schedule_run(self, env, n):
    """``CycleSchedule.run`` one cycle at a time: the resample draw, ``_two_pulse_cycle``, ``env.readout``."""
    bits, est, modes = np.zeros((3, n), dtype=int)
    ends = np.empty(n)
    m = 0  # the last SYNDROME outcome
    for k in range(n):
        if self.resample:
            env.xi = telegraph.XI_L if env.uniforms.next() < 0.5 else telegraph.XI_H
        kind = self.kinds[k]
        key = self.keys[self.columns[self.decode[m] if kind == FEEDBACK else 0, k]]
        bits[k] = env.readout(_two_pulse_cycle(env, *key)[2])
        if kind == SYNDROME:
            m = bits[k]
            est[k] = self.decode[m]
        modes[k], ends[k] = env.xi, env.clock
    return bits, est, modes, ends


def executor_run(self, sequences, shots, tau_probe):
    """``SequenceExecutor.run`` one run at a time: every run stepped by ``step`` and read out by ``env.readout``."""
    env, qp = self.env, self.env.qubit
    bits = np.empty((len(sequences), 2, shots), dtype=int)
    modes = np.empty(len(sequences), dtype=int)
    for p, sequence in enumerate(sequences.tolist()):
        total = 0.0
        for i in sequence:  # left to right, as the staged row cumsum adds
            total += self.durations[i]
        modes[p], f_c = env.xi, qp.f_high
        for arm in (0, 1):
            if arm:
                f_c = qp.mode_frequency(syndrome_cycle(env, tau_probe)[1])
            for shot in range(shots):
                segments = env.dwell(total) or [(env.xi, 0.0)]  # a depth-0 run has no segment
                z = step(qp, sequence, f_c, segments)[2]
                bits[p, arm, shot] = env.readout(z)
    return bits, modes


@functools.lru_cache(maxsize=None)
def _element_maps(qp, xi, f_c):
    """Per Clifford, in mode ``xi`` and frame ``f_c``: (its composed map, its slots' maps)."""
    slot, delta_q = qp.t_pi, detuning(qp, f_c, xi)
    entries = []
    for pulses in PULSES:
        slots = []
        for axis_phase, angle in pulses:
            steps = [pulse_map(axis_phase, angle, delta_q, qp, True)]
            if slot > pulse_duration(angle, qp):
                steps.append(free_map(delta_q, slot - pulse_duration(angle, qp), qp))
            slots.append(compose(*steps))
        entries.append((compose(IDENTITY, *slots), tuple(slots)))
    return entries


def slot_steps(qp, indices, segments):
    """The maps a run of ``indices`` over its (mode, duration) dwell segments applies, in
    order, each as (mode, element, slot), the slot None for the element's composed map.

    Each native pulse runs in the mode at its slot's start.  An element whose slots all
    start in one segment runs as its composed map; one that a switch lands inside, slot
    by slot.
    """
    slot = qp.t_pi
    durations = [len(pulses) * slot for pulses in PULSES]
    # Segment end times from the sequence start; the last segment covers the rest.
    ends = list(accumulate(dt for _, dt in segments))[:-1] + [math.inf]
    seg, t = 0, 0.0
    for i in indices:
        if t + durations[i] - slot <= ends[seg]:  # every slot starts in this segment
            yield segments[seg][0], i, None
        else:  # a switch lands inside the element: step it slot by slot
            for k in range(len(PULSES[i])):
                while t + k * slot > ends[seg]:
                    seg += 1
                yield segments[seg][0], i, k
        t += durations[i]


def step(qp, indices, f_c, segments):
    """Bloch vector after the run from ground in frame ``f_c``: the maps of ``slot_steps``,
    built from ``bloch``, applied in turn."""
    x, y, z = 0.0, 0.0, 1.0
    for xi, i, k in slot_steps(qp, indices, segments):
        composed, slots = _element_maps(qp, xi, f_c)[i]
        m = composed if k is None else slots[k]
        x, y, z = (
            m[0] * x + m[1] * y + m[2] * z + m[9],
            m[3] * x + m[4] * y + m[5] * z + m[10],
            m[6] * x + m[7] * y + m[8] * z + m[11],
        )
    return x, y, z


def scalar_ramsey_cycle(env, f_c, tau, virtual_detuning):
    """One probing cycle run alone: its outcome."""
    return env.readout(_two_pulse_cycle(env, f_c, tau, 2.0 * math.pi * virtual_detuning * tau)[2])
