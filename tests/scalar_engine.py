"""The scalar reference of the staged engines: every cycle and every run on its own.

``schedule_run`` stands in for ``protocol.CycleSchedule.run`` and
``executor_run`` for ``benchmarking.SequenceExecutor.run``.  Each makes the
draws of the staged method in its order per stream and returns the same
arrays, so a run with them monkeypatched in must write the same bytes.
"""

import math

import numpy as np

from bistable_qubit import telegraph
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
    """``SequenceExecutor.run`` one run at a time: every run stepped by ``_step`` and read out by ``env.readout``."""
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
                z = self._step(sequence, f_c, segments)[2]
                bits[p, arm, shot] = env.readout(z)
    return bits, modes


def scalar_ramsey_cycle(env, f_c, tau, virtual_detuning):
    """One probing cycle run alone: its outcome."""
    return env.readout(_two_pulse_cycle(env, f_c, tau, 2.0 * math.pi * virtual_detuning * tau)[2])
