"""Simulator and analytics toolkit for a qubit with a telegraphic frequency shift.

A slow two-level defect makes the qubit frequency switch between two known
values.  This package simulates the resulting dynamics (Bloch vector, exact
telegraph jumps, decoherence, noisy readout), implements the single-shot
mode-estimation feedback protocol with interleaved validation experiments
(detuned fringe probing, randomized benchmarking), and provides the matching
closed-form error budgets as an oracle layer.
"""

__version__ = "0.6.0"

from .bloch import QubitParams
from .protocol import Environment
from .telegraph import TelegraphParams

__all__ = [
    "QubitParams",
    "Environment",
    "TelegraphParams",
    "__version__",
]
