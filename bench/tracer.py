"""Span tracing installed from outside the package.

``Tracer.install`` wraps every public module-level function of the
``bistable_qubit`` modules, plus ``SequenceExecutor.run``, in a timing and
counting wrapper.  Modules hold their own references to names they imported
(``protocol.apply_pulse`` is ``bloch.apply_pulse``), so every binding of the
original object in every package module is replaced, and ``restore`` puts
the originals back.  The wrappers call no random number generator, so a
traced run draws exactly the random numbers an untraced one does.

Spans are held in bounded form: per span name a call count, the summed
duration and the summed self time (duration minus the time covered by child
spans), and for the spans whose percentiles are reported a duration array
capped at ``SAMPLE_CAP`` entries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

PACKAGE = "bistable_qubit"
MODULES = ("telegraph", "bloch", "protocol", "benchmarking", "fitting", "analytics", "cli", "streams")
SAMPLE_CAP = 1 << 20

# Per-layer metrics of the traced run, with their units.
PER_LAYER = {
    "telegraph.calls": "count",
    "telegraph.segments": "count",
    "telegraph.switches": "count",
    "telegraph.self_s": "s",
    "bloch.pulses": "count",
    "bloch.free_steps": "count",
    "bloch.measurements": "count",
    "bloch.self_s": "s",
    "bloch.ops_per_s": "1/s",
    "protocol.syndrome_cycles": "count",
    "protocol.ramsey_cycles": "count",
    "protocol.cycles_per_s": "1/s",
    "protocol.cycle_us_p50": "us",
    "protocol.cycle_us_p99": "us",
    "protocol.self_s": "s",
    "benchmarking.sequences": "count",
    "benchmarking.sequence_gen_s": "s",
    "benchmarking.runs": "count",
    "benchmarking.cliffords": "count",
    "benchmarking.cliffords_per_s": "1/s",
    "benchmarking.segmented_runs": "count",
    "benchmarking.segmented_share": "share",
    "benchmarking.run_us_p50": "us",
    "benchmarking.run_us_p99": "us",
    "benchmarking.fits": "count",
    "benchmarking.fits_failed": "count",
    "benchmarking.self_s": "s",
    "fitting.fits": "count",
    "fitting.fits_failed": "count",
    "fitting.self_s": "s",
    "analytics.map_cells": "count",
    "analytics.map_cells_per_s": "1/s",
    "analytics.mc_trajectories": "count",
    "analytics.mc_trajectories_per_s": "1/s",
    "analytics.self_s": "s",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "bytes",
    "streams.substreams": "count",
    "streams.self_s": "s",
}

# Metrics that count work; they must repeat exactly for a fixed seed.
COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "bytes"))

CYCLES = ("protocol.syndrome_cycle", "protocol.ramsey_cycle")
EXECUTOR_RUN = "benchmarking.SequenceExecutor.run"
FITS = ("fitting.fit_cosine", "fitting.fit_two_frequency_mixture", "fitting.quadrature_amplitudes",
        "fitting.fit_fringe_time_offset")


class _Span:
    """Aggregate of all spans of one traced function."""

    __slots__ = ("layer", "calls", "entries", "total", "self_time", "samples")

    def __init__(self, layer: str, sampled: bool):
        self.layer = layer
        self.calls = 0
        self.entries = 0  # calls made from outside the layer
        self.total = 0.0
        self.self_time = 0.0
        self.samples = array("d") if sampled else None


class Tracer:
    """Timing and counting wrappers around the package's public functions."""

    def __init__(self):
        self.spans: dict[str, _Span] = {}
        self.counters = {
            "telegraph.segments": 0,
            "telegraph.switches": 0,
            "benchmarking.cliffords": 0,
            "benchmarking.segmented_runs": 0,
            "benchmarking.fits_failed": 0,
            "fitting.fits_failed": 0,
            "analytics.map_cells": 0,
            "analytics.mc_trajectories": 0,
        }
        self._stack: list[list] = []  # [span, child time, segments seen by an executor run]
        self._restore: list[tuple[object, str, object]] = []
        self._on_return = self._hooks()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        originals = []
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if callable(obj) and not inspect.isclass(obj):  # functions, cached ones included
                    originals.append((f"{layer}.{name}", layer, obj))
        wrappers = {id(obj): self._wrap(key, layer, obj) for key, layer, obj in originals}
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])
        executor = modules["benchmarking"].SequenceExecutor
        self._restore.append((executor, "run", executor.run))
        executor.run = self._wrap(EXECUTOR_RUN, "benchmarking", executor.run)

    def restore(self) -> None:
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    def _wrap(self, key: str, layer: str, fn):
        span = _Span(layer, sampled=key in CYCLES or key == EXECUTOR_RUN)
        self.spans[key] = span
        on_return = self._on_return.get(key)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [span, 0.0, None]
            if not stack or stack[-1][0].layer != layer:
                span.entries += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if span.samples is not None and len(span.samples) < SAMPLE_CAP:
                    span.samples.append(elapsed)
            if on_return is not None:
                on_return(fn, args, kwargs, result, frame)
            return result

        return functools.wraps(fn)(wrapper)

    # -- counters read from arguments and results ---------------------------

    def _hooks(self) -> dict:
        c = self.counters
        stack = self._stack

        def dwell_segments(fn, args, kwargs, result, frame):
            n = len(result[0])
            c["telegraph.segments"] += n
            c["telegraph.switches"] += max(n - 1, 0)
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] is self.spans.get(EXECUTOR_RUN) and parent[2] is None:
                parent[2] = n  # first advance of a run covers the sequence itself

        def executor_run(fn, args, kwargs, result, frame):
            indices = args[1] if len(args) > 1 else _argument(fn, args, kwargs, "indices")
            c["benchmarking.cliffords"] += len(indices)
            if frame[2] is not None and frame[2] > 1:
                c["benchmarking.segmented_runs"] += 1

        def fit_exponential(fn, args, kwargs, result, frame):
            c["benchmarking.fits_failed"] += not result.ok

        def fit(fn, args, kwargs, result, frame):
            c["fitting.fits_failed"] += getattr(result, "ok", True) is False

        def improvement_map(fn, args, kwargs, result, frame):
            c["analytics.map_cells"] += result.values.size

        def ak_coherence_mc(fn, args, kwargs, result, frame):
            c["analytics.mc_trajectories"] += int(_argument(fn, args, kwargs, "n_trajectories"))

        hooks = {
            "telegraph.dwell_segments": dwell_segments,
            EXECUTOR_RUN: executor_run,
            "benchmarking.fit_exponential": fit_exponential,
            "analytics.improvement_map": improvement_map,
            "analytics.ak_coherence_mc": ak_coherence_mc,
        }
        hooks.update({key: fit for key in FITS})
        return hooks

    # -- report -------------------------------------------------------------

    def span_table(self) -> list[dict]:
        """Every span that ran, as name, layer, calls, entries, total and self seconds."""
        return [
            {"span": key, "layer": s.layer, "calls": s.calls, "entries": s.entries,
             "total_s": s.total, "self_s": s.self_time}
            for key, s in sorted(self.spans.items())
            if s.calls
        ]

    def layer_metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics (without cli file counts and overhead) and why any is absent."""
        spans = self.spans
        c = self.counters
        notes: dict[str, str] = {}

        def calls(key):
            return spans[key].calls if key in spans else 0

        def total(*keys):
            return sum(spans[k].total for k in keys if k in spans)

        def self_s(layer):
            return sum(s.self_time for s in spans.values() if s.layer == layer)

        def rate(name, work, seconds, what):
            if seconds > 0 and work > 0:
                return work / seconds
            notes[name] = f"no {what} in this workload"
            return 0.0

        def percentile_us(name, keys, q, what):
            samples = sorted(x for k in keys if k in spans for x in spans[k].samples)
            # Report a percentile only when at least ten samples lie beyond it.
            if len(samples) * (1.0 - q) < 10:
                notes[name] = (f"{len(samples)} {what}, fewer than 10 beyond p{q * 100:g}" if samples
                               else f"no {what} in this workload")
                return 0.0
            return 1e6 * samples[min(int(q * len(samples)), len(samples) - 1)]

        m = {
            "telegraph.calls": sum(s.entries for s in spans.values() if s.layer == "telegraph"),
            "telegraph.segments": c["telegraph.segments"],
            "telegraph.switches": c["telegraph.switches"],
            "telegraph.self_s": self_s("telegraph"),
            "bloch.pulses": calls("bloch.apply_pulse"),
            "bloch.free_steps": calls("bloch.free_evolve"),
            "bloch.measurements": calls("bloch.measure"),
            "bloch.self_s": self_s("bloch"),
            "protocol.syndrome_cycles": calls("protocol.syndrome_cycle"),
            "protocol.ramsey_cycles": calls("protocol.ramsey_cycle"),
            "protocol.self_s": self_s("protocol"),
            "benchmarking.sequences": calls("benchmarking.random_sequence"),
            "benchmarking.sequence_gen_s": total("benchmarking.random_sequence"),
            "benchmarking.runs": calls(EXECUTOR_RUN),
            "benchmarking.cliffords": c["benchmarking.cliffords"],
            "benchmarking.segmented_runs": c["benchmarking.segmented_runs"],
            "benchmarking.fits": calls("benchmarking.fit_exponential"),
            "benchmarking.fits_failed": c["benchmarking.fits_failed"],
            "benchmarking.self_s": self_s("benchmarking"),
            "fitting.fits": sum(calls(k) for k in FITS),
            "fitting.fits_failed": c["fitting.fits_failed"],
            "fitting.self_s": self_s("fitting"),
            "analytics.map_cells": c["analytics.map_cells"],
            "analytics.mc_trajectories": c["analytics.mc_trajectories"],
            "analytics.self_s": self_s("analytics"),
            "cli.self_s": spans["cli.run"].self_time if "cli.run" in spans else 0.0,
            "streams.substreams": calls("streams.substream"),
            "streams.self_s": self_s("streams"),
        }
        ops = m["bloch.pulses"] + m["bloch.free_steps"] + m["bloch.measurements"]
        m["bloch.ops_per_s"] = rate("bloch.ops_per_s", ops, m["bloch.self_s"], "Bloch operations")
        n_cycles = m["protocol.syndrome_cycles"] + m["protocol.ramsey_cycles"]
        m["protocol.cycles_per_s"] = rate("protocol.cycles_per_s", n_cycles, total(*CYCLES), "protocol cycles")
        m["protocol.cycle_us_p50"] = percentile_us("protocol.cycle_us_p50", CYCLES, 0.50, "cycles")
        m["protocol.cycle_us_p99"] = percentile_us("protocol.cycle_us_p99", CYCLES, 0.99, "cycles")
        m["benchmarking.cliffords_per_s"] = rate(
            "benchmarking.cliffords_per_s", m["benchmarking.cliffords"], total(EXECUTOR_RUN), "sequence runs")
        runs = m["benchmarking.runs"]
        m["benchmarking.segmented_share"] = m["benchmarking.segmented_runs"] / runs if runs else 0.0
        if not runs:
            notes["benchmarking.segmented_share"] = "no sequence runs in this workload"
        m["benchmarking.run_us_p50"] = percentile_us("benchmarking.run_us_p50", (EXECUTOR_RUN,), 0.50, "runs")
        m["benchmarking.run_us_p99"] = percentile_us("benchmarking.run_us_p99", (EXECUTOR_RUN,), 0.99, "runs")
        m["analytics.map_cells_per_s"] = rate(
            "analytics.map_cells_per_s", m["analytics.map_cells"], total("analytics.improvement_map"), "map cells")
        m["analytics.mc_trajectories_per_s"] = rate(
            "analytics.mc_trajectories_per_s", m["analytics.mc_trajectories"],
            total("analytics.ak_coherence_mc"), "Monte Carlo trajectories")
        return m, notes


def _argument(fn, args, kwargs, name):
    """Value of parameter ``name`` in a call of ``fn``."""
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]
