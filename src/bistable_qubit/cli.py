"""Command-line interface: configuration, seeding, orchestration, file output.

Experiments are configured by a JSON document (all keys optional except
``experiment`` when no subcommand supplies it).  ``SCHEMA`` declares every key
once with its default and domain; ``parse_config`` rejects, naming the key
path, an unknown key, a wrong JSON type, NaN, an integer too large for a float
or a value out of its domain, and builds the library types the sections feed,
whose own checks also run.  Outputs are UTF-8 CSV tables with header rows plus
a JSON manifest that echoes the configuration, records derived quantities,
checksums the bytes written to every produced file, and reports per replica
the draws each random stream gave the run.  For a fixed seed the data
files are byte-identical across runs; only the manifest's wall_time_s field
varies.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, analytics
from .benchmarking import GATES_PER_CLIFFORD, RbConfig, decoherence_floor_per_gate, run_rb_interleaved
from .bloch import QubitParams
from .fitting import fit_two_frequency_mixture, quadrature_amplitudes
from .protocol import (
    MitigationConfig,
    calibrate_decode_map,
    cycle_bandwidth,
    default_tau_probe,
    make_environment,
    ramsey_probability,
    repeat_cycle,
    run_mitigation,
    syndrome_error_rate,
)
from .streams import substream
from .telegraph import TelegraphParams


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


_MODE_NAMES = {None: None, "H": 0, "L": 1, 0: 0, 1: 1}
# A key's domain, named by the text that completes "must be ...", and its test.
DOMAINS = {
    "finite": math.isfinite,
    "in [0, 2**64)": lambda v: 0 <= v < 2**64,
    "finite and > 0": lambda v: 0 < v < math.inf,
    "finite and >= 0": lambda v: 0 <= v < math.inf,
    ">= 1": lambda v: v >= 1,
    "in [1, 10**7]": lambda v: 1 <= v <= 10**7,  # an array length
    "in (0, 1]": lambda v: 0 < v <= 1,
    '"high" or "low"': lambda v: v in ("high", "low"),
    'null, "H", "L", 0 or 1': lambda v: any(v == m and type(v) is type(m) for m in _MODE_NAMES),
    "a list of finite values >= 0": lambda v: all(0 <= x < math.inf for x in v),
    "a nonempty list of finite values >= 0": lambda v: len(v) > 0 and all(0 <= x < math.inf for x in v),
    "a list of values in [0, 10**7]": lambda v: all(0 <= x <= 10**7 for x in v),  # array lengths
}

# Every key as (default, domain).  The default fixes the JSON type.  A key whose
# range the library type it feeds already checks has no domain here.
_QUBIT = QubitParams.defaults()
SCHEMA: dict = {
    "experiment": ("", None),
    "seed": (20260809, "in [0, 2**64)"),  # the root seed of streams.substream
    "out_dir": ("out", None),
    "replicas": (1, ">= 1"),
    "qubit": {
        "f_high_hz": (_QUBIT.f_high, None),
        "f_low_hz": (_QUBIT.f_low, None),
        "rabi_rate_rad_s": (_QUBIT.rabi_rate, None),
        "t1_s": (_QUBIT.t1, None),
        "t_phi_s": (_QUBIT.t_phi, None),
        "readout_eps_0to1": (_QUBIT.readout_eps_0to1, None),
        "readout_eps_1to0": (_QUBIT.readout_eps_1to0, None),
        "t_readout_s": (_QUBIT.t_readout, None),
        "t_reset_s": (_QUBIT.t_reset, None),
    },
    "tls": {
        "gamma_hl_hz": (0.05, None),
        "gamma_lh_hz": (0.05, None),
        "pinned_mode": (None, 'null, "H", "L", 0 or 1'),
    },
    "protocol": {
        "tau_probe_s": (0.0, "finite and >= 0"),  # 0 -> optimal probe time for the qubit params
        "finite_pulses": (True, None),
    },
    "ramsey": {
        "frame": ("high", '"high" or "low"'),
        "virtual_detuning_hz": (2.0e6, "finite"),
        "tau_max_s": (2.5e-6, "finite and > 0"),
        "n_tau": (50, "in [1, 10**7]"),
        "shots": (200, ">= 1"),
    },
    "mitigate": {
        "n_tau": (50, "in [1, 10**7]"),
        "n_reps": (MitigationConfig.n_reps, "in [1, 10**7]"),
        "tau_max_s": (2.5e-6, "finite and > 0"),
        "rows": (120, "in [1, 10**7]"),
        "det_nofb_hz": (MitigationConfig.det_nofb, "finite"),
        "det_fb_hz": (MitigationConfig.det_fb, "finite"),
        "idle_between_rows_s": (1.0, None),
        "block_size": (MitigationConfig.block_size, None),
    },
    "rb": {
        "depths": (list(RbConfig.depths), "a list of values in [0, 10**7]"),
        "n_sequences": (RbConfig.n_sequences, None),
        "shots_per_sequence": (RbConfig.shots_per_sequence, None),
        "n_windows": (RbConfig.n_windows, None),
        "idle_between_windows_s": (RbConfig.idle_between_windows, None),
    },
    "syndrome_sweep": {
        "n_cycles": (100000, ">= 1"),
        "gammas_hz": ([0.0], "a nonempty list of finite values >= 0"),
        "t_walls_s": ([], "a list of finite values >= 0"),  # empty -> the qubit's own readout + reset time
    },
    "perr": {
        "gammas_hz": ([0.0, 1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5], "a nonempty list of finite values >= 0"),
        "alpha": (0.94, "in (0, 1]"),
        "t2_s": (61e-6, "finite and > 0"),
        "t_wall_s": (8e-6, "finite and >= 0"),
    },
    "heatmap": {
        "splitting_min": (5e-3, "finite and > 0"),
        "splitting_max": (0.5, "finite and > 0"),
        "n_splitting": (40, "in [1, 10**7]"),
        "switching_min": (1e-3, "finite and > 0"),
        "switching_max": (3.0, "finite and > 0"),
        "n_switching": (60, "in [1, 10**7]"),
        "log_axes": (True, None),
        "alpha": (0.94, "in (0, 1]"),
        "t_pi_s": (48e-9, "finite and > 0"),
        "t2_s": (61e-6, "finite and > 0"),
        "t_wall_s": (8e-6, "finite and >= 0"),
    },
    "ak": {
        "gamma_hz": (2.0e5, "finite and >= 0"),
        "t_max_s": (0.0, "finite and >= 0"),  # 0 -> 3/delta_tls
        "n_t": (200, "in [1, 10**7]"),
        "n_trajectories": (0, "finite and >= 0"),
    },
}


def _check(path: str, default, domain: str | None, value):
    """Check ``value`` for the JSON type of ``default`` (an int passes for a float that can hold
    it; list items for that of the default's items, or number), NaN and ``domain``; return it
    unchanged."""
    kinds = {float: (int, float)}.get(type(default), (type(default),))
    wrong_type = not isinstance(value, kinds) or isinstance(value, bool) != isinstance(default, bool)
    if default is not None and wrong_type:
        raise ConfigError(f"{path}: expected {type(default).__name__}, got {json.dumps(value)}")
    if isinstance(value, float) and math.isnan(value):
        raise ConfigError(f"{path}: must not be NaN")
    if isinstance(default, float):
        try:
            float(value)
        except OverflowError:
            raise ConfigError(f"{path}: integer too large for a float") from None
    for i, item in enumerate(value if isinstance(default, list) else ()):
        _check(f"{path}[{i}]", default[0] if default else 0.0, None, item)
    if domain is not None and not DOMAINS[domain](value):
        raise ConfigError(f"{path}: must be {domain}, got {json.dumps(value)}")
    return value


def _resolve(schema: dict, data, path: str = "") -> dict:
    """Merge ``data`` over the schema's defaults, checking every key it sets."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path[:-1] or 'configuration root'}: expected a JSON object")
    for key in data:
        if key not in schema:
            raise ConfigError(f"{path}{key}: unknown key")
    return {
        key: _resolve(spec, data.get(key, {}), f"{path}{key}.")
        if isinstance(spec, dict)
        else _check(f"{path}{key}", *spec, data[key]) if key in data else spec[0]
        for key, spec in schema.items()
    }


def _build(cls, section: str, values: dict, **fixed):
    """Build ``cls`` from a section: key ``<field>[_hz|_s|_rad_s]`` sets ``<field>``, a float
    key as a float and a list as a tuple.  The type's error messages begin with the
    field they reject; the ConfigError names its key."""
    keys = {re.sub(r"_(rad_s|hz|s)$", "", key): key for key in values}
    kwargs = {}
    for name in {f.name for f in dataclasses.fields(cls)} & set(keys):
        default, value = SCHEMA[section][keys[name]][0], values[keys[name]]
        kwargs[name] = tuple(value) if isinstance(value, list) else type(default)(value)
    try:
        return cls(**kwargs, **fixed)
    except ValueError as exc:
        name, _, rule = str(exc).partition(" ")
        raise ConfigError(f"{section}.{keys[name]}: {rule}" if name in keys else f"{section}: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; ``params`` (the experiment's section) and ``raw``
    (the merged document, echoed in the manifest) keep the JSON types as written.
    ``tau_probe`` is resolved: ``protocol.tau_probe_s = 0`` reads as the optimal probe time."""

    experiment: str
    seed: int
    out_dir: str
    replicas: int
    qubit: QubitParams
    tls: TelegraphParams
    pinned_mode: int | None
    tau_probe: float
    finite_pulses: bool
    rb: RbConfig | None  # built for the rb experiment only
    mitigation: MitigationConfig | None  # built for the mitigate experiment only
    params: dict
    raw: dict


def _config_from_dict(data) -> RunConfig:
    merged = _resolve(SCHEMA, data)
    experiment = merged["experiment"]
    if not experiment:
        raise ConfigError("experiment: required field is missing or empty")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown experiment '{experiment}'")
    tls = _build(TelegraphParams, "tls", merged["tls"])
    pinned = _MODE_NAMES[merged["tls"]["pinned_mode"]]
    if pinned is None and tls.total_rate == 0:
        raise ConfigError("tls.pinned_mode: required when both switching rates are 0")
    qubit = _build(QubitParams, "qubit", merged["qubit"])
    probe = float(merged["protocol"]["tau_probe_s"])
    tau_probe = probe if probe > 0 else default_tau_probe(qubit)  # the one place 0 reads as the optimum
    finite_pulses = merged["protocol"]["finite_pulses"]
    if experiment in ("mitigate", "rb", "syndrome-sweep"):  # the experiments that decode syndromes
        try:
            calibrate_decode_map(qubit, tau_probe, finite_pulses)
        except ValueError as exc:
            raise ConfigError(f"protocol.tau_probe_s: {exc}") from exc
    if experiment == "ak":
        ak = merged["ak"]
        if 0.5 * ak["gamma_hz"] * _ak_t_max(ak, qubit) > 10**7:  # the Monte Carlo makes one pass per flip
            raise ConfigError(
                "ak.gamma_hz: the expected flips per trajectory, 0.5 * gamma_hz * t_max, must be <= 10**7,"
                f" got {json.dumps(ak['gamma_hz'])}"
            )
    if experiment == "heatmap":
        _check_heatmap(merged["heatmap"])
    for key in {"ramsey": ["virtual_detuning_hz"], "mitigate": ["det_nofb_hz", "det_fb_hz"]}.get(experiment, []):
        section = merged[experiment]  # a probe's second pulse leads by 2 pi D tau, largest at tau_max_s
        if not math.isfinite(2.0 * math.pi * section[key] * section["tau_max_s"]):
            raise ConfigError(f"{experiment}.{key}: must keep 2 pi {key} tau_max_s finite, got {json.dumps(section[key])}")
    if experiment == "perr" and not math.isfinite(2.0 / qubit.delta_tls / merged["perr"]["t2_s"]):
        raise ConfigError(f"perr.t2_s: must keep (2 / delta_tls) / t2_s finite, got {merged['perr']['t2_s']}")
    # A section the run does not use gets only the schema's checks: its type is
    # not built, so a count in it that is too large to allocate costs nothing.
    rb = mitigation = None
    if experiment == "rb":
        rb = _build(RbConfig, "rb", merged["rb"], tau_probe=tau_probe)
    if experiment == "mitigate":
        mit = merged["mitigate"]
        tau_grid = tuple(np.linspace(0.0, mit["tau_max_s"], mit["n_tau"]).tolist())
        mitigation = _build(MitigationConfig, "mitigate", mit, tau_grid=tau_grid, tau_probe=tau_probe)
    return RunConfig(
        experiment=experiment,
        seed=merged["seed"],
        out_dir=merged["out_dir"],
        replicas=merged["replicas"],
        qubit=qubit,
        tls=tls,
        pinned_mode=pinned,
        tau_probe=tau_probe,
        finite_pulses=finite_pulses,
        rb=rb,
        mitigation=mitigation,
        params=merged[experiment.replace("-", "_")],
        raw=merged,
    )


def _check_heatmap(p: dict) -> None:
    """Name the key whose value takes the map out of the floats: a Rabi rate pi / t_pi_s that
    overflows, or a splitting end whose cells against both switching ends are not finite."""
    if not math.isfinite(math.pi / p["t_pi_s"]):
        raise ConfigError(f"heatmap.t_pi_s: must give a finite Rabi rate pi / t_pi_s, got {json.dumps(p['t_pi_s'])}")
    for key in ("splitting_min", "splitting_max"):
        args = p[key], [p["switching_min"], p["switching_max"]], p["alpha"], p["t_pi_s"], p["t2_s"], p["t_wall_s"]
        try:
            with np.errstate(all="raise"):
                finite = np.all(np.isfinite(analytics.improvement_map(*args).values))
        except ArithmeticError:  # numpy's FloatingPointError; Python's ZeroDivisionError and OverflowError
            finite = False
        if not finite:
            raise ConfigError(f"heatmap.{key}: must give finite map cells, got {json.dumps(p[key])}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    return _config_from_dict(data)


# ---------------------------------------------------------------------------
# Output helpers


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


# %-conversions that print a value as ``_fmt`` does: by an array's dtype kind
# (``%d`` prints a bool as 1 or 0), or by the one exact built-in type of a list's values.
_KIND_SPECS = {"f": "%.12g", "i": "%d", "u": "%d", "b": "%d"}
_TYPE_SPECS = {float: "%.12g", int: "%d", str: "%s"}


def _write_csv(path: Path, header: list[str], columns: list) -> tuple[str, int]:
    """Write the table of ``columns`` under ``header``; every value prints as ``_fmt`` prints it.

    A column is a numpy array or a plain list, which is a 1-D column of its
    elements as they are (never converted to an array, so ints and floats stay
    apart).  The columns broadcast to one table shape, and the table's cells in
    C order are the rows.  Each column's conversion is chosen once: an array's
    from its dtype kind in ``_KIND_SPECS``, a list's from its values' type when
    they share one in ``_TYPE_SPECS``, and any other column passes through
    ``_fmt`` value by value.  Each stored value is formatted once: a column
    smaller than the table is turned into strings before it is spread over the
    table's shape.  A row is then one %-format of one line pattern.
    Returns the SHA-256 hex digest and the length of the bytes written.
    """
    shapes = [column.shape if isinstance(column, np.ndarray) else (len(column),) for column in columns]
    shape = np.broadcast_shapes(*shapes)
    specs, cells = [], []
    for column, own in zip(columns, shapes):
        if isinstance(column, np.ndarray):
            values, spec = column.ravel().tolist(), _KIND_SPECS.get(column.dtype.kind)
        else:
            kinds = set(map(type, column))
            values, spec = column, _TYPE_SPECS.get(kinds.pop()) if len(kinds) == 1 else None
        if spec is None:
            values, spec = [_fmt(v) for v in values], "%s"
        if math.prod(own) < math.prod(shape):
            strings = np.array([spec % v for v in values], dtype=object).reshape(own)
            values, spec = np.broadcast_to(strings, shape).ravel().tolist(), "%s"
        specs.append(spec)
        cells.append(values)
    line = ",".join(specs) + "\n"
    data = (",".join(header) + "\n" + "".join(map(line.__mod__, zip(*cells)))).encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest(), len(data)


def _json_safe(obj):
    """``obj`` with every non-finite float replaced by None, which JSON writes as null."""
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path: Path, obj) -> None:
    """Write ``obj`` as strict JSON (RFC 8259): a non-finite float is written as null."""
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(_json_safe(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _derived_block(cfg: RunConfig) -> dict:
    qp = cfg.qubit
    return {
        "delta_tls_hz": qp.delta_tls,
        "t2_s": qp.t2,
        "alpha": qp.alpha,
        "t_pi_s": qp.t_pi,
        "tau_opt_s": default_tau_probe(qp),
        "tau_probe_s": cfg.tau_probe,
        "estimation_bandwidth_hz": cycle_bandwidth(cfg.tau_probe, qp.t_readout, qp.t_reset),
        "estimation_bandwidth_overlapped_readout_hz": cycle_bandwidth(cfg.tau_probe, 0.0, qp.t_reset),
        "p_err_static": analytics.p_err_static(qp.delta_tls, qp.t2, qp.alpha),
    }


# ---------------------------------------------------------------------------
# Experiment runners; each returns {filename: (header, columns)} plus extras,
# the columns broadcasting as ``_write_csv`` takes them


def _replicas(cfg: RunConfig, draws: dict):
    """Yield (replica, env) per replica: the environment owns the replica's substreams.

    Once the caller is done with a replica, its draw counts go into ``draws``.
    """
    for replica in range(cfg.replicas):
        rng = substream(cfg.seed, cfg.experiment, "replica", replica)
        env = make_environment(cfg.qubit, cfg.tls, rng, cfg.pinned_mode, cfg.finite_pulses)
        yield replica, env
        draws[f"replica_{replica}"] = env.draw_counts()


def _run_ramsey(cfg: RunConfig) -> tuple[dict, dict]:
    p = cfg.params
    qp = cfg.qubit
    taus = np.linspace(0.0, p["tau_max_s"], p["n_tau"])
    f_c = qp.f_high if p["frame"] == "high" else qp.f_low
    p_m1 = np.empty((cfg.replicas, taus.size))
    draws: dict = {}
    for replica, env in _replicas(cfg, draws):
        for i, tau in enumerate(taus.tolist()):
            key = (f_c, tau, 2.0 * math.pi * p["virtual_detuning_hz"] * tau)  # the second pulse leads by 2 pi D tau
            hits = sum(int(bits.sum()) for bits, *_ in repeat_cycle(env, key, p["shots"]))
            p_m1[replica, i] = hits / p["shots"]
    model = np.array(None)
    if cfg.pinned_mode is not None and cfg.tls.total_rate == 0:
        model = np.array([
            ramsey_probability(qp, f_c, cfg.pinned_mode, tau, p["virtual_detuning_hz"], cfg.finite_pulses)
            for tau in taus.tolist()
        ])
    files = {
        "ramsey.csv": (
            ["replica", "tau_s", "shots", "p_m1", "p_model"],
            [np.arange(cfg.replicas)[:, None], taus, np.array(p["shots"]), p_m1, model],
        )
    }
    return files, {"draws": draws}


def _run_mitigate(cfg: RunConfig) -> tuple[dict, dict]:
    qp = cfg.qubit
    mit = cfg.mitigation
    taus = mit.tau_grid
    results, avg_nofb, avg_fb = [], [], []
    fits = {}
    draws: dict = {}
    for replica, env in _replicas(cfg, draws):
        result = run_mitigation(env, mit)
        results.append(result)
        avg_nofb.append(result.no_feedback.mean(axis=0))
        avg_fb.append(result.feedback.mean(axis=0))
        mix = fit_two_frequency_mixture(taus, avg_nofb[-1], mit.det_nofb, mit.det_nofb - qp.delta_tls, qp.t2)
        side = quadrature_amplitudes(
            taus, avg_fb[-1], [mit.det_fb, mit.det_fb - qp.delta_tls, mit.det_fb + qp.delta_tls], qp.t2
        )
        fits[f"replica_{replica}"] = {
            "no_feedback_mixture_ok": mix.ok,
            "no_feedback_f1_hz": mix.f1,
            "no_feedback_f2_hz": mix.f2,
            "no_feedback_envelope_node_s": mix.envelope_node_time if mix.ok else None,
            "feedback_principal_amplitude": side[0],
            "feedback_sideband_amplitude_low": side[1],
            "feedback_sideband_amplitude_high": side[2],
            "feedback_sideband_ratio": max(side[1], side[2]) / side[0] if side[0] > 0 else None,
        }

    def stacked(name: str) -> np.ndarray:
        """Field ``name`` of every replica's result, stacked on a leading replica axis."""
        return np.stack([getattr(result, name) for result in results])

    shape = (cfg.replicas, mit.rows, len(taus))  # the fringes' (replica, row, tau_index) grid
    fringe_columns = [*np.indices(shape, sparse=True), np.array(taus), stacked("row_times")[:, :, None]]
    header6 = ["replica", "row", "tau_index", "tau_s", "lab_time_s", "p_m1"]
    files = {
        "mitigate_nofb.csv": (header6, [*fringe_columns, stacked("no_feedback")]),
        "mitigate_fb.csv": (header6, [*fringe_columns, stacked("feedback")]),
        "mitigate_trace.csv": (
            ["replica", "row", "tau_index", "rep", "lab_time_s", "true_xi", "est_xi", "outcome"],
            [*np.indices((*shape, mit.n_reps), sparse=True),
             *map(stacked, ("syndrome_time", "true_xi", "est_xi", "outcome"))],
        ),
        "mitigate_avg.csv": (
            ["replica", "tau_s", "p_nofb", "p_fb"],
            [np.arange(cfg.replicas)[:, None], np.array(taus), np.stack(avg_nofb), np.stack(avg_fb)],
        ),
    }
    return files, {"fringe_fits": fits, "draws": draws}


def _run_rb(cfg: RunConfig) -> tuple[dict, dict]:
    qp = cfg.qubit
    wins, replica_of, window_of = [], [], []  # every replica's windows, in order
    shots = cfg.rb.n_sequences * cfg.rb.shots_per_sequence  # per window, arm and depth
    summary = {
        "gates_per_clifford": GATES_PER_CLIFFORD,
        "decoherence_floor_per_gate": decoherence_floor_per_gate(qp),
        "replicas": {},
    }
    draws: dict = {}
    for replica, env in _replicas(cfg, draws):
        windows = run_rb_interleaved(env, cfg.rb)
        wins += windows
        replica_of += [replica] * len(windows)
        window_of += range(len(windows))
        # A window enters the mean only when its fit converged and determined the decay.
        valid_nofb = [win.fit_nofb.r_native for win in windows if win.fit_nofb.ok and win.fit_nofb.decay_err <= 1]
        valid_fb = [win.fit_fb.r_native for win in windows if win.fit_fb.ok and win.fit_fb.decay_err <= 1]
        summary["replicas"][f"replica_{replica}"] = {
            "mean_r_native_nofb": float(np.mean(valid_nofb)) if valid_nofb else None,
            "mean_r_native_fb": float(np.mean(valid_fb)) if valid_fb else None,
            "n_windows_flagged_nofb": len(windows) - len(valid_nofb),
            "n_windows_flagged_fb": len(windows) - len(valid_fb),
        }
    ts_columns = [replica_of, window_of, [0.5 * (win.lab_time_start + win.lab_time_end) for win in wins]]
    for fit in ([win.fit_nofb for win in wins], [win.fit_fb for win in wins]):
        ts_columns += [[f.r_native for f in fit], [f.r_native_err for f in fit], [int(f.ok) for f in fit]]
    ts_columns.append([win.mode_fraction_l for win in wins])
    survivals = np.stack([np.stack([win.survivals_nofb, win.survivals_fb], axis=-1) for win in wins])
    files = {
        "rb_timeseries.csv": (
            [
                "replica",
                "window",
                "lab_time_s",
                "r_native_nofb",
                "r_native_nofb_err",
                "ok_nofb",
                "r_native_fb",
                "r_native_fb_err",
                "ok_fb",
                "mode_fraction_l",
            ],
            ts_columns,
        ),
        "rb_survivals.csv": (
            ["replica", "window", "depth", "arm", "survival", "shots"],
            [np.array(replica_of)[:, None, None], np.array(window_of)[:, None, None],
             np.array(cfg.rb.depths)[:, None], ["nofb", "fb"], survivals, np.array(shots)],
        ),
    }
    return files, {"rb_summary": summary, "draws": draws}


def _run_syndrome_sweep(cfg: RunConfig) -> tuple[dict, dict]:
    p = cfg.params
    qp = cfg.qubit
    gammas = p["gammas_hz"]
    t_walls = [float(v) for v in p["t_walls_s"]] or [qp.t_wall]
    p_mc = np.empty((cfg.replicas, len(gammas), len(t_walls)))
    draws: dict = {}
    for replica in range(cfg.replicas):
        counts: Counter = Counter()
        for g, gamma in enumerate(gammas):
            for w, t_wall in enumerate(t_walls):
                rng = substream(cfg.seed, cfg.experiment, "replica", replica, f"{gamma}", f"{t_wall}")
                qp_run = replace(qp, t_readout=0.0, t_reset=t_wall)
                tlsp = TelegraphParams.symmetric(float(gamma))
                frozen = tlsp.total_rate == 0  # also for the rate 5e-324, whose halves underflow
                pinned = cfg.pinned_mode if cfg.pinned_mode is not None else (0 if frozen else None)
                env = make_environment(qp_run, tlsp, rng, pinned, cfg.finite_pulses)
                resample = frozen and cfg.pinned_mode is None
                p_mc[replica, g, w] = syndrome_error_rate(env, p["n_cycles"], cfg.tau_probe, resample)
                counts.update(env.draw_counts())
        draws[f"replica_{replica}"] = dict(counts)

    def budget(p_err) -> np.ndarray:
        """``p_err`` of the qubit's splitting, T2 and alpha per (gamma, t_wall)."""
        return np.array([[p_err(qp.delta_tls, g, qp.alpha, qp.t2, t_wall) for t_wall in t_walls] for g in gammas])

    files = {
        "syndrome_sweep.csv": (
            [
                "replica",
                "gamma_hz",
                "t_wall_s",
                "n_cycles",
                "p_err_mc",
                "p_err_exact",
                "p_err_expanded",
                "p_err_static",
            ],
            [
                np.arange(cfg.replicas)[:, None, None],
                np.array(gammas, dtype=object)[:, None],  # the config's ints and floats, as they are
                t_walls,
                np.array(p["n_cycles"]),
                p_mc,
                budget(analytics.p_err_bandwidth_exact),
                budget(analytics.p_err_bandwidth),
                np.array(analytics.p_err_static(qp.delta_tls, qp.t2, qp.alpha)),
            ],
        )
    }
    return files, {"draws": draws}


def _run_perr(cfg: RunConfig) -> tuple[dict, dict]:
    p = cfg.params
    delta = cfg.qubit.delta_tls
    gammas = p["gammas_hz"]
    taus = np.linspace(0.0, 2.0 / delta, 200)
    files = {
        "perr.csv": (
            ["gamma_hz", "p_err_static", "p_err_exact", "p_err_expanded"],
            [
                gammas,
                np.array(analytics.p_err_static(delta, p["t2_s"], p["alpha"])),
                [analytics.p_err_bandwidth_exact(delta, g, p["alpha"], p["t2_s"], p["t_wall_s"]) for g in gammas],
                [analytics.p_err_bandwidth(delta, g, p["alpha"], p["t2_s"], p["t_wall_s"]) for g in gammas],
            ],
        ),
        "perr_contrast.csv": (["tau_s", "contrast"], [taus, analytics.contrast(delta, taus, p["alpha"], p["t2_s"])]),
    }
    return files, {}


def _run_heatmap(cfg: RunConfig) -> tuple[dict, dict]:
    p = cfg.params

    def axis(name: str) -> np.ndarray:
        ends = p[f"{name}_min"], p[f"{name}_max"]
        if p["log_axes"]:
            return np.logspace(*map(math.log10, ends), p[f"n_{name}"])
        return np.linspace(*ends, p[f"n_{name}"])

    amap = analytics.improvement_map(
        axis("splitting"), axis("switching"), p["alpha"], p["t_pi_s"], p["t2_s"], p["t_wall_s"]
    )
    crossed = ~np.isnan(amap.zero_contour)
    files = {
        "heatmap.csv": (
            ["splitting_2pi_delta_over_omega", "gamma_t_cyc", "log10_improvement"],
            [amap.splittings[:, None], amap.switching, amap.values],
        ),
        "heatmap_zero_contour.csv": (
            ["splitting_2pi_delta_over_omega", "gamma_t_cyc"],
            [amap.splittings[crossed], amap.zero_contour[crossed]],
        ),
    }
    return files, {}


def _ak_t_max(p: dict, qubit: QubitParams) -> float:
    """The end of the ak time grid: ``ak.t_max_s``, or 3/delta_tls when that is 0."""
    return p["t_max_s"] if p["t_max_s"] > 0 else 3.0 / qubit.delta_tls


def _run_ak(cfg: RunConfig) -> tuple[dict, dict]:
    p = cfg.params
    delta = cfg.qubit.delta_tls
    t_grid = np.linspace(0.0, _ak_t_max(p, cfg.qubit), p["n_t"])
    ak = analytics.ak_coherence(t_grid, delta, p["gamma_hz"])
    mc = None
    if p["n_trajectories"] > 0:
        rng = substream(cfg.seed, cfg.experiment, "mc")
        mc = analytics.ak_coherence_mc(delta, p["gamma_hz"], t_grid, p["n_trajectories"], rng)
    mc_columns = (mc.real, mc.imag) if mc is not None else (np.array(None),) * 2
    files = {
        "ak.csv": (
            [
                "t_s",
                "c_eq",
                "c_plus_re",
                "c_plus_im",
                "c_minus_re",
                "c_minus_im",
                "s_ak",
                "c_eq_mc_re",
                "c_eq_mc_im",
            ],
            [t_grid, ak.c_eq, ak.c_plus.real, ak.c_plus.imag, ak.c_minus.real, ak.c_minus.imag, ak.s_ak, *mc_columns],
        )
    }
    return files, {}


# experiment -> (its runner, the key of its section that --shots sets; None: no sampling knob),
# in subcommand order
EXPERIMENTS = {
    "syndrome-sweep": (_run_syndrome_sweep, "n_cycles"),
    "ramsey": (_run_ramsey, "shots"),
    "mitigate": (_run_mitigate, "n_reps"),
    "rb": (_run_rb, "n_sequences"),
    "heatmap": (_run_heatmap, None),
    "perr": (_run_perr, None),
    "ak": (_run_ak, "n_trajectories"),
}


def run(cfg: RunConfig) -> int:
    """Execute the configured experiment; writes data files and a manifest."""
    started = time.monotonic()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files, extras = EXPERIMENTS[cfg.experiment][0](cfg)
    outputs = []
    for name, (header, columns) in files.items():
        sha256, size = _write_csv(out_dir / name, header, columns)
        outputs.append({"file": name, "sha256": sha256, "bytes": size})
    manifest = {
        "experiment": cfg.experiment,
        "artifact_version": __version__,
        "seed": cfg.seed,
        "replicas": cfg.replicas,
        "config": cfg.raw,
        "derived": _derived_block(cfg),
        "outputs": outputs,
        "wall_time_s": time.monotonic() - started,
        "report": {"draws": extras.pop("draws", {})},
    }
    manifest.update(extras)
    _write_json(out_dir / "manifest.json", manifest)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bistable-qubit",
        description="Simulate and analyze feedback-stabilized operation of a "
        "qubit whose frequency telegraphs between two values.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None, help="JSON configuration file")
        sp.add_argument("--seed", type=int, default=None, help="root 64-bit seed")
        sp.add_argument("--out", type=str, default=None, help="output directory")
        sp.add_argument("--replicas", type=int, default=None, help="independent replicas")
        sp.add_argument(
            "--shots",
            type=int,
            default=None,
            help="per-experiment sampling knob (shots, repetitions, sequences, cycles)",
        )
    args = parser.parse_args(argv)

    data: dict = {}
    if args.config is not None:
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"configuration error: {args.config}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(data, dict):
            print("config root must be a JSON object", file=sys.stderr)
            return 2
    configured = data.get("experiment")
    if configured is not None and configured != args.experiment:
        print(
            f"config names experiment '{configured}' but subcommand is '{args.experiment}'",
            file=sys.stderr,
        )
        return 2
    data["experiment"] = args.experiment
    for key, value in (("seed", args.seed), ("out_dir", args.out), ("replicas", args.replicas)):
        if value is not None:
            data[key] = value
    shots_key = EXPERIMENTS[args.experiment][1]
    if args.shots is not None:
        if shots_key is None:
            print(f"--shots does not apply to experiment '{args.experiment}'", file=sys.stderr)
            return 2
        section = data.setdefault(args.experiment.replace("-", "_"), {})
        if isinstance(section, dict):  # otherwise the schema check names the section
            section[shots_key] = args.shots

    try:
        cfg = _config_from_dict(data)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
