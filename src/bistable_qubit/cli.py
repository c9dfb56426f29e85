"""Command-line interface: configuration, seeding, orchestration, file output.

Experiments are configured by a JSON document (all keys optional except
``experiment`` when no subcommand supplies it); unknown keys are rejected.
Outputs are UTF-8 CSV tables with header rows plus a JSON manifest that
echoes the configuration, records derived quantities, and checksums every
produced file.  For a fixed seed the data files are byte-identical across
runs; only the manifest's wall_time_s field varies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, analytics
from .benchmarking import RbConfig, decoherence_floor_per_gate, run_rb_interleaved
from .bloch import QubitParams
from .fitting import fit_two_frequency_mixture, quadrature_amplitudes
from .protocol import (
    ControllerState,
    CycleTiming,
    MitigationConfig,
    cycle_bandwidth,
    default_tau_probe,
    make_environment,
    ramsey_cycle,
    ramsey_probability,
    run_mitigation,
    syndrome_error_rate,
)
from .streams import substream
from .telegraph import TelegraphParams


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


EXPERIMENTS = ("syndrome-sweep", "ramsey", "mitigate", "rb", "heatmap", "perr", "ak")

_DEFAULTS: dict = {
    "experiment": None,
    "seed": 20260809,
    "out_dir": "out",
    "replicas": 1,
    "qubit": {
        "f_high_hz": 5.10e9,
        "f_low_hz": 5.10e9 - 374e3,
        "rabi_rate_rad_s": math.pi / 48e-9,
        "t1_s": 74e-6,
        "t_phi_s": 61e-6,
        "readout_eps_0to1": 0.03,
        "readout_eps_1to0": 0.03,
        "t_readout_s": 2e-6,
        "t_reset_s": 6e-6,
    },
    "tls": {
        "gamma_hl_hz": 0.05,
        "gamma_lh_hz": 0.05,
        "pinned_mode": None,
    },
    "protocol": {
        "tau_probe_s": 0.0,  # 0 -> optimal probe time for the qubit params
        "finite_pulses": True,
    },
    "ramsey": {
        "frame": "high",
        "virtual_detuning_hz": 2.0e6,
        "tau_max_s": 2.5e-6,
        "n_tau": 50,
        "shots": 200,
    },
    "mitigate": {
        "n_tau": 50,
        "n_reps": 10,
        "tau_max_s": 2.5e-6,
        "rows": 120,
        "det_nofb_hz": 2.0e6,
        "det_fb_hz": 2.33e6,
        "idle_between_rows_s": 1.0,
        "block_size": 1,
    },
    "rb": {
        "depths": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048],
        "n_sequences": 100,
        "shots_per_sequence": 1,
        "n_windows": 1,
        "idle_between_windows_s": 0.0,
    },
    "syndrome_sweep": {
        "n_cycles": 100000,
        "gammas_hz": [0.0],
        "t_walls_s": [],  # empty -> the qubit's own readout + reset time
    },
    "perr": {
        "gammas_hz": [0.0, 1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5],
        "alpha": 0.94,
        "t2_s": 61e-6,
        "t_wall_s": 8e-6,
    },
    "heatmap": {
        "splitting_min": 5e-3,
        "splitting_max": 0.5,
        "n_splitting": 40,
        "switching_min": 1e-3,
        "switching_max": 3.0,
        "n_switching": 60,
        "log_axes": True,
        "alpha": 0.94,
        "t_pi_s": 48e-9,
        "t2_s": 61e-6,
        "t_wall_s": 8e-6,
    },
    "ak": {
        "gamma_hz": 2.0e5,
        "t_max_s": 0.0,  # 0 -> 3/delta_tls
        "n_t": 200,
        "n_trajectories": 0,
    },
}

_MODE_NAMES = {None: None, "H": 0, "L": 1, 0: 0, 1: 1}
_MAY_BE_ZERO = {"seed", "ak.n_trajectories"}  # integer keys that accept 0; the others must be >= 1


def _check_value(key: str, default, value) -> None:
    """Reject a value of another JSON type than the default's (an int passes for a float)."""
    kinds = {float: (int, float)}.get(type(default), (type(default),))
    wrong_type = not isinstance(value, kinds) or isinstance(value, bool) != isinstance(default, bool)
    if default is not None and wrong_type:
        raise ConfigError(f"{key}: expected {type(default).__name__}, got {json.dumps(value)}")
    least = 0 if key in _MAY_BE_ZERO else 1
    if type(default) is int and value < least:
        raise ConfigError(f"{key}: must be >= {least}")


def _merge(defaults: dict, overrides: dict, path: str = "") -> dict:
    merged = {}
    for key, default in defaults.items():
        if key in overrides:
            value = overrides[key]
            if isinstance(default, dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"{path}{key}: expected an object")
                merged[key] = _merge(default, value, f"{path}{key}.")
            else:
                _check_value(f"{path}{key}", default, value)
                merged[key] = value
        else:
            merged[key] = default.copy() if isinstance(default, dict) else default
    for key in overrides:
        if key not in defaults:
            raise ConfigError(f"{path}{key}: unknown key")
    return merged


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with reference-device defaults filled in."""

    experiment: str
    seed: int
    out_dir: str
    replicas: int
    qubit: QubitParams
    tls: TelegraphParams
    pinned_mode: int | None
    tau_probe: float
    finite_pulses: bool
    params: dict
    raw: dict


def _config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root: expected a JSON object")
    merged = _merge(_DEFAULTS, data)
    experiment = merged["experiment"]
    if not experiment:
        raise ConfigError("experiment: required field is missing or empty")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown experiment '{experiment}'")
    q = merged["qubit"]
    try:
        qubit = QubitParams(
            f_low=float(q["f_low_hz"]),
            f_high=float(q["f_high_hz"]),
            rabi_rate=float(q["rabi_rate_rad_s"]),
            t1=float(q["t1_s"]),
            t_phi=float(q["t_phi_s"]),
            readout_eps_0to1=float(q["readout_eps_0to1"]),
            readout_eps_1to0=float(q["readout_eps_1to0"]),
            t_readout=float(q["t_readout_s"]),
            t_reset=float(q["t_reset_s"]),
        )
    except ValueError as exc:
        raise ConfigError(f"qubit: {exc}") from exc
    t = merged["tls"]
    try:
        tls = TelegraphParams(gamma_hl=float(t["gamma_hl_hz"]), gamma_lh=float(t["gamma_lh_hz"]))
    except ValueError as exc:
        raise ConfigError(f"tls: {exc}") from exc
    if t["pinned_mode"] not in _MODE_NAMES:
        raise ConfigError("tls.pinned_mode: must be null, 'H', 'L', 0 or 1")
    pinned = _MODE_NAMES[t["pinned_mode"]]
    proto = merged["protocol"]
    if proto["tau_probe_s"] < 0:
        raise ConfigError("protocol.tau_probe_s: must be nonnegative")
    section = experiment.replace("-", "_")
    return RunConfig(
        experiment=experiment,
        seed=merged["seed"],
        out_dir=merged["out_dir"],
        replicas=merged["replicas"],
        qubit=qubit,
        tls=tls,
        pinned_mode=pinned,
        tau_probe=float(proto["tau_probe_s"]),
        finite_pulses=bool(proto["finite_pulses"]),
        params=merged[section],
        raw=merged,
    )


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


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, obj) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_fmt)
        fh.write("\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def _tau_probe(cfg: RunConfig) -> float:
    return cfg.tau_probe if cfg.tau_probe > 0 else default_tau_probe(cfg.qubit)


def _derived_block(cfg: RunConfig) -> dict:
    qp = cfg.qubit
    tau = _tau_probe(cfg)
    timing = CycleTiming(t_gate=qp.t_pi, tau=tau, t_readout=qp.t_readout, t_reset=qp.t_reset)
    overlapped = CycleTiming(t_gate=qp.t_pi, tau=tau, t_readout=0.0, t_reset=qp.t_reset)
    return {
        "delta_tls_hz": qp.delta_tls,
        "t2_s": qp.t2,
        "alpha": qp.alpha,
        "t_pi_s": qp.t_pi,
        "tau_opt_s": tau,
        "estimation_bandwidth_hz": cycle_bandwidth(timing),
        "estimation_bandwidth_overlapped_readout_hz": cycle_bandwidth(overlapped),
        "p_err_static": analytics.p_err_static(qp.delta_tls, qp.t2, qp.alpha),
    }


# ---------------------------------------------------------------------------
# Experiment runners; each returns {filename: (header, rows)} plus extras


def _run_ramsey(cfg: RunConfig) -> tuple[dict, dict]:
    p = cfg.params
    qp = cfg.qubit
    taus = np.linspace(0.0, p["tau_max_s"], int(p["n_tau"]))
    f_c = qp.f_high if p["frame"] == "high" else qp.f_low
    rows = []
    for replica in range(cfg.replicas):
        rng = substream(cfg.seed, cfg.experiment, "replica", replica)
        env = make_environment(qp, cfg.tls, rng, cfg.pinned_mode, cfg.finite_pulses)
        ctrl = ControllerState(f_c=f_c)
        for tau in taus:
            hits = 0
            for _ in range(int(p["shots"])):
                m, ctrl = ramsey_cycle(env, ctrl, float(tau), p["virtual_detuning_hz"], rng)
                hits += m
            model = None
            if cfg.pinned_mode is not None and cfg.tls.total_rate == 0:
                model = ramsey_probability(
                    qp, f_c, cfg.pinned_mode, float(tau), p["virtual_detuning_hz"], cfg.finite_pulses
                )
            rows.append((replica, tau, int(p["shots"]), hits / p["shots"], model))
    files = {
        "ramsey.csv": (
            ["replica", "tau_s", "shots", "p_m1", "p_model"],
            rows,
        )
    }
    return files, {}


def _run_mitigate(cfg: RunConfig) -> tuple[dict, dict]:
    p = cfg.params
    qp = cfg.qubit
    taus = np.linspace(0.0, p["tau_max_s"], int(p["n_tau"]))
    mit = MitigationConfig(
        tau_grid=tuple(float(t) for t in taus),
        n_reps=int(p["n_reps"]),
        rows=int(p["rows"]),
        det_nofb=p["det_nofb_hz"],
        det_fb=p["det_fb_hz"],
        tau_probe=_tau_probe(cfg),
        idle_between_rows=p["idle_between_rows_s"],
        block_size=int(p["block_size"]),
    )
    nofb_rows, fb_rows, trace_rows, avg_rows = [], [], [], []
    fits = {}
    for replica in range(cfg.replicas):
        rng = substream(cfg.seed, cfg.experiment, "replica", replica)
        env = make_environment(qp, cfg.tls, rng, cfg.pinned_mode, cfg.finite_pulses)
        result = run_mitigation(env, mit, rng)
        for matrix, sink in ((result.no_feedback, nofb_rows), (result.feedback, fb_rows)):
            for r in range(matrix.values.shape[0]):
                for i, tau in enumerate(matrix.taus):
                    sink.append((replica, r, i, tau, matrix.row_times[r], matrix.values[r, i]))
        for rec in result.trace:
            trace_rows.append(
                (replica, rec.row, rec.tau_index, rec.rep, rec.lab_time, rec.true_xi, rec.est_xi, rec.outcome)
            )
        avg_nofb = result.no_feedback.values.mean(axis=0)
        avg_fb = result.feedback.values.mean(axis=0)
        for i, tau in enumerate(taus):
            avg_rows.append((replica, tau, avg_nofb[i], avg_fb[i]))
        mix = fit_two_frequency_mixture(
            taus, avg_nofb, p["det_nofb_hz"], p["det_nofb_hz"] - qp.delta_tls, qp.t2
        )
        side = quadrature_amplitudes(
            taus,
            avg_fb,
            [p["det_fb_hz"], p["det_fb_hz"] - qp.delta_tls, p["det_fb_hz"] + qp.delta_tls],
            qp.t2,
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
    header6 = ["replica", "row", "tau_index", "tau_s", "lab_time_s", "p_m1"]
    files = {
        "mitigate_nofb.csv": (header6, nofb_rows),
        "mitigate_fb.csv": (header6, fb_rows),
        "mitigate_trace.csv": (
            ["replica", "row", "tau_index", "rep", "lab_time_s", "true_xi", "est_xi", "outcome"],
            trace_rows,
        ),
        "mitigate_avg.csv": (["replica", "tau_s", "p_nofb", "p_fb"], avg_rows),
    }
    return files, {"fringe_fits": fits}


def _run_rb(cfg: RunConfig) -> tuple[dict, dict]:
    p = cfg.params
    qp = cfg.qubit
    rb = RbConfig(
        depths=tuple(int(d) for d in p["depths"]),
        n_sequences=int(p["n_sequences"]),
        shots_per_sequence=int(p["shots_per_sequence"]),
        n_windows=int(p["n_windows"]),
        idle_between_windows=p["idle_between_windows_s"],
        tau_probe=_tau_probe(cfg),
    )
    ts_rows, surv_rows = [], []
    summary = {
        "gates_per_clifford": None,
        "decoherence_floor_per_gate": decoherence_floor_per_gate(qp),
        "replicas": {},
    }
    for replica in range(cfg.replicas):
        rng = substream(cfg.seed, cfg.experiment, "replica", replica)
        env = make_environment(qp, cfg.tls, rng, cfg.pinned_mode, cfg.finite_pulses)
        series = run_rb_interleaved(env, rb, rng)
        summary["gates_per_clifford"] = series.gates_per_clifford
        valid_nofb, valid_fb = [], []
        for win in series.windows:
            mid = 0.5 * (win.lab_time_start + win.lab_time_end)
            ts_rows.append(
                (
                    replica,
                    win.index,
                    mid,
                    win.fit_nofb.r_native,
                    win.fit_nofb.r_native_err,
                    int(win.fit_nofb.ok),
                    win.fit_fb.r_native,
                    win.fit_fb.r_native_err,
                    int(win.fit_fb.ok),
                    win.mode_fraction_l,
                )
            )
            for di, depth in enumerate(series.depths):
                surv_rows.append(
                    (replica, win.index, int(depth), "nofb", win.survivals_nofb[di], win.shots_per_depth)
                )
                surv_rows.append(
                    (replica, win.index, int(depth), "fb", win.survivals_fb[di], win.shots_per_depth)
                )
            if win.fit_nofb.ok:
                valid_nofb.append(win.fit_nofb.r_native)
            if win.fit_fb.ok:
                valid_fb.append(win.fit_fb.r_native)
        summary["replicas"][f"replica_{replica}"] = {
            "mean_r_native_nofb": float(np.mean(valid_nofb)) if valid_nofb else None,
            "mean_r_native_fb": float(np.mean(valid_fb)) if valid_fb else None,
            "n_windows_flagged_nofb": sum(1 for w in series.windows if not w.fit_nofb.ok),
            "n_windows_flagged_fb": sum(1 for w in series.windows if not w.fit_fb.ok),
        }
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
            ts_rows,
        ),
        "rb_survivals.csv": (
            ["replica", "window", "depth", "arm", "survival", "shots"],
            surv_rows,
        ),
    }
    return files, {"rb_summary": summary}


def _run_syndrome_sweep(cfg: RunConfig) -> tuple[dict, dict]:
    p = cfg.params
    qp = cfg.qubit
    t_walls = [float(v) for v in p["t_walls_s"]] or [qp.t_wall]
    rows = []
    for replica in range(cfg.replicas):
        for gamma in p["gammas_hz"]:
            for t_wall in t_walls:
                rng = substream(cfg.seed, cfg.experiment, "replica", replica, f"{gamma}", f"{t_wall}")
                qp_run = replace(qp, t_readout=0.0, t_reset=t_wall)
                tau = cfg.tau_probe if cfg.tau_probe > 0 else default_tau_probe(qp_run)
                tlsp = TelegraphParams.symmetric(float(gamma))
                pinned = cfg.pinned_mode if cfg.pinned_mode is not None else (0 if gamma == 0 else None)
                env = make_environment(qp_run, tlsp, rng, pinned, cfg.finite_pulses)
                resample = gamma == 0 and cfg.pinned_mode is None
                p_mc = syndrome_error_rate(env, int(p["n_cycles"]), tau, rng, resample)
                rows.append(
                    (
                        replica,
                        gamma,
                        t_wall,
                        int(p["n_cycles"]),
                        p_mc,
                        analytics.p_err_bandwidth_exact(qp.delta_tls, gamma, qp.alpha, qp.t2, t_wall),
                        analytics.p_err_bandwidth(qp.delta_tls, gamma, qp.alpha, qp.t2, t_wall),
                        analytics.p_err_static(qp.delta_tls, qp.t2, qp.alpha),
                    )
                )
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
            rows,
        )
    }
    return files, {}


def _run_perr(cfg: RunConfig) -> tuple[dict, dict]:
    p = cfg.params
    delta = cfg.qubit.delta_tls
    rows = []
    for gamma in p["gammas_hz"]:
        rows.append(
            (
                gamma,
                analytics.p_err_static(delta, p["t2_s"], p["alpha"]),
                analytics.p_err_bandwidth_exact(delta, gamma, p["alpha"], p["t2_s"], p["t_wall_s"]),
                analytics.p_err_bandwidth(delta, gamma, p["alpha"], p["t2_s"], p["t_wall_s"]),
            )
        )
    curve = analytics.contrast_curve(
        delta, np.linspace(0.0, 2.0 / delta, 200), p["alpha"], p["t2_s"]
    )
    contrast_rows = list(zip(curve.taus, curve.values))
    files = {
        "perr.csv": (
            ["gamma_hz", "p_err_static", "p_err_exact", "p_err_expanded"],
            rows,
        ),
        "perr_contrast.csv": (["tau_s", "contrast"], contrast_rows),
    }
    return files, {}


def _run_heatmap(cfg: RunConfig) -> tuple[dict, dict]:
    p = cfg.params
    if p["log_axes"]:
        splittings = np.logspace(
            math.log10(p["splitting_min"]), math.log10(p["splitting_max"]), int(p["n_splitting"])
        )
        switching = np.logspace(
            math.log10(p["switching_min"]), math.log10(p["switching_max"]), int(p["n_switching"])
        )
    else:
        splittings = np.linspace(p["splitting_min"], p["splitting_max"], int(p["n_splitting"]))
        switching = np.linspace(p["switching_min"], p["switching_max"], int(p["n_switching"]))
    amap = analytics.improvement_map(
        splittings, switching, p["alpha"], p["t_pi_s"], p["t2_s"], p["t_wall_s"]
    )
    rows = []
    for i, x in enumerate(amap.splittings):
        for j, y in enumerate(amap.switching):
            rows.append((x, y, amap.values[i, j]))
    contour_rows = [
        (x, y) for x, y in zip(amap.splittings, amap.zero_contour) if not math.isnan(y)
    ]
    files = {
        "heatmap.csv": (
            ["splitting_2pi_delta_over_omega", "gamma_t_cyc", "log10_improvement"],
            rows,
        ),
        "heatmap_zero_contour.csv": (
            ["splitting_2pi_delta_over_omega", "gamma_t_cyc"],
            contour_rows,
        ),
    }
    return files, {}


def _run_ak(cfg: RunConfig) -> tuple[dict, dict]:
    p = cfg.params
    delta = cfg.qubit.delta_tls
    t_max = p["t_max_s"] if p["t_max_s"] > 0 else 3.0 / delta
    t_grid = np.linspace(0.0, t_max, int(p["n_t"]))
    ak = analytics.ak_coherence(t_grid, delta, p["gamma_hz"])
    mc = None
    if int(p["n_trajectories"]) > 0:
        rng = substream(cfg.seed, cfg.experiment, "mc")
        mc = analytics.ak_coherence_mc(delta, p["gamma_hz"], t_grid, int(p["n_trajectories"]), rng)
    rows = []
    for i, t in enumerate(t_grid):
        rows.append(
            (
                t,
                ak.c_eq[i],
                ak.c_plus[i].real,
                ak.c_plus[i].imag,
                ak.c_minus[i].real,
                ak.c_minus[i].imag,
                ak.s_ak[i],
                mc[i].real if mc is not None else None,
                mc[i].imag if mc is not None else None,
            )
        )
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
            rows,
        )
    }
    return files, {}


_RUNNERS = {
    "ramsey": _run_ramsey,
    "mitigate": _run_mitigate,
    "rb": _run_rb,
    "syndrome-sweep": _run_syndrome_sweep,
    "perr": _run_perr,
    "heatmap": _run_heatmap,
    "ak": _run_ak,
}


def run(cfg: RunConfig) -> int:
    """Execute the configured experiment; writes data files and a manifest."""
    started = time.monotonic()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files, extras = _RUNNERS[cfg.experiment](cfg)
    outputs = []
    for name, (header, rows) in files.items():
        path = out_dir / name
        _write_csv(path, header, rows)
        outputs.append({"file": name, "sha256": _sha256(path), "bytes": path.stat().st_size})
    manifest = {
        "experiment": cfg.experiment,
        "artifact_version": __version__,
        "seed": cfg.seed,
        "replicas": cfg.replicas,
        "config": cfg.raw,
        "derived": _derived_block(cfg),
        "outputs": outputs,
        "wall_time_s": time.monotonic() - started,
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
    if args.seed is not None:
        data["seed"] = args.seed
    if args.out is not None:
        data["out_dir"] = args.out
    if args.replicas is not None:
        data["replicas"] = args.replicas
    if args.shots is not None:
        shot_keys = {
            "ramsey": ("ramsey", "shots"),
            "mitigate": ("mitigate", "n_reps"),
            "rb": ("rb", "n_sequences"),
            "syndrome-sweep": ("syndrome_sweep", "n_cycles"),
            "ak": ("ak", "n_trajectories"),
        }
        if args.experiment not in shot_keys:
            print(f"--shots does not apply to experiment '{args.experiment}'", file=sys.stderr)
            return 2
        section, key = shot_keys[args.experiment]
        data.setdefault(section, {})[key] = args.shots

    try:
        cfg = _config_from_dict(data)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
