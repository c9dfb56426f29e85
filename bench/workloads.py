"""The benchmark's workloads: configurations made from a seed, and their checks.

Each workload is a list of CLI configuration documents (validated by
``cli.parse_config`` and run in order through ``cli.run``), the number of
Monte Carlo samples the validated configs complete, and a correctness check
that reads the files the run wrote.  See README.md next to
this file for why each workload exists.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

DELTA_TLS_HZ = 374e3  # reference-device splitting (cli defaults)


def _rows(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# mitigate: the headline interleaved fringe experiment, slow switching

MITIGATE = {"rows": 20, "n_tau": 50, "n_reps": 10, "idle_between_rows_s": 1.0}
MITIGATE_DWELL_S = 10.0
MITIGATE_Z_MAX = 4.0


def _mitigate_configs(seed: int, out: Path) -> list[dict]:
    rate = 1.0 / MITIGATE_DWELL_S
    return [{
        "experiment": "mitigate",
        "seed": seed,
        "out_dir": str(out),
        "tls": {"gamma_hl_hz": rate, "gamma_lh_hz": rate},
        "mitigate": dict(MITIGATE),
    }]


def _mitigate_samples(cfgs) -> int:
    m = cfgs[0].params
    return 3 * cfgs[0].replicas * m["rows"] * m["n_tau"] * m["n_reps"]  # open-loop, syndrome, feedback


def _mitigate_check(cfgs, out: Path) -> tuple[bool, str]:
    from bistable_qubit import analytics

    records = _rows(out / "mitigate_trace.csv")
    n = len(records)
    wrong = sum(r["true_xi"] != r["est_xi"] for r in records)
    qp, gamma = cfgs[0].qubit, cfgs[0].tls.total_rate
    p = analytics.p_err_bandwidth_exact(qp.delta_tls, gamma, qp.alpha, qp.t2, qp.t_wall)
    z = (wrong - n * p) / math.sqrt(n * p * (1.0 - p))
    ok = n == _mitigate_samples(cfgs) // 3 and abs(z) < MITIGATE_Z_MAX
    return ok, f"confusion {wrong}/{n} vs p_err_bandwidth_exact {p:.5f}: z = {z:+.2f} (|z| < {MITIGATE_Z_MAX})"


# ---------------------------------------------------------------------------
# rb-slow / rb-switching: interleaved randomized benchmarking

RB_SLOW = {"n_sequences": 84, "shots_per_sequence": 4, "n_windows": 1, "idle_between_windows_s": 0.6}
RB_SLOW_DWELL_S = 6.0
RB_SWITCHING = {"n_sequences": 11, "shots_per_sequence": 4, "n_windows": 1, "idle_between_windows_s": 0.0}
RB_SWITCHING_RATE_HZ = 1e4  # per direction: 100 us mean dwell
RB_DEPTHS = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]


def _rb_config(seed: int, out: Path, rate: float, rb: dict) -> list[dict]:
    return [{
        "experiment": "rb",
        "seed": seed,
        "out_dir": str(out),
        "tls": {"gamma_hl_hz": rate, "gamma_lh_hz": rate},
        "rb": dict(rb, depths=list(RB_DEPTHS)),
    }]


def _rb_samples(cfgs) -> int:
    rb = cfgs[0].params
    sequences = cfgs[0].replicas * rb["n_windows"] * len(rb["depths"]) * rb["n_sequences"]
    return sequences * (2 * rb["shots_per_sequence"] + 1)  # both arms plus one syndrome cycle


def _rb_windows(out: Path) -> tuple[list[dict], float]:
    floor = _manifest(out)["rb_summary"]["decoherence_floor_per_gate"]
    return _rows(out / "rb_timeseries.csv"), floor


def _rb_slow_check(cfgs, out: Path) -> tuple[bool, str]:
    windows, floor = _rb_windows(out)
    converged = all(w["ok_nofb"] == "1" and w["ok_fb"] == "1" for w in windows)
    mean_fb = sum(float(w["r_native_fb"]) for w in windows) / len(windows)
    ok = converged and len(windows) == cfgs[0].params["n_windows"] and mean_fb <= 2.0 * floor
    return ok, f"{len(windows)} windows converged={converged}; fb mean r_native {mean_fb:.3e} vs 2x floor {2 * floor:.3e}"


def _rb_switching_check(cfgs, out: Path) -> tuple[bool, str]:
    windows, floor = _rb_windows(out)
    converged = all(w["ok_nofb"] == "1" and w["ok_fb"] == "1" for w in windows)
    z_min = math.inf
    for w in windows:
        for arm in ("nofb", "fb"):
            r, err = float(w[f"r_native_{arm}"]), float(w[f"r_native_{arm}_err"])
            z_min = min(z_min, (r - floor) / err if err > 0 else math.inf)
    ok = converged and len(windows) == cfgs[0].params["n_windows"] and z_min >= -3.0
    return ok, f"{len(windows)} windows converged={converged}; min (r_native - floor)/err = {z_min:+.2f} (>= -3)"


# ---------------------------------------------------------------------------
# oracle-maps: the analytics layer and the CSV writer, no engine cycles

HEATMAP = {"n_splitting": 200, "n_switching": 300}
AK_TRAJECTORIES = 50_000
AK_GAMMA_HZ = 0.4 * 2.0 * math.pi * DELTA_TLS_HZ  # as in acceptance 07


def _oracle_configs(seed: int, out: Path) -> list[dict]:
    return [
        {"experiment": "heatmap", "seed": seed, "out_dir": str(out / "heatmap"), "heatmap": dict(HEATMAP)},
        {
            "experiment": "ak",
            "seed": seed,
            "out_dir": str(out / "ak"),
            "ak": {"gamma_hz": AK_GAMMA_HZ, "n_t": 200, "n_trajectories": AK_TRAJECTORIES},
        },
    ]


def _oracle_samples(cfgs) -> int:
    return cfgs[1].params["n_trajectories"]


def _oracle_check(cfgs, out: Path) -> tuple[bool, str]:
    rows = _rows(out / "ak" / "ak.csv")
    dev_re = max(abs(float(r["c_eq_mc_re"]) - float(r["c_eq"])) for r in rows)
    dev_im = max(abs(float(r["c_eq_mc_im"])) for r in rows)
    cells = _rows(out / "heatmap" / "heatmap.csv")
    contour = _rows(out / "heatmap" / "heatmap_zero_contour.csv")
    n_split, n_switch = HEATMAP["n_splitting"], HEATMAP["n_switching"]
    values = [float(c["log10_improvement"]) for c in cells]
    monotone = len(values) == n_split * n_switch and all(
        values[i * n_switch + j + 1] - values[i * n_switch + j] <= 1e-12
        for i in range(n_split)
        for j in range(n_switch - 1)
    )
    ok = dev_re < 0.01 and dev_im < 0.01 and len(contour) == n_split and monotone
    return ok, (
        f"ak MC deviation re {dev_re:.4f} im {dev_im:.4f} (< 0.01); "
        f"zero contour on {len(contour)}/{n_split} columns; rows monotone={monotone}"
    )


# ---------------------------------------------------------------------------

WORKLOADS = {
    "mitigate": (_mitigate_configs, _mitigate_samples, _mitigate_check),
    "rb-slow": (
        lambda seed, out: _rb_config(seed, out, 1.0 / RB_SLOW_DWELL_S, RB_SLOW),
        _rb_samples,
        _rb_slow_check,
    ),
    "rb-switching": (
        lambda seed, out: _rb_config(seed, out, RB_SWITCHING_RATE_HZ, RB_SWITCHING),
        _rb_samples,
        _rb_switching_check,
    ),
    "oracle-maps": (_oracle_configs, _oracle_samples, _oracle_check),
}
