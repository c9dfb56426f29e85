"""Acceptance margins: rerun the Monte Carlo acceptance criteria at other seeds.

Usage, from the root of a checkout (a few minutes on two CPUs):

    PYTHONPATH=src python3 tools/margins.py --seeds 1-8 [--criteria 02,03,05] [--rows 160] [--rb-sequences 100]

Criteria 02, 03, 04, 05 and 06 of ``tests/test_acceptance.py`` are recomputed
with their random streams rooted at each sweep seed instead of the pinned
``SEED``, at the sample sizes the tests use unless overridden; 02 and 03
share one mitigation run, as the tests do.  Each line
gives statistic / tolerance for one check, so a value at or above 1 fails it.
A criterion whose ratio crosses 1 at a sweep seed needs a larger sample, not
a looser bound.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import test_acceptance as acceptance  # noqa: E402  (sample sizes, QP)

from bistable_qubit import analytics  # noqa: E402
from bistable_qubit import benchmarking as rb  # noqa: E402
from bistable_qubit.fitting import fit_two_frequency_mixture, quadrature_amplitudes  # noqa: E402
from bistable_qubit.protocol import (  # noqa: E402
    default_tau_probe,
    make_environment,
    run_mitigation,
    syndrome_error_rate,
)
from bistable_qubit.streams import substream  # noqa: E402
from bistable_qubit.telegraph import TelegraphParams  # noqa: E402

QP = acceptance.QP


@lru_cache(maxsize=None)
def criteria_02_03(seed: int, rows: int) -> dict:
    config = acceptance.mitigation_config(rows)
    env = make_environment(QP, TelegraphParams.from_dwell_time(10.0), substream(seed, "acceptance-mitigate"))
    result = run_mitigation(env, config)
    fit = fit_two_frequency_mixture(
        np.asarray(config.tau_grid), result.no_feedback.mean(axis=0), config.det_nofb,
        config.det_nofb - QP.delta_tls, QP.t2,
    )
    ideal = 0.5 / QP.delta_tls
    rel = abs(fit.envelope_node_time - ideal) / ideal if fit.ok else math.inf
    amps = quadrature_amplitudes(
        np.asarray(config.tau_grid), result.feedback.mean(axis=0),
        [config.det_fb, config.det_fb - QP.delta_tls, config.det_fb + QP.delta_tls], QP.t2,
    )
    return {"02 node rel / 0.02": rel / 0.02, "03 sideband / principal / 0.05": max(amps[1], amps[2]) / amps[0] / 0.05}


def criterion_04(seed: int) -> dict:
    tau = default_tau_probe(QP)
    env = make_environment(QP, acceptance.FROZEN, substream(seed, "acceptance-perr-static"), pinned_mode=0,
                           finite_pulses=False)
    n_static = 1_000_000
    p_mc = syndrome_error_rate(env, n_static, tau, True)
    p_th = analytics.p_err_static(QP.delta_tls, QP.t2, QP.alpha)
    sigma = math.sqrt(p_th * (1.0 - p_th) / n_static)
    gammas = (2e3, 6e3, 1.2e4)
    measured, expected = [], []
    for gamma in gammas:
        env = make_environment(QP, TelegraphParams.symmetric(gamma), substream(seed, "acceptance-perr-bw", f"{gamma}"),
                               finite_pulses=False)
        measured.append(syndrome_error_rate(env, 250_000, tau, False))
        expected.append(analytics.p_err_bandwidth_exact(QP.delta_tls, gamma, QP.alpha, QP.t2, QP.t_wall))
    x = np.array(gammas) * QP.t_wall
    slope_mc, slope_th = np.polyfit(x, measured, 1)[0], np.polyfit(x, expected, 1)[0]
    return {"04 static |z| / 3": abs(p_mc - p_th) / sigma / 3.0,
            "04 slope rel / 0.10": abs(slope_mc - slope_th) / slope_th / 0.10}


def criterion_05(seed: int, n_sequences: int) -> dict:
    env = make_environment(QP, acceptance.FROZEN, substream(seed, "acceptance-rb-floor"), pinned_mode=0)
    config = rb.RbConfig(tau_probe=default_tau_probe(QP), n_sequences=n_sequences, shots_per_sequence=6)
    fit = rb.run_rb_interleaved(env, config)[0].fit_nofb
    floor = rb.decoherence_floor_per_gate(QP)
    return {"05 floor rel / 0.25": abs(fit.r_native - floor) / floor / 0.25 if fit.ok else math.inf}


def criterion_06(seed: int) -> dict:
    env = make_environment(QP, TelegraphParams.from_dwell_time(6.0), substream(seed, "acceptance6"))
    config = rb.RbConfig(tau_probe=default_tau_probe(QP), n_sequences=84, shots_per_sequence=4, n_windows=70,
                         idle_between_windows=0.6)
    windows = rb.run_rb_interleaved(env, config)
    floor = rb.decoherence_floor_per_gate(QP)
    valid = [w for w in windows if w.fit_nofb.ok and w.fit_fb.ok]
    r_l = np.array([w.fit_nofb.r_native for w in valid if w.mode_fraction_l >= 0.9])
    r_h = np.array([w.fit_nofb.r_native for w in valid if w.mode_fraction_l <= 0.1])
    r_fb = np.array([w.fit_fb.r_native for w in valid])
    r_nofb = np.array([w.fit_nofb.r_native for w in valid])
    separation = (r_l.mean() - r_h.mean()) / math.sqrt(r_l.var(ddof=1) / r_l.size + r_h.var(ddof=1) / r_h.size)
    return {
        "06 coverage 5 / min(n_L, n_H)": 5.0 / max(min(r_l.size, r_h.size), 1e-9),
        "06 elevated / 3e-3": float(r_l.mean()) / 3e-3,
        "06 1e-3 / elevated": 1e-3 / float(r_l.mean()),
        "06 separation 5 / sep": 5.0 / separation,
        "06 fb mean / 2 floor": float(r_fb.mean()) / (2.0 * floor),
        "06 fb p95 / 2 floor": float(np.percentile(r_fb, 95)) / (2.0 * floor),
        "06 0.60 / reduction": 0.60 / (1.0 - float(r_fb.max()) / float(r_nofb.max())),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-8", help="first-last, inclusive")
    parser.add_argument("--criteria", default="02,03,04,05,06")
    parser.add_argument("--rows", type=int, default=acceptance.MITIGATION_ROWS, help="criteria 02 and 03's rows")
    parser.add_argument("--rb-sequences", type=int, default=acceptance.FLOOR_SEQUENCES,
                        help="criterion 05's sequences")
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    seeds = [s for s in range(first, last + 1) if s != acceptance.SEED]
    runs = {
        "02": lambda s: criteria_02_03(s, args.rows),
        "03": lambda s: criteria_02_03(s, args.rows),
        "04": criterion_04,
        "05": lambda s: criterion_05(s, args.rb_sequences),
        "06": criterion_06,
    }
    ratios: dict[str, list[float]] = {}
    for criterion in args.criteria.split(","):
        for seed in seeds:
            for name, ratio in runs[criterion](seed).items():
                if not name.startswith(criterion):
                    continue
                ratios.setdefault(name, []).append(ratio)
                print(f"seed {seed}: {name:32s} {ratio:.3f}", flush=True)
    print(f"statistic / tolerance over seeds {seeds} (rows {args.rows}, criterion-05 sequences {args.rb_sequences}):")
    for name, values in ratios.items():
        rms = math.sqrt(statistics.fmean(v * v for v in values))
        print(f"  {name:32s} max {max(values):.3f}  rms {rms:.3f}  {'CROSSES 1' if max(values) >= 1 else 'ok'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
