"""Benchmark of the bistable-qubit simulator through its CLI layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mitigate --seed 1 --seconds 35 --trace 0

``--workload all`` runs every workload in turn.  Each repetition runs in a
fresh interpreter (bench/worker.py), one at a time, with BLAS/OpenMP pinned to
one thread.  After a set-up-only warm-up, repetitions run until ``--seconds``
have passed; every repetition uses the configs made from ``--seed``, so all
of them must write byte-identical data files.

With ``--trace 0`` the result carries the end-to-end metrics (medians over
the repetitions).  With ``--trace 1`` traced and untraced repetitions
alternate; the result carries the per-layer metrics of the traced ones and
``trace.overhead_s``.  The report lines before the result give every metric
with its unit and sample count, the span table, the checks and provenance.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
from tracer import COUNTS, MODULES, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIN_REPS = 3  # timed repetitions per kind (untraced, traced), whatever --seconds says
REP_TIMEOUT_S = 60  # a repetition takes under 15 s; the whole run must end within 180 s

END_TO_END = {"setup_s": "s", "run_s": "s", "shots_per_s": "1/s", "peak_rss_mb": "MB"}
LAYER_UNITS = dict(PER_LAYER, **{f"{m}.source_lines": "lines" for m in MODULES}, **{"trace.overhead_s": "s"})


def _say(line: str) -> None:
    print(f"# {line}", flush=True)


def _environment() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _repetition(workload: str, seed: int, out: Path, traced: bool, env: dict, setup_only: bool = False) -> dict:
    """Run one repetition in a fresh interpreter and return its JSON report."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--out", str(out), "--trace", str(int(traced)), "--spawned", repr(spawned)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {REP_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"worker exited with code {proc.returncode}: {proc.stderr.strip()[-500:]}"}


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q[0]:.6g} q3={q[2]:.6g} min={min(values):.6g} max={max(values):.6g}"


def _source_lines() -> dict:
    return {
        f"{m}.source_lines": len((SRC / "bistable_qubit" / f"{m}.py").read_text(encoding="utf-8").splitlines())
        for m in MODULES
    }


def measure(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, int, int]:
    """Run one workload; return its metrics, attempted and failed repetitions."""
    env = _environment()
    work = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    kinds = (True, False) if traced else (False,)
    failures: list[tuple[int, str]] = []  # (repetition, what failed)
    reps: list[tuple[bool, dict]] = []
    first: dict = {}  # hashes of the first good repetition, layer counts of the first traced one
    durations: list[float] = []

    def check(k: int, with_trace: bool, result: dict) -> None:
        kind = "traced" if with_trace else "untraced"
        if "error" in result:
            failures.append((k, f"({kind}): {result['error']}"))
            return
        if not result["check_ok"]:
            failures.append((k, f"({kind}): check failed: {result['check']}"))
        if result["hashes"] != first.setdefault("hashes", result["hashes"]):
            failures.append((k, f"({kind}): data files differ from the first repetition's"))
        if with_trace:
            counts = {n: result["layers"][n] for n in COUNTS}
            if counts != first.setdefault("counts", counts):
                failures.append((k, "(traced): layer counts differ from the first traced repetition's"))

    try:
        warm = _repetition(workload, seed, work / "warm-up", False, env, setup_only=True)
        if "error" in warm:
            _say(f"warm-up failed: {warm['error']}")
        deadline = time.monotonic() + seconds
        for k in itertools.count(1):
            # Start a repetition only if a typical one ends before the deadline.
            late = time.monotonic() + (statistics.median(durations) if durations else 0.0) > deadline
            if late and k > MIN_REPS * len(kinds):
                break
            with_trace = kinds[(k - 1) % len(kinds)]
            started = time.monotonic()
            result = _repetition(workload, seed, work / f"rep{k}", with_trace, env)
            durations.append(time.monotonic() - started)
            check(k, with_trace, result)
            reps.append((with_trace, result))
            if "error" not in result:
                _say(f"rep {k} {'traced' if with_trace else 'untraced'}: setup_s={result['setup_s']:.4f} "
                     f"run_s={result['run_s']:.4f} peak_rss_mb={result['peak_rss_mb']:.1f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for k, what in failures:
        _say(f"FAILED rep {k} {what}")
    good = [(t, r) for t, r in reps if "error" not in r]
    untraced = [r for t, r in good if not t]
    checks = sorted({r["check"] for t, r in good})
    _say(f"{workload} seed={seed}: check: {'; '.join(checks)}")
    if traced:
        metrics, counts = _layer_metrics([r for t, r in good if t], untraced)
    else:
        metrics, counts = _end_to_end(untraced)
    n_failed = len({k for k, _ in failures})
    _say(f"{workload}: {len(reps)} repetitions attempted, {n_failed} failed, fail_share = {n_failed / len(reps):.3g}")
    for name, value in metrics.items():
        _say(f"  {name:36s} {value['value']:.6g} {value['unit']:6s} {counts.get(name, '')}")
    return metrics, len(reps), n_failed


def _end_to_end(reps: list[dict]) -> tuple[dict, dict]:
    series = {
        "setup_s": [r["setup_s"] for r in reps],
        "run_s": [r["run_s"] for r in reps],
        "shots_per_s": [r["samples"] / r["run_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    metrics = {n: {"value": statistics.median(v) if v else 0.0, "unit": END_TO_END[n]} for n, v in series.items()}
    counts = {n: f"median of {_spread(v)}" for n, v in series.items()}
    if reps:
        counts["shots_per_s"] += f"; {reps[0]['samples']} samples per repetition"
    return metrics, counts


def _layer_metrics(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    values: dict[str, float] = {}
    counts: dict[str, str] = {}
    notes: dict[str, str] = {}
    for name, unit in PER_LAYER.items():
        series = [r["layers"][name] for r in traced]
        values[name] = statistics.median(series) if series else 0.0
        counts[name] = "exact count" if name in COUNTS else f"median of {_spread(series)}"
    for r in traced[:1]:
        notes.update(r["notes"])
        _say("spans of the first traced repetition (calls, entries from other layers, total s, self s):")
        for s in r["spans"]:
            _say(f"  {s['span']:44s} {s['calls']:9d} {s['entries']:9d} {s['total_s']:10.4f} {s['self_s']:10.4f}")
    values.update(_source_lines())
    t_on = [r["run_s"] for r in traced]
    t_off = [r["run_s"] for r in untraced]
    values["trace.overhead_s"] = statistics.median(t_on) - statistics.median(t_off) if t_on and t_off else 0.0
    counts["trace.overhead_s"] = f"traced run_s {_spread(t_on)}; untraced run_s {_spread(t_off)}"
    for name, why in sorted(notes.items()):
        _say(f"absent: {name}: {why}")
    return {n: {"value": values[n], "unit": LAYER_UNITS[n]} for n in LAYER_UNITS}, counts


def _provenance(seed: int) -> None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        cpu = ""
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    _say(f"provenance: python {platform.python_version()}, numpy {versions['numpy']}, scipy {versions['scipy']}, "
         f"cpu '{cpu or platform.machine()}', nproc {os.cpu_count()}, threads {THREAD_VARS[0]}=1 (all BLAS/OpenMP), "
         f"seed {seed}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "bistable_qubit" / "cli.py").is_file():
        print(f"error: no bistable_qubit sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    _provenance(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict = {}
    attempted = failed = 0
    for name in names:
        m, a, f = measure(name, args.seed, args.seconds, bool(args.trace))
        attempted += a
        failed += f
        metrics.update({(f"{name}.{k}" if len(names) > 1 else k): v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
