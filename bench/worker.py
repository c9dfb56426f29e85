"""One repetition of one workload, in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  Set-up
(importing the package, validating the configs, filling the first-use caches)
is timed from the parent's spawn instant; the run is the ``cli.run`` calls.
After the run the worker checks the outputs and prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _outputs(out: Path) -> tuple[dict, int, int]:
    """SHA-256 of every data file as the manifests record them, plus data rows and bytes.

    The manifests themselves are left out: their wall_time_s varies from run to run.
    """
    hashes = {}
    rows = nbytes = 0
    for manifest in sorted(out.rglob("manifest.json")):
        for entry in json.loads(manifest.read_text(encoding="utf-8"))["outputs"]:
            path = manifest.parent / entry["file"]
            hashes[path.relative_to(out).as_posix()] = entry["sha256"]
            nbytes += entry["bytes"]
            with path.open("rb") as fh:
                rows += sum(1 for _ in fh) - 1  # after the header
    return hashes, rows, nbytes


def repetition(workload: str, seed: int, out: Path, traced: bool, spawned: float, setup_only: bool) -> dict:
    """Set up, run and check one workload; return timings, hashes, check and layer metrics."""
    import numpy as np

    from bistable_qubit import benchmarking, cli, protocol

    from workloads import WORKLOADS

    make_docs, count_samples, check = WORKLOADS[workload]
    cfgs = [cli.parse_config(json.dumps(doc)) for doc in make_docs(seed, out)]
    # First-use caches, filled with a throwaway generator so no program stream moves.
    benchmarking.random_sequence(1, np.random.default_rng(0))
    for cfg in cfgs:
        tau = cfg.tau_probe or protocol.default_tau_probe(cfg.qubit)
        protocol.calibrate_decode_map(cfg.qubit, tau, cfg.finite_pulses)
    setup_s = time.monotonic() - spawned
    if setup_only:
        return {"setup_s": setup_s}
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    try:
        for cfg in cfgs:
            cli.run(cfg)
        run_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "samples": count_samples(cfgs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,  # ru_maxrss is KiB
    }
    result["hashes"], rows, nbytes = _outputs(out)
    result["check_ok"], result["check"] = check(cfgs, out)
    if tracer is not None:
        layers, notes = tracer.layer_metrics()
        layers["cli.rows_written"], layers["cli.bytes_written"] = rows, nbytes
        result.update(layers=layers, notes=notes, spans=tracer.span_table())
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True, help="parent's time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true", help="stop once set-up is done (warm-up)")
    args = parser.parse_args()
    try:
        result = repetition(args.workload, args.seed, args.out, bool(args.trace), args.spawned, args.setup_only)
    except Exception:  # reported to the parent, which counts the repetition as failed
        traceback.print_exc()
        result = {"error": traceback.format_exc(limit=1).strip().splitlines()[-1]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
