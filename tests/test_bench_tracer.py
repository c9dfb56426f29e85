"""The benchmark's tracer still wraps the engine, counts its work and changes no output.

``bench/run.py --trace 1`` installs ``tracer.Tracer`` around ``cli.run`` and
reads the engine's signatures (``dwell_segments`` results, ``measure`` and
``SequenceExecutor.run`` calls); a change to them must not break the traced
benchmark silently.  This test only reads ``bench/``.
"""

import json
import sys
from pathlib import Path

from bistable_qubit import bloch, cli, protocol

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, BENCH)
try:
    import tracer
finally:
    sys.path.remove(BENCH)

SWITCHING = {"gamma_hl_hz": 1e3, "gamma_lh_hz": 1e3}
CONFIGS = {
    "mitigate": {"experiment": "mitigate", "seed": 5, "tls": SWITCHING,
                 "mitigate": {"rows": 2, "n_tau": 8, "n_reps": 2}},
    "rb": {"experiment": "rb", "seed": 5, "tls": SWITCHING,
           "rb": {"depths": [1, 4, 16], "n_sequences": 3, "shots_per_sequence": 2}},
}


def _run_all(out: Path) -> dict:
    """Run every config; return the data-file SHA-256 values its manifest records."""
    hashes = {}
    for name, doc in CONFIGS.items():
        assert cli.run(cli.parse_config(json.dumps(dict(doc, out_dir=str(out / name))))) == 0
        manifest = json.loads((out / name / "manifest.json").read_text())
        hashes.update({f"{name}/{o['file']}": o["sha256"] for o in manifest["outputs"]})
    return hashes


def test_traced_runs_write_the_same_files_and_count_work(tmp_path):
    plain = _run_all(tmp_path / "plain")
    originals = (cli.run, bloch.measure, protocol.measure)
    traced = tracer.Tracer()
    traced.install()
    try:
        assert cli.run is not originals[0]
        hashes = _run_all(tmp_path / "traced")
    finally:
        traced.restore()
    assert (cli.run, bloch.measure, protocol.measure) == originals
    assert hashes == plain
    layers, _ = traced.layer_metrics()
    for name in ("telegraph.segments", "bloch.measurements", "benchmarking.runs"):
        assert layers[name] > 0, name
