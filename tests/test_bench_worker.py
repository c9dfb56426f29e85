"""The benchmark's worker still sets up, runs and checks the workloads.

``bench/run.py`` runs each repetition through ``worker.repetition`` in a fresh
interpreter.  Its set-up calls ``benchmarking.random_sequence`` and
``protocol.calibrate_decode_map``, and its run reads the files and manifests
``cli.run`` writes, so an API change that breaks either would otherwise show
only as a failed benchmark run.  This test only reads ``bench/``.
"""

import sys
import time
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, BENCH)
try:
    import worker
    import workloads
finally:
    sys.path.remove(BENCH)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_sets_up(name, tmp_path):
    assert set(worker.repetition(name, 1, tmp_path, False, time.monotonic(), True)) == {"setup_s"}
    assert not any(tmp_path.iterdir())  # set-up writes nothing


@pytest.mark.parametrize("name", ["mitigate", "rb-slow", "oracle-maps"])
def test_a_repetition_passes_its_check_and_repeats_its_files(name, tmp_path):
    first, second = (worker.repetition(name, 1, tmp_path / side, False, time.monotonic(), False) for side in "ab")
    assert first["check_ok"], first["check"]
    assert first["samples"] > 0 and first["hashes"]
    assert first["hashes"] == second["hashes"]
