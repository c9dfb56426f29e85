"""The benchmark's workload configs stay valid CLI configs.

``bench/`` builds each workload's configs with ``cli.parse_config`` and reads
fields of the parsed configs to count its samples; a change to the config
layer must not break either silently.  This test only reads ``bench/``.
"""

import json
import sys
from pathlib import Path

import pytest

from bistable_qubit import cli

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, BENCH)
try:
    import workloads
finally:
    sys.path.remove(BENCH)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_configs_parse_and_count_samples(name, tmp_path):
    make_docs, samples, _ = workloads.WORKLOADS[name]
    cfgs = [cli.parse_config(json.dumps(doc)) for doc in make_docs(1, tmp_path)]
    assert samples(cfgs) > 0
    assert not any(tmp_path.iterdir())  # parsing writes nothing
