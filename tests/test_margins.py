"""tools/margins.py sweeps the acceptance suite's own criterion functions."""

import importlib.util
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("margins", Path(__file__).resolve().parents[1] / "tools" / "margins.py")
margins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(margins)
acceptance = margins.acceptance


@pytest.mark.parametrize(
    "ratio, ok, code",
    [(0.25, True, 0), (1.0, True, 0), (1.0, False, 1), (1.5, False, 1)],
    ids=["inside", "inclusive-bound", "strict-bound", "outside"],
)
def test_sweep_prints_the_criterion_functions_ratio_and_exits_by_its_rule(monkeypatch, capsys, ratio, ok, code):
    seeds = []

    def stub(seed):
        seeds.append(seed)
        return acceptance.Outcome({"07 stub / 1": acceptance.Check(ratio, ok)}, "stub")

    monkeypatch.setattr(acceptance, "criterion_07", stub)
    assert margins.main(["--seeds", "3-3", "--criteria", "07"]) == code
    assert seeds == [3]
    out = capsys.readouterr().out
    assert f"seed 3: {'07 stub / 1':32s} {ratio:.3f}" in out
    assert ("FAILS at seeds [3]" in out) != ok


def test_checks_keep_the_rules_own_comparison_at_the_bound():
    assert acceptance.below(0.02, 0.02) == (1.0, False)
    assert acceptance.below(0.02, 0.02, inclusive=True) == (1.0, True)
    assert acceptance.above(5, 5) == (1.0, False)
    assert acceptance.above(5, 5, inclusive=True) == (1.0, True)
    assert acceptance.above(0, 5, inclusive=True) == (math.inf, False)
    assert not acceptance.below(math.nan, 1.0, inclusive=True).ok
    outcome = acceptance.Outcome({"a": acceptance.Check(0.5, True), "b": acceptance.Check(1.0, False)}, "")
    assert not outcome.ok
