"""Acceptance margins: rerun the Monte Carlo acceptance criteria at other seeds.

Usage, from the root of a checkout (seeds 1-8 took 64 s on a two-CPU Intel Xeon):

    PYTHONPATH=src python3 tools/margins.py --seeds 1-8 [--criteria 02,03,05] [--rows 160] [--rb-sequences 100]

Criteria 02 to 09 of ``tests/test_acceptance.py`` are run by the tests' own
criterion functions with their random streams rooted at each sweep seed
instead of the pinned ``SEED``, at the tests' sample sizes (02-03's rows and
05's sequences can be overridden); 02 and 03 share one mitigation run, as the tests do.  Each line
gives statistic / tolerance for one check; a check fails where the test's
rule fails, so above 1, or at 1 where its bound is strict.  The exit code is
1 if any check fails at any sweep seed.  A check that fails at a sweep seed
needs a larger sample, not a looser bound.
"""

from __future__ import annotations

import argparse
import functools
import math
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import test_acceptance as acceptance  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-8", help="first-last, inclusive")
    parser.add_argument("--criteria", default="02,03,04,05,06,07,08,09")
    parser.add_argument("--rows", type=int, default=acceptance.MITIGATION_ROWS, help="criteria 02 and 03's rows")
    parser.add_argument("--rb-sequences", type=int, default=acceptance.FLOOR_SEQUENCES,
                        help="criterion 05's sequences")
    args = parser.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    seeds = [s for s in range(first, last + 1) if s != acceptance.SEED]
    mitigation = functools.cache(lambda seed: acceptance.criteria_02_03(seed, args.rows))
    runs = {
        "02": lambda s: mitigation(s)[0],
        "03": lambda s: mitigation(s)[1],
        "04": acceptance.criterion_04,
        "05": lambda s: acceptance.criterion_05(s, args.rb_sequences),
        "06": acceptance.criterion_06,
        "07": acceptance.criterion_07,
        "08": acceptance.criterion_08,
        "09": acceptance.criterion_09,
    }
    ratios: dict[str, list[float]] = {}
    failed: dict[str, list[int]] = {}
    for criterion in args.criteria.split(","):
        for seed in seeds:
            for name, check in runs[criterion](seed).checks.items():
                ratios.setdefault(name, []).append(check.ratio)
                if not check.ok:
                    failed.setdefault(name, []).append(seed)
                print(f"seed {seed}: {name:32s} {check.ratio:.3f}{'' if check.ok else '  FAIL'}", flush=True)
    print(f"statistic / tolerance over seeds {seeds} (rows {args.rows}, criterion-05 sequences {args.rb_sequences}):")
    for name, values in ratios.items():
        rms = math.sqrt(statistics.fmean(v * v for v in values))
        verdict = f"FAILS at seeds {failed[name]}" if name in failed else "ok"
        print(f"  {name:32s} max {max(values):.3f}  rms {rms:.3f}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
