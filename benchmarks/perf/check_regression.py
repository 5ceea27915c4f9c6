"""CI perf-regression gate — compares a fresh run against a committed baseline.

Usage (after ``repro perf --tiny --label ci-smoke`` recorded a fresh
entry in every trajectory file)::

    PYTHONPATH=src python benchmarks/perf/check_regression.py \\
        --baseline ci-baseline --label ci-smoke

The gate applies every row of :data:`repro.bench.perf.PERF_BOUNDS`:

* per suite (``BENCH_kernel.json``, ``BENCH_rpc.json``,
  ``BENCH_store.json``, ``BENCH_e2e.json``), any workload whose rate
  dropped more than 25% below the committed *baseline* entry fails;
* the dentry-cache hotspot sweep point must hit at least 50% in the
  switch (the virtual-time run is deterministic, so a drop is a datapath
  bug, not noise);
* the 100K-user fan-in arm's wall time must stay within 1.5x of the
  10K-user arm's in the same entry (run cost is O(load), not O(users)).

Any failure exits 1.  A row with nothing to compare (missing entry or
mismatched scale) is skipped with a warning — the gate only bites where
a comparable baseline was deliberately committed.

``REPRO_PERF_GATE_SKIP=1`` disables the gate entirely (hardware swaps:
re-record the baseline, land it, drop the variable again).
"""

from __future__ import annotations

import argparse
import os
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
if os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bench.perf import CACHE_GATE_WORKLOAD, PERF_BOUNDS, check_bound  # noqa: E402

#: check -> what a pass means, formatted with the bound and the baseline
RULES = {
    "wall_drop": "within {limit:.0%} of {baseline!r}",
    "hit_rate_floor": ">= {limit:.0%} on " + CACHE_GATE_WORKLOAD,
    "wall_growth": "10K -> 100K users within {limit:.2f}x wall",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="ci-baseline",
                        help="committed trajectory label to gate against")
    parser.add_argument("--label", default="ci-smoke",
                        help="freshly recorded label to check")
    parser.add_argument("--dir", default=REPO_ROOT,
                        help="directory holding BENCH_*.json")
    args = parser.parse_args(argv)

    if os.environ.get("REPRO_PERF_GATE_SKIP", "") not in ("", "0"):
        print("perf gate: skipped (REPRO_PERF_GATE_SKIP set)")
        return 0

    failures = []
    for bound in PERF_BOUNDS:
        result = check_bound(bound, args.dir, args.baseline, args.label)
        if result is None:
            print(f"perf gate: {bound.name}: nothing comparable for "
                  f"{args.label!r} vs {args.baseline!r} — skipped")
        elif result:
            failures.extend(result)
        else:
            rule = RULES[bound.check].format(limit=bound.limit, baseline=args.baseline)
            print(f"perf gate: {bound.name}: ok ({rule})")

    if failures:
        print(f"perf gate: {len(failures)} regression(s):", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
