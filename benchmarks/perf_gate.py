"""The CI perf gate: five traced ``paper_figures`` runs of the benchmark
suite, judged on the per-metric median of the suite's own ledger.

    python benchmarks/perf_gate.py

No arguments and no timing code: every number comes from the last-line
JSON of ``benchmarks/suite/run.py --workload paper_figures --trace 1``.
Exit 1 when a run is not ``correct``, a named metric is absent, or a
median crosses its limit.  ``docs/performance.md`` has the parent-commit
medians and quartiles each limit was derived from.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from statistics import median

REPO_ROOT = Path(__file__).resolve().parent.parent
RUNS = 5
COMMAND = [sys.executable, str(REPO_ROOT / "benchmarks" / "suite" / "run.py"),
           "--workload", "paper_figures", "--trace", "1"]

#: (metric, divisor metric or None, worst allowed median, which side is bad).
#: Each limit is the outer fence (q3 + 3 IQR; q1 - 3 IQR for the floor) of
#: 50 single runs on the parent of PR 16, rounded outward: a gate fails when
#: three of its five runs are far-out outliers (docs/performance.md).  The
#: monitor row — what a ``TraceSet`` adds to an unmonitored two-way run, the
#: one gated cost of enabled observation — is fenced the same way from 24
#: runs of the PR 23 tree, whose C-level journal sinks made that cost what
#: it is (5.3 %; the eager handlers before it read 22).  The last two
#: rows are same-run ratios in which machine speed cancels.  Cancel over
#: tick stands in for the retired paired cancel gate, which has no twin in
#: the suite.  Build at N = 128 over build at N = 2 is the growth law of
#: everything a population point sets up before its first event: 28 when
#: single-port nodes share one route table per neighbour and drop-tail
#: queues hold no random stream (25 runs of that tree, fenced the same
#: way), 68 when every host held a table over every host, 166 ... 215
#: when it was one BFS per host.
LIMITS = (
    ("engine.vs_frozen_kernel_pct", None, -2.0, "above"),
    ("parallel.runner_overhead_pct", None, 13.0, "above"),
    ("scenarios.run_overhead_pct", None, 15.0, "above"),
    ("net.red_overhead_pct", None, 42.0, "above"),
    ("metrics.monitor_overhead_pct.two_way", None, 33.0, "above"),
    ("engine.cancel_pairs_per_s", "engine.tick_events_per_s", 0.57, "below"),
    ("scenarios.build_ms.n128", "scenarios.build_ms.n2", 42.0, "above"),
)


def suite_record() -> dict:
    """One traced suite run; its last stdout line is the result JSON."""
    finished = subprocess.run(COMMAND, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                              text=True)
    return json.loads(finished.stdout.strip().splitlines()[-1])


def judge(records: list[dict]) -> list[str]:
    """Every reason the gate fails on these suite records (empty = pass)."""
    failures = [f"run {i + 1} of {len(records)} is not correct"
                for i, record in enumerate(records) if not record["correct"]]
    for name, divisor, limit, bad_side in LIMITS:
        label = f"{name} / {divisor}" if divisor else name
        try:
            values = [
                r["metrics"][name]["value"]
                / (r["metrics"][divisor]["value"] if divisor else 1.0)
                for r in records]
        except KeyError as missing:
            failures.append(f"{label}: metric {missing} absent from a run")
            continue
        mid = median(values)
        crossed = mid > limit if bad_side == "above" else mid < limit
        print(f"{'FAIL' if crossed else 'ok':<4} {label}: median {mid:.4g} "
              f"(must not be {bad_side} {limit:g}); runs "
              + " ".join(f"{value:.4g}" for value in values))
        if crossed:
            failures.append(f"{label}: median {mid:.4g} is {bad_side} {limit:g}")
    return failures


def main() -> int:
    failures = judge([suite_record() for _ in range(RUNS)])
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
