"""Run the benchmark: ``python3 benchmarks/suite/run.py [options]``.

With ``--workload`` this is one measured run and the last line printed
is its result as one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without ``--workload`` the four
workloads run one after another, each in a fresh interpreter.  ``--aa``
runs that untraced set twice and checks the two agree within the
bounds in ``BENCHMARK.json``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
for entry in (REPO_ROOT, REPO_ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.suite import harness  # noqa: E402

BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
SETUP_PROBES = 7


def declared() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


# ----------------------------------------------------------------------
# setup_s: a fresh interpreter imports the program and builds the inputs
# ----------------------------------------------------------------------
def setup_probe(workload: str, seed: int) -> int:
    """Body of the fresh interpreter ``measure_setup`` starts."""
    from benchmarks.suite import workloads

    workloads.prepare(workload, seed)
    return 0


def measure_setup(workload: str, seed: int,
                  machine: harness.Machine) -> tuple[dict, dict]:
    """Process start to inputs built, several times: ``(reference
    seconds, wall seconds)`` summaries."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", workload, "--seed", str(seed)]
    probes = [machine.timed(lambda: subprocess.run(command, check=True,
                                                   cwd=REPO_ROOT))
              for _ in range(SETUP_PROBES)]
    return (harness.summary([ref for ref, _, _ in probes]),
            harness.summary([wall for _, wall, _ in probes]))


# ----------------------------------------------------------------------
# One measured run
# ----------------------------------------------------------------------
def print_table(title: str, rows: list[tuple[str, object, str]]) -> None:
    print(f"\n{title}")
    width = max((len(name) for name, _, _ in rows), default=0)
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown} {unit}".rstrip())


def run_untraced(workload: str, seed: int, seconds: float,
                 scratch: harness.Scratch, sizes, reference: dict | None):
    """The end-to-end half: tracing off, every metric by name."""
    from benchmarks.suite import workloads

    machine = harness.Machine()
    setup_ref, setup_wall = measure_setup(workload, seed, machine)
    inputs = workloads.prepare(workload, seed, sizes)
    workloads.warm_up()
    outcome = workloads.run_workload(workload, inputs, seconds, scratch,
                                     machine, sizes=sizes)
    workloads.check_reference(outcome, seed, reference)
    outcome.series["setup_ref_s"] = setup_ref
    outcome.series["setup_wall_s"] = setup_wall
    outcome.detail["reference_pass_ms"] = (machine.reference_pass_ms(), "ms")
    metrics = {
        "setup_s": (setup_ref["median"], "s"),
        "packets_per_s": (outcome.metrics["packets_per_s"], "1/s"),
        "points_per_s": (outcome.metrics["points_per_s"], "1/s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
    }
    return outcome, metrics


def run_traced(workload: str, seed: int, seconds: float,
               scratch: harness.Scratch, sizes, reference: dict | None):
    """The per-layer half: the workload once more under spans (and once
    more without, for the tracing overhead), then the layer micro-runs."""
    from benchmarks.suite import layers, ledger, workloads
    from benchmarks.suite.spans import SpanRecorder

    inputs = workloads.prepare(workload, seed, sizes)
    workloads.warm_up()
    recorder = SpanRecorder()
    machine = harness.Machine()
    # Most of a traced run's time goes to the layer micro-runs.
    share = seconds / 5.0
    traced = workloads.run_workload(workload, inputs, share, scratch, machine,
                                    recorder, sizes, min_passes=1)
    plain = workloads.run_workload(workload, inputs, share, scratch, machine,
                                   sizes=sizes, min_passes=1)
    if traced.stats != {k: v for k, v in plain.stats.items() if k in traced.stats}:
        traced.fail_all("traced and untraced passes disagree on the "
                        "simulated statistics")
    workloads.check_reference(plain, seed, reference)
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.problems += plain.problems
    metrics = layers.measure_layers(seed, scratch, traced.problems)
    metrics.update(ledger.workload_ledger(recorder, traced, plain))
    metrics["suite.reference_pass_ms"] = (machine.reference_pass_ms(), "ms")
    trace_path = recorder.write_chrome_trace(
        harness.OUT_DIR / f"{workload}-seed{seed}.trace.json")
    print(f"\nChrome trace ({len(recorder.spans)} spans): {trace_path}")
    ledger.print_ledger(recorder, metrics)
    return traced, metrics


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            sizes=None, reference: dict | None = None) -> int:
    """One measured run; ``sizes``/``reference`` default to the full
    sizes and the committed ``reference.json`` (the self-test passes
    tiny sizes, for which there is no reference)."""
    from benchmarks.suite import workloads

    harness.refuse_tainted_env()
    if sizes is None:
        sizes, reference = workloads.FULL, workloads.load_reference()
    scratch = harness.Scratch()
    child_env = harness.child_env(scratch.cache_guard)
    inherited = {key: os.environ.get(key) for key in child_env}
    os.environ.update(child_env)
    environment = harness.environment_record()
    print(f"benchmark {workload}  seed={seed}  seconds={seconds:g}  "
          f"trace={int(trace)}  " + "  ".join(
              f"{key}={value}" for key, value in environment.items()))
    try:
        runner = run_traced if trace else run_untraced
        outcome, metrics = runner(workload, seed, seconds, scratch, sizes,
                                  reference)
    finally:
        # Whatever is still running now was left behind by the workload:
        # reported below as a problem, and stopped on every way out.
        leaked = harness.leaked_workers()
        harness.stop_children()
        hygiene = scratch.close() + leaked
        for key, value in inherited.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value
    outcome.problems += hygiene
    if hygiene:
        outcome.failed = outcome.attempted

    print_table("timing series (median [q1, q3] n)", [
        (name, f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}", "")
        for name, s in sorted(outcome.series.items())])
    print_table("workload detail", [
        (name, value, unit) for name, (value, unit)
        in sorted(outcome.detail.items())])
    print_table("exact statistics", [
        (name, value, "") for name, value in sorted(outcome.stats.items())
        if "." not in name])
    print_table("per-layer metrics" if trace else "end-to-end metrics", [
        (name, value, unit) for name, (value, unit) in metrics.items()])
    share = outcome.failed / max(1, outcome.attempted)
    print_table("operations", [("attempted", outcome.attempted, ""),
                               ("failed", outcome.failed, ""),
                               ("failed_share", share, "")])
    for problem in outcome.problems:
        print(f"PROBLEM: {problem}")

    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload, seed=seed, seconds=seconds,
                  trace=int(trace), environment=environment,
                  series=outcome.series, stats=outcome.stats,
                  detail={k: {"value": v, "unit": u}
                          for k, (v, u) in outcome.detail.items()},
                  problems=outcome.problems)
    (harness.OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
     ).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# All four workloads; A/A
# ----------------------------------------------------------------------
def run_set(names: list[str], seed: int, seconds: float,
            trace: bool) -> tuple[int, dict[str, dict]]:
    """Each workload in its own interpreter (so peak RSS is its own)."""
    worst, results = 0, {}
    for name in names:
        finished = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", f"{seconds:g}",
             "--trace", str(int(trace))],
            cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(finished.stdout)
        sys.stdout.flush()
        worst = max(worst, finished.returncode)
        lines = finished.stdout.strip().splitlines()
        if finished.returncode in (0, 1) and lines:
            results[name] = json.loads(lines[-1])
    return worst, results


def run_aa(names: list[str], seed: int, seconds: float) -> int:
    """Two untraced sets back to back must agree within the bounds."""
    bounds = {m["name"]: m for m in declared()["end_to_end"]}
    code_a, first = run_set(names, seed, seconds, trace=False)
    code_b, second = run_set(names, seed, seconds, trace=False)
    worst = max(code_a, code_b)
    print("\nA/A: relative difference of the second set against the first")
    for name in names:
        if name not in first or name not in second:
            print(f"  {name}: no result")
            worst = max(worst, 1)
            continue
        for metric, spec in bounds.items():
            a = first[name]["metrics"][metric]["value"]
            b = second[name]["metrics"][metric]["value"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= spec["bound"] else "OVER BOUND"
            print(f"  {name:<18} {metric:<14} {a:>12.6g} {b:>12.6g} "
                  f"{worse * 100:+7.2f}% (bound {spec['bound'] * 100:.0f}%) "
                  f"{verdict}")
            if verdict != "ok":
                worst = max(worst, 1)
    return worst


def _terminated(signum: int, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    harness.ensure_program_present()
    spec = declared()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS,
                        help="one measured run of this workload "
                             "(default: all four, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, prints the per-layer ledger")
    parser.add_argument("--aa", action="store_true",
                        help="run the untraced set twice and compare")
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.setup_probe, args.seed)
    names = [args.workload] if args.workload else list(harness.WORKLOADS)
    harness.adopt_orphans()
    # A polite kill unwinds through the ``finally`` below as well.
    signal.signal(signal.SIGTERM, _terminated)
    try:
        if args.aa:
            return run_aa(names, args.seed, args.seconds)
        if args.workload:
            return run_one(args.workload, args.seed, args.seconds,
                           bool(args.trace))
        return run_set(names, args.seed, args.seconds, bool(args.trace))[0]
    finally:
        # No process this command started outlives it, on any way out.
        harness.stop_children()


if __name__ == "__main__":
    sys.exit(main())
