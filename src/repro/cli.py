"""Command-line interface.

::

    repro list                      # registered experiments
    repro algorithms                # registered congestion-control algorithms
    repro disciplines               # registered queue disciplines
    repro run fig4_5 [--fast]       # one experiment, print the report
    repro run conjecture --algorithm aimd --param a=1 --param b=0.5
    repro run fig3 --queue red --queue-param max_p=0.05
    repro sweep phase --jobs 4      # (N, buffer, RTT-spread) phase diagram
    repro report [--fast] [-o F]    # all experiments -> Markdown
    repro report --jobs 2 --cache-dir D  # experiment points via the sweep runner
    repro plot fig4 [--window A B]  # ASCII queue plots for a scenario
    repro figures [-o DIR]          # render every paper figure as text
    repro run-config FILE           # run a JSON scenario
    repro sweep conjecture --jobs 4 # parallel, cached parameter sweep
    repro sweep buffer --progress   # per-point start/finish/retry/fail lines
    repro sweep conjecture --jobs 4 --timeout 120 --retries 3 \
          --resume sweep.journal    # supervised: contain crashes, resume
    repro sweep buffer --manifest-dir D  # one provenance manifest per point
    repro trace fig4 --out t.json   # Perfetto-loadable execution trace
    repro metrics fig4 --prom m.prom  # metered run, Prometheus exposition
    repro profile fig4              # per-category wall-time attribution
    repro parity --check            # metered figure set vs golden hashes
    repro lint src/                 # determinism static analysis
    repro lint --explain RPR004     # why a rule exists, how to suppress

``run``, ``run-config`` and ``sweep`` share the counterfactual flags
``--algorithm/--param`` and ``--queue/--queue-param``: each substitutes
through :func:`repro.scenarios.substitute`, and a ``--param`` without
``--algorithm`` (or ``--queue-param`` without ``--queue``) exits 2.
Every verb that writes a file refuses an output path under a missing
directory or a regular file the same way, before it runs.

The module is a parser plus handlers: each verb's subparser attaches its
``_cmd_*`` handler with ``set_defaults(run=...)``, which imports only
what that verb runs.

Also usable as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.registry import Registry

__all__ = ["main", "build_parser"]

_PLOT_SCENARIOS = ("fig2", "fig3", "fig4", "fig6", "fig8", "fig9")

#: Process exit codes.  ``repro run``/``report``/``lint`` use 1 for
#: "ran fine, checks failed"; 2 is argparse's own usage-error code, which
#: configuration errors share; sweeps add the partial/total split so CI
#: can tell "some points salvageable" from "nothing came back".
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_SWEEP_PARTIAL = 3
EXIT_SWEEP_TOTAL = 4

_SWEEP_EPILOG = """\
exit codes:
  0  every point produced measurements
  2  configuration error (bad flags, bad REPRO_FAULTS spec, a --report,
     --export or --manifest-dir path that cannot be written, or a
     __main__ that spawn workers cannot re-import -- use --jobs 1)
  3  some points failed after exhausting their retries; completed
     measurements were still returned/journaled (with --allow-partial
     this case exits 0 instead)
  4  every point failed

One coordinator runs every point, on any --backend: with --jobs > 1 on
that many long-lived worker processes (forked on Linux, spawned on other
platforms or beside another thread, where a worker's first point also
pays its interpreter start-up), with --backend worker on a fleet of
agents (started the same way), with --jobs 1 in-process.  Supervision
(--timeout/--retries/--resume) replaces any worker that dies, goes
silent or hangs; on --jobs 1 retries still apply but a per-point
timeout cannot be enforced, and a REPRO_FAULTS kill or hang takes this
process with it.  A fleet whose agents cannot be started is warned
about and the sweep degrades to local execution.  Failed points are
reported on stderr and recorded in --manifest-dir manifests and the
--report document.

A sweep is observed three ways: one progress stream prints each
point's "[k/n] value: ..." line as it finishes and, with --progress,
each point's phase, worker, wall time, events and attempt; --manifest-dir
writes each point's source (live/cache/journal/failed), worker, wall
time, events, attempts and failure; --report and the closing status
line give the retries, failures and cache hits/misses.
"""

#: Default sim-time slice a ``repro trace`` records: enough to show several
#: congestion epochs without producing a multi-hundred-MB trace file.
_TRACE_WINDOW_SECONDS = 60.0


def _scenario_config(scenario: str):
    """``figN`` as the paper's ``figureN`` configuration."""
    from repro.scenarios import paper

    return getattr(paper, f"figure{scenario[3:]}")()


def _add_algorithm_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algorithm", default=None, metavar="NAME",
                        help="substitute this congestion-control algorithm "
                             "onto every flow (see `repro algorithms`)")
    parser.add_argument("--param", action="append", default=None,
                        metavar="KEY=VALUE", dest="params",
                        help="algorithm factory parameter (repeatable), "
                             "e.g. --param a=1 --param b=0.5")


def _add_queue_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--queue", default=None, metavar="NAME",
                        help="substitute this queue discipline onto the "
                             "bottleneck (see `repro disciplines`)")
    parser.add_argument("--queue-param", action="append", default=None,
                        metavar="KEY=VALUE", dest="queue_params",
                        help="queue-discipline parameter (repeatable), "
                             "e.g. --queue-param max_p=0.05")


def _verb(sub: Any, name: str, handler: Callable[[argparse.Namespace], int],
          help: str, **kwargs: Any) -> argparse.ArgumentParser:
    """The subparser for verb ``name``, carrying ``handler`` as ``run``."""
    parser = sub.add_parser(name, help=help, **kwargs)
    parser.set_defaults(run=handler)
    return parser


def _scenario_verb(sub: Any, name: str,
                   handler: Callable[[argparse.Namespace], int],
                   help: str) -> argparse.ArgumentParser:
    """A verb that runs one of the paper's figure scenarios."""
    parser = _verb(sub, name, handler, help)
    parser.add_argument("scenario", choices=_PLOT_SCENARIOS)
    return parser


def _add_window_flag(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument("--window", nargs=2, type=float, default=None,
                        metavar=("START", "END"),
                        help=f"sim-time slice (default: {default})")


def _add_manifest_dir_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifest-dir", default=None, metavar="DIR",
                        help="write a provenance manifest here, one per run "
                             "or per sweep point")


def _write_json(document: Any, path: str, label: str) -> None:
    """``document`` as stable JSON at ``path``, announced as ``label -> path``."""
    import json

    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"{label} -> {path}")


def _add_experiment_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the experiments' sweep "
                             "points (default: 1, serial)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="read and store measurements in this local "
                             "result-cache directory (default: off, every "
                             "point simulates); hit and miss counts go to "
                             "stderr")


def _experiment_cache(args: argparse.Namespace):
    """``--cache-dir`` opened, so its counters can be reported."""
    if args.cache_dir is None:
        return None
    from repro.parallel import ResultCache

    return ResultCache(args.cache_dir)


def _report_cache(cache) -> None:
    if cache is not None:
        print(f"cache: {cache.hits} hits, {cache.misses} misses",
              file=sys.stderr)


def _check_outputs(*files: tuple[str, str | None],
                   directories: tuple[tuple[str, str | None], ...] = (),
                   journals: tuple[tuple[str, str | None], ...] = ()
                   ) -> None:
    """Refuse an output path before the command's first event, not after
    its last: each ``(flag, path)`` file needs an existing directory as
    its parent, and each directory (created on write) and each journal
    (whose missing parents are created) an existing directory as the
    nearest existing ancestor.  No file or journal may be a directory.
    :func:`main` prints the :class:`~repro.errors.ConfigurationError` as
    one ``error:`` line and exits 2."""
    from pathlib import Path

    from repro.errors import ConfigurationError

    wanted = [(flag, path, Path(path).parent)
              for flag, path in files if path is not None]
    created = ([(flag, path, Path(path)) for flag, path in directories
                if path is not None]
               + [(flag, path, Path(path).parent) for flag, path in journals
                  if path is not None])
    for flag, path, where in created:
        while not where.exists() and where != where.parent:
            where = where.parent
        wanted.append((flag, path, where))
    for flag, path, where in wanted:
        if not where.is_dir():
            raise ConfigurationError(f"{flag} {path}: {where} is not a directory")
    for flag, path in files + journals:
        if path is not None and Path(path).is_dir():
            raise ConfigurationError(f"{flag} {path}: is a directory")


def _parse_params(pairs: list[str] | None, owner_value: str | None,
                  flag: str, owner: str) -> tuple[tuple[str, object], ...]:
    """``KEY=VALUE`` flag strings as sorted ``(key, value)`` pairs — the
    form a config stores, and a picklable one."""
    from repro.errors import ConfigurationError

    if pairs and owner_value is None:
        raise ConfigurationError(f"{flag} requires {owner}")
    params: dict[str, object] = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(
                f"{flag} wants KEY=VALUE, got {pair!r}")
        value: object
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        params[key] = value
    return tuple(sorted(params.items()))


def _substitution(args: argparse.Namespace) -> dict[str, Any]:
    """The four counterfactual flags as :func:`repro.scenarios.substitute`
    keywords — the one wiring ``run``, ``run-config`` and ``sweep`` share."""
    return {
        "algorithm": args.algorithm,
        "params": _parse_params(args.params, args.algorithm,
                                "--param", "--algorithm"),
        "queue": args.queue,
        "queue_params": _parse_params(args.queue_params, args.queue,
                                      "--queue-param", "--queue"),
    }


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Zhang, Shenker & Clark (SIGCOMM 1991): "
            "TCP Tahoe dynamics with two-way traffic"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _verb(sub, "list", _cmd_list, "list registered experiments")
    _verb(sub, "algorithms", _cmd_algorithms,
          "list registered congestion-control algorithms")
    _verb(sub, "disciplines", _cmd_disciplines,
          "list registered queue disciplines")

    run_p = _verb(sub, "run", _cmd_run, "run one experiment")
    run_p.add_argument("experiment", help="experiment id (see `repro list`)")
    run_p.add_argument("--fast", action="store_true",
                       help="shorter simulations (smoke mode)")
    _add_experiment_sweep_flags(run_p)
    _add_algorithm_flags(run_p)
    _add_queue_flags(run_p)

    rep_p = _verb(sub, "report", _cmd_report,
                  "run all experiments, emit Markdown")
    rep_p.add_argument("--fast", action="store_true")
    rep_p.add_argument("-o", "--output", default=None,
                       help="write Markdown here instead of stdout")
    _add_experiment_sweep_flags(rep_p)

    plot_p = _scenario_verb(sub, "plot", _cmd_plot, "ASCII queue-length plots")
    _add_window_flag(plot_p, "the measurement window")

    fig_p = _verb(sub, "figures", _cmd_figures,
                  "render every paper figure to text files")
    fig_p.add_argument("-o", "--output", default="figures",
                       help="directory for the rendered figures")

    cfg_p = _verb(sub, "run-config", _cmd_run_config,
                  "run a scenario described in a JSON file")
    cfg_p.add_argument("config", help="path to a scenario JSON document")
    _add_algorithm_flags(cfg_p)
    _add_queue_flags(cfg_p)

    swp_p = _verb(
        sub, "sweep", _cmd_sweep,
        "run a named sweep family over a worker pool with result caching "
        "and fault-tolerant supervision",
        epilog=_SWEEP_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    swp_p.add_argument("family", choices=("buffer", "conjecture", "phase"),
                       help="which sweep family to run")
    _add_queue_flags(swp_p)
    swp_p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (default: 1, serial)")
    swp_p.add_argument("--backend", default="local", metavar="NAME",
                       help="execution backend: 'local' (this host's "
                            "processes, default) or 'worker' (a fleet of "
                            "long-lived `repro worker serve` agents with "
                            "lease-based work claiming)")
    swp_p.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker-backend fleet size (default: --jobs)")
    swp_p.add_argument("--lease-ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="seconds a worker-backend lease survives without "
                            "a heartbeat before the point is reclaimed and "
                            "re-leased (default: 15)")
    swp_p.add_argument("--no-cache", action="store_true",
                       help="always simulate; skip the on-disk result cache")
    swp_p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache directory (default: ~/.cache/repro), or "
                            "tcp://HOST:PORT of a shared `repro cache serve` "
                            "store")
    swp_p.add_argument("--fast", action="store_true",
                       help="shorter simulations (smoke mode)")
    swp_p.add_argument("--progress", action="store_true",
                       help="print per-point start/finish/retry/fail lines "
                            "with worker id, cache status and wall time")
    _add_manifest_dir_flag(swp_p)
    swp_p.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-point wall-clock budget; an attempt running "
                            "longer is killed and retried (needs --jobs >= 2)")
    swp_p.add_argument("--retries", type=int, default=2, metavar="N",
                       help="retries per point after the first attempt "
                            "(default: 2)")
    swp_p.add_argument("--resume", default=None, metavar="JOURNAL",
                       help="checkpoint journal: completed points are "
                            "appended as they finish and skipped when the "
                            "sweep is re-run against the same file")
    swp_p.add_argument("--allow-partial", action="store_true",
                       help="exit 0 even when some (not all) points failed")
    swp_p.add_argument("--report", default=None, metavar="FILE",
                       help="write the resilience report (attempts, "
                            "retries, failures) as JSON")
    swp_p.add_argument("--export", default=None, metavar="FILE",
                       help="write the sweep's values and measurements as "
                            "JSON (stable field order, for diffing runs)")
    _add_algorithm_flags(swp_p)

    trc_p = _scenario_verb(
        sub, "trace", _cmd_trace,
        "run a scenario with the tracer attached, export a Chrome "
        "trace-event JSON loadable in Perfetto / chrome://tracing")
    trc_p.add_argument("--out", default="trace.json", metavar="FILE",
                       help="output trace path (default: trace.json)")
    _add_window_flag(trc_p, f"the first {_TRACE_WINDOW_SECONDS:.0f}s of "
                            "the measurement window")
    trc_p.add_argument("--full", action="store_true",
                       help="record the entire run (large output)")
    trc_p.add_argument("--spans", action="store_true",
                       help="also record per-event dispatch spans")
    _add_manifest_dir_flag(trc_p)

    met_p = _scenario_verb(
        sub, "metrics", _cmd_metrics,
        "run a scenario metered and export the metric snapshot "
        "as a Prometheus text exposition")
    met_p.add_argument("--prom", default=None, metavar="FILE",
                       help="write the Prometheus text exposition here "
                            "(default: print it to stdout)")
    _add_manifest_dir_flag(met_p)

    _scenario_verb(
        sub, "profile", _cmd_profile,
        "run a scenario traced and print per-category wall-time "
        "attribution")

    par_p = _verb(
        sub, "parity", _cmd_parity,
        "golden-output parity: run the figure set metered and compare "
        "dynamics fingerprints against committed golden hashes")
    par_p.add_argument("--check", action="store_true",
                       help="compare against the golden file (default)")
    par_p.add_argument("--update", action="store_true",
                       help="re-run every case and rewrite the golden file")
    par_p.add_argument("--golden", default=None, metavar="FILE",
                       help="golden-hash file (default: tests/golden/parity.json)")
    par_p.add_argument("--case", action="append", default=None, metavar="NAME",
                       dest="cases", help="restrict to one case (repeatable)")
    par_p.add_argument("--diff-out", default=None, metavar="FILE",
                       help="write the per-figure drift report as JSON "
                            "(written on --check even when clean)")

    lint_p = _verb(sub, "lint", _cmd_lint,
                   "determinism & simulation-correctness static analysis")
    lint_p.add_argument("paths", nargs="*", default=None, metavar="PATH",
                        help="files or directories to lint (default: src)")
    lint_p.add_argument("--explain", default=None, metavar="CODE",
                        help="print the rationale for one rule code and exit")
    lint_p.add_argument("--list", action="store_true", dest="list_rules",
                        help="list all registered rule codes and exit")
    lint_p.add_argument("--format", default="text", dest="fmt",
                        choices=["text", "sarif"],
                        help="report format (default: text)")
    lint_p.add_argument("--output", default=None, metavar="FILE",
                        help="write the report to FILE (text summary still "
                             "goes to stdout)")

    wrk_p = sub.add_parser(
        "worker",
        help="distributed sweep worker agents (see `repro sweep --backend "
             "worker`)")
    wrk_sub = wrk_p.add_subparsers(dest="worker_command", required=True)
    _verb(wrk_sub, "serve", _cmd_worker,
          "serve sweep leases to one coordinator over stdio; stdout is "
          "reserved for the wire protocol")

    cache_p = sub.add_parser(
        "cache",
        help="result-cache maintenance and the shared cache store")
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    cserve_p = _verb(cache_sub, "serve", _cmd_cache,
                     "serve a result cache to sweep hosts over TCP "
                     "(`--cache-dir` elsewhere, `cache=tcp://HOST:PORT` here)")
    cserve_p.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="cache directory (default: ~/.cache/repro)")
    cserve_p.add_argument("--host", default="127.0.0.1",
                          help="bind address (default: 127.0.0.1)")
    cserve_p.add_argument("--port", type=int, default=0,
                          help="bind port (default: 0 = pick a free port, "
                               "printed on startup)")

    jrn_p = sub.add_parser(
        "journal",
        help="sweep resume-journal maintenance")
    jrn_sub = jrn_p.add_subparsers(dest="journal_command", required=True)
    cmp_p = _verb(jrn_sub, "compact", _cmd_journal,
                  "rewrite a JSONL journal keeping only the last entry per "
                  "cache key (atomic; torn tail lines are dropped)")
    cmp_p.add_argument("journal", help="path to the journal file")

    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS, experiment_ids

    for exp_id in experiment_ids():
        experiment = EXPERIMENTS.factory(exp_id)
        print(f"{exp_id:16}  {experiment.title} ({experiment.paper_ref})")
    return 0


def _print_registry(registry: Registry[Any]) -> int:
    """``repro algorithms`` / ``repro disciplines``: name and factory."""
    for name in registry.names():
        print(f"{name:12}  {registry.factory(name).__name__}")
    return 0


def _cmd_algorithms(args: argparse.Namespace) -> int:
    from repro.tcp.congestion import ALGORITHMS

    return _print_registry(ALGORITHMS)


def _cmd_disciplines(args: argparse.Namespace) -> int:
    from repro.net.disciplines import DISCIPLINES

    return _print_registry(DISCIPLINES)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.registry import run_experiment

    substitution = _substitution(args)
    cache = _experiment_cache(args)
    report = run_experiment(args.experiment, fast=args.fast, jobs=args.jobs,
                            cache=cache, substitution=substitution)
    print(report.format())
    _report_cache(cache)
    return 0 if report.passed else 1


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.viz.gallery import render_gallery

    _check_outputs(directories=(("--output", args.output),))
    for path in render_gallery(args.output):
        print(f"wrote {path}")
    return 0


def _cmd_run_config(args: argparse.Namespace) -> int:
    from repro.scenarios import load_config, run, substitute

    substitution = _substitution(args)
    result = run(substitute(load_config(args.config), **substitution))
    print(result.summary())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.registry import run_all
    from repro.experiments.report import format_reports_markdown

    _check_outputs(("--output", args.output))
    cache = _experiment_cache(args)
    reports = run_all(fast=args.fast, jobs=args.jobs, cache=cache)
    text = format_reports_markdown(
        reports, "EXPERIMENTS — paper vs measured (Zhang/Shenker/Clark 1991)"
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    _report_cache(cache)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_plot(args: argparse.Namespace) -> int:
    from repro.scenarios import run
    from repro.viz.ascii_plot import plot_two_series

    scenario = args.scenario
    result = run(_scenario_config(scenario))
    start, end = args.window or result.window
    q1 = result.queue_series("sw1->sw2")
    q2 = result.queue_series("sw2->sw1")
    print(plot_two_series(q1, q2, start, end,
                          title=f"{scenario}: queue sw1->sw2 (*) vs sw2->sw1 (o)"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import Tracer, build_manifest, export_chrome_trace, write_manifest
    from repro.scenarios import run

    _check_outputs(("--out", args.out),
                   directories=(("--manifest-dir", args.manifest_dir),))
    config = _scenario_config(args.scenario)
    if args.full:
        record_window = None
    elif args.window is not None:
        record_window = tuple(args.window)
    else:
        start, end = config.measurement_window
        record_window = (start, min(end, start + _TRACE_WINDOW_SECONDS))
    tracer = Tracer(record_spans=args.spans, record_hops=True,
                    window=record_window)
    result = run(config, trace=tracer)
    manifest = build_manifest(config, events_processed=result.events_processed,
                              wall_seconds=result.wall_seconds, tracer=tracer)
    shown = "full run" if record_window is None else (
        f"[{record_window[0]:.0f}s, {record_window[1]:.0f}s]")
    print(f"{args.scenario}: {result.events_processed} events in "
          f"{result.wall_seconds:.2f}s, recorded {tracer.hop_count} hops"
          + (f", {len(tracer.spans)} spans" if args.spans else "")
          + f" over {shown}")
    path = export_chrome_trace(tracer, args.out, traces=result.traces,
                               manifest=manifest)
    print(f"trace -> {path} (load in https://ui.perfetto.dev "
          "or chrome://tracing)")
    if args.manifest_dir:
        written = write_manifest(manifest, args.manifest_dir,
                                 artifacts={"chrome_trace": path})
        print(f"manifest -> {written}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import build_manifest, write_manifest
    from repro.obs.export import export_prometheus, prometheus_text
    from repro.scenarios import run

    prom, manifest_dir = args.prom, args.manifest_dir
    _check_outputs(("--prom", prom), directories=(("--manifest-dir", manifest_dir),))
    result = run(_scenario_config(args.scenario), metrics=True)
    snapshot = result.metrics
    assert snapshot is not None
    print(f"{args.scenario}: {result.events_processed} events in "
          f"{result.wall_seconds:.2f}s, "
          f"{len(snapshot['metrics'])} metric rows")
    artifacts: dict[str, str] = {}
    if prom:
        prom_path = export_prometheus(snapshot, prom)
        print(f"prometheus -> {prom_path}")
        artifacts["prometheus"] = str(prom_path)
    else:
        print(prometheus_text(snapshot), end="")
    if manifest_dir:
        manifest = build_manifest(result.config,
                                  events_processed=result.events_processed,
                                  wall_seconds=result.wall_seconds)
        written = write_manifest(manifest, manifest_dir, artifacts=artifacts)
        print(f"manifest -> {written}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import Tracer, format_profile
    from repro.scenarios import run

    tracer = Tracer(record_spans=False, record_hops=False)
    result = run(_scenario_config(args.scenario), trace=tracer)
    print(f"{args.scenario}: {result.config.name}")
    print(format_profile(tracer, wall_seconds=result.wall_seconds))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import functools
    import time

    from repro.parallel import ParallelSweepRunner
    from repro.resilience import ResilienceConfig
    from repro.scenarios import families

    if args.family == "conjecture":
        values: list[object] = list(families.CONJECTURE_CASES)
        make_config = (
            functools.partial(families.conjecture_config,
                              duration=60.0, warmup=40.0)
            if args.fast else families.conjecture_config)
        extract = families.utilization_extract
    elif args.family == "phase":
        values = list(families.PHASE_CASES)
        make_config = (
            functools.partial(families.manyflow_config,
                              duration=150.0, warmup=60.0)
            if args.fast else families.manyflow_config)
        extract = families.sync_extract
    else:
        values = list(families.BUFFER_SIZES)
        make_config = (
            functools.partial(families.buffer_config,
                              base_duration=80.0, base_warmup=30.0)
            if args.fast else families.buffer_config)
        extract = families.utilization_extract
    _check_outputs(("--report", args.report), ("--export", args.export),
                   directories=(("--manifest-dir", args.manifest_dir),),
                   journals=(("--resume", args.resume),))
    substitution = _substitution(args)
    if args.algorithm or args.queue:
        # Still a module-level function under partial application, so
        # spawn workers can re-import it and the cache can fingerprint it.
        make_config = functools.partial(
            families.substituted, make_config=make_config, **substitution)

    cache = None if args.no_cache else args.cache_dir or True  # runner's to open
    # Always allow_partial at the library level: the CLI wants the
    # partial results and the report either way, and decides the exit
    # code itself from the failure count.
    policy = ResilienceConfig(timeout=args.timeout, retries=args.retries,
                              journal=args.resume, allow_partial=True)
    backend: object = args.backend
    if args.backend == "worker":
        from repro.parallel.backends import WorkerBackend

        lease = {} if args.lease_ttl is None else {"lease_ttl": args.lease_ttl}
        backend = WorkerBackend(workers=args.workers, **lease)
    elif args.workers is not None or args.lease_ttl is not None:
        print("error: --workers/--lease-ttl need --backend worker",
              file=sys.stderr)
        return EXIT_CONFIG_ERROR
    done = [0]

    def on_progress(event) -> None:
        value = values[event.index]
        if event.phase == "finish":
            done[0] += 1
            numbers = "  ".join(
                f"{key}={number:.3f}"
                for key, number in sorted(event.measurements.items()))
            print(f"[{done[0]}/{len(values)}] {value}: {numbers}")
        if args.progress:
            tag = f"  point {event.index} ({value})"
            if event.phase == "start":
                attempt = (f" attempt {event.attempt}"
                           if event.attempt > 1 else "")
                print(f"{tag}: start{attempt} [{event.worker}]")
            elif event.phase == "retry":
                print(f"{tag}: attempt {event.attempt} failed, retrying "
                      f"[{event.worker}]")
            elif event.phase == "fail":
                print(f"{tag}: FAILED after {event.attempt} attempts "
                      f"[{event.worker}]")
            elif event.cached:
                print(f"{tag}: finish [{event.worker} hit]")
            else:
                print(f"{tag}: finish [{event.worker}] "
                      f"{event.wall_seconds:.2f}s "
                      f"{event.events_processed} events [cache miss]")

    runner = ParallelSweepRunner(jobs=args.jobs, cache=cache,
                                 resilience=policy, backend=backend)
    started = time.perf_counter()
    points = runner.run(make_config, values, extract, on_progress=on_progress,
                        manifest_dir=args.manifest_dir)
    elapsed = time.perf_counter() - started
    report, cache = runner.last_report, runner.cache

    if args.export:
        _write_json([{"value": str(point.value),
                      "measurements": point.measurements}
                     for point in points], args.export, "export")
    if args.report:
        _write_json(report.to_dict(), args.report, "report")

    status = (f"cache: {cache.hits} hits, {cache.misses} misses"
              if cache is not None else "cache: off")
    if args.resume:
        status += (f"; journal: {report.journal_skips} restored, "
                   f"recorded to {args.resume}")
    if report.retries:
        status += f"; {report.retries} retried attempts"
    print(f"{len(values)} points in {elapsed:.2f}s "
          f"(jobs={args.jobs}, {status})")

    if not report.failures:
        return EXIT_OK
    for failure in report.failures:
        print(f"error: point {failure.index} ({values[failure.index]}) "
              f"failed after {failure.attempts} attempt(s): "
              f"{failure.kind}: {failure.message}", file=sys.stderr)
    if len(report.failures) == len(values):
        print("error: every sweep point failed", file=sys.stderr)
        return EXIT_SWEEP_TOTAL
    print(f"error: {len(report.failures)}/{len(values)} points failed; "
          "completed measurements were "
          + ("journaled" if args.resume else "returned"), file=sys.stderr)
    return EXIT_OK if args.allow_partial else EXIT_SWEEP_PARTIAL


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.parallel.worker_agent import serve_stdio

    return serve_stdio()


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.parallel.cachestore import SharedCacheServer

    server = SharedCacheServer(args.cache_dir, host=args.host, port=args.port)
    print(f"repro cache store serving {server.cache.root} on "
          f"tcp://{server.host}:{server.port}", file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    return EXIT_OK


def _cmd_journal(args: argparse.Namespace) -> int:
    from repro.resilience import SweepJournal

    _check_outputs(journals=(("journal", args.journal),))
    journal = SweepJournal(args.journal)
    kept, dropped = journal.compact()
    if kept == 0 and dropped == 0 and not journal.path.exists():
        print(f"error: no journal at {args.journal}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(f"{args.journal}: kept {kept} entr{'y' if kept == 1 else 'ies'}, "
          f"dropped {dropped} superseded/damaged line(s)")
    return EXIT_OK


def _cmd_parity(args: argparse.Namespace) -> int:
    from repro.experiments import parity

    if args.update and args.check:
        print("error: --check and --update are mutually exclusive",
              file=sys.stderr)
        return EXIT_CONFIG_ERROR
    _check_outputs(("--diff-out", args.diff_out))
    golden_path = args.golden or parity.DEFAULT_GOLDEN_PATH
    cases = parity.parity_cases(args.cases)

    if args.update:
        def on_captured(name: str, digest: str) -> None:
            print(f"  {name}: {digest[:12]}")

        document = parity.capture(cases, on_case=on_captured)
        print(f"golden -> {parity.save_golden(document, golden_path)}")
        return EXIT_OK

    golden = parity.load_golden(golden_path)

    def on_checked(name: str, ok: bool) -> None:
        print(f"  {name}: {'ok' if ok else 'DRIFT'}")

    diffs = parity.check(golden, cases, on_case=on_checked)
    if args.diff_out:
        _write_json([{"name": diff.name, "expected": diff.expected,
                      "actual": diff.actual, "sections": diff.sections}
                     for diff in diffs], args.diff_out, "diff report")
    if not diffs:
        print(f"{len(cases)} scenario(s) bit-identical to golden")
        return EXIT_OK
    for diff in diffs:
        print(f"error: {diff.describe()}", file=sys.stderr)
    return EXIT_CHECK_FAILED


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import (
        explain,
        format_violations,
        iter_rules,
        lint_paths,
        render_sarif,
    )

    if args.explain is not None:
        print(explain(args.explain))
        return 0
    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.code}  {rule.name:32}  {rule.summary}")
        return 0
    _check_outputs(("--output", args.output))
    violations = lint_paths(args.paths or ["src"])
    if args.fmt == "sarif":
        payload = render_sarif(violations)
    else:
        payload = format_violations(violations) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(payload)
        print(format_violations(violations))
        print(f"report -> {args.output}")
    else:
        print(payload, end="")
    return 1 if violations else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
