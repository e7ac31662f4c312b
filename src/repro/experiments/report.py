"""Reproduction experiments as data, and what they produce.

An :class:`Experiment` declares what one figure or claim of the paper
needs: the scenario configs it runs, one extractor applied to each
finished run, and a grader that turns the measurements into rows.
:func:`sweep_experiments` runs the points of any number of experiments
as one sweep through the parallel runner, so experiments get ``jobs=``
and ``cache=`` like every other sweep.

Every experiment produces an :class:`ExperimentReport`: a list of
:class:`MetricRow` entries each pairing the paper's reported value with
our measured value and a pass/fail verdict against a tolerance band.
Reports render as aligned text tables (for the CLI) and as Markdown
(for EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.synchronization import SyncVerdict
    from repro.scenarios import ScenarioConfig, ScenarioResult

__all__ = ["Experiment", "MetricRow", "ExperimentReport", "add_sync_row",
           "format_reports_markdown", "sweep_experiments", "verdict_measure"]


@dataclass(frozen=True)
class MetricRow:
    """One paper-vs-measured comparison."""

    metric: str
    paper: str
    measured: str
    ok: bool | None = None
    """True/False for checked claims; None for informational rows."""

    @property
    def verdict(self) -> str:
        """Human-readable pass marker."""
        if self.ok is None:
            return "·"
        return "PASS" if self.ok else "FAIL"


@dataclass
class ExperimentReport:
    """The outcome of one reproduction experiment."""

    exp_id: str
    title: str
    paper_ref: str
    rows: list[MetricRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, metric: str, paper: str, measured: str, ok: bool | None = None) -> None:
        """Append a comparison row."""
        self.rows.append(MetricRow(metric=metric, paper=paper, measured=measured, ok=ok))

    def note(self, text: str) -> None:
        """Append a free-form note."""
        self.notes.append(text)

    @property
    def passed(self) -> bool:
        """True when every checked row passed."""
        return all(row.ok is not False for row in self.rows)

    @property
    def checks(self) -> tuple[int, int]:
        """(passed, total) over rows that carry a verdict."""
        checked = [row for row in self.rows if row.ok is not None]
        return (sum(1 for row in checked if row.ok), len(checked))

    def format(self) -> str:
        """Render as an aligned text table."""
        passed, total = self.checks
        header = f"[{self.exp_id}] {self.title} ({self.paper_ref}) — {passed}/{total} checks pass"
        width_metric = max([len(r.metric) for r in self.rows] + [6])
        width_paper = max([len(r.paper) for r in self.rows] + [5])
        width_meas = max([len(r.measured) for r in self.rows] + [8])
        lines = [header, "-" * len(header)]
        lines.append(
            f"{'metric':<{width_metric}}  {'paper':<{width_paper}}  "
            f"{'measured':<{width_meas}}  verdict"
        )
        for row in self.rows:
            lines.append(
                f"{row.metric:<{width_metric}}  {row.paper:<{width_paper}}  "
                f"{row.measured:<{width_meas}}  {row.verdict}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def format_markdown(self) -> str:
        """Render as a Markdown section with a table."""
        passed, total = self.checks
        lines = [
            f"### `{self.exp_id}` — {self.title}",
            "",
            f"*Paper reference: {self.paper_ref}.  Checks: {passed}/{total} pass.*",
            "",
            "| metric | paper | measured | verdict |",
            "|---|---|---|---|",
        ]
        for row in self.rows:
            lines.append(
                f"| {row.metric} | {row.paper} | {row.measured} | {row.verdict} |"
            )
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"- {note}")
        lines.append("")
        return "\n".join(lines)


@dataclass(frozen=True)
class Experiment:
    """One reproduced figure or claim, declared as data.

    ``configs(**params)`` builds the scenarios; ``full`` and ``fast`` are
    the two keyword sets it is called with (``repro report`` and ``repro
    run`` use ``full``, ``--fast`` the shorter runs).  ``measure`` is the
    one extractor applied to every finished run: it is module-level,
    because it crosses to sweep workers and its source keys the result
    cache, and it returns JSON-native values — everything ``grade``
    needs, config facts included, so a cached point grades exactly like
    a live one.  ``grade(report, points)`` adds the rows from those
    measurement dicts (one per config, in order) against the bands of
    :mod:`repro.experiments.expectations`.
    """

    exp_id: str
    title: str
    paper_ref: str
    configs: Callable[..., Sequence[ScenarioConfig]]
    measure: Callable[[ScenarioResult], dict[str, Any]]
    grade: Callable[[ExperimentReport, list[dict[str, Any]]], None]
    full: Mapping[str, Any]
    fast: Mapping[str, Any]

    def plan(self, substitution: Mapping[str, Any] | None = None,
             **params: Any) -> list[ScenarioConfig]:
        """The configs to run: ``params`` override ``full``, and
        ``substitution`` (:func:`~repro.scenarios.substitute` keywords)
        is applied to each, so a counterfactual run is cached under its
        own key."""
        from repro.scenarios import substitute

        configs = list(self.configs(**{**self.full, **params}))
        if substitution:
            configs = [substitute(config, **substitution) for config in configs]
        return configs

    def report(self, points: list[dict[str, Any]]) -> ExperimentReport:
        """Grade ``points``, this experiment's measurements in plan order."""
        report = ExperimentReport(self.exp_id, self.title, self.paper_ref)
        self.grade(report, points)
        return report

    def measurements(self, *, jobs: int = 1, cache: object = None,
                     substitution: Mapping[str, Any] | None = None,
                     **params: Any) -> list[dict[str, Any]]:
        """Each planned config's measurements, in order, from one sweep
        (``jobs`` and ``cache`` are the sweep runner's)."""
        [points] = sweep_experiments([(self, self.plan(substitution, **params))],
                                     jobs=jobs, cache=cache)
        return points

    def __call__(self, **options: Any) -> ExperimentReport:
        """Run and grade: ``options`` as :meth:`measurements` takes them."""
        return self.report(self.measurements(**options))


def sweep_experiments(plans: Sequence[tuple[Experiment, list[ScenarioConfig]]],
                      *, jobs: int = 1, cache: object = None
                      ) -> list[list[dict[str, Any]]]:
    """Measure every planned config of every experiment in one sweep.

    One worker pool and one cache ledger serve all the points, and each
    point is measured by its own experiment's extractor.  Returns each
    experiment's measurements, in plan order.
    """
    from repro.parallel.runner import ParallelSweepRunner

    configs = [config for _, planned in plans for config in planned]
    extracts = [experiment.measure
                for experiment, planned in plans for _ in planned]
    measured = iter(ParallelSweepRunner(jobs=jobs, cache=cache)
                    .run_configs(configs, extracts))
    return [[next(measured) for _ in planned] for _, planned in plans]


def verdict_measure(verdict: SyncVerdict) -> dict[str, Any]:
    """A sync verdict as measurements: its mode's name and its ``r``."""
    return {"mode": verdict.mode.value, "r": verdict.correlation}


def add_sync_row(report: ExperimentReport, metric: str, paper_value: str,
                 verdict: dict[str, Any], ok: bool) -> None:
    """One graded row for a :func:`verdict_measure`: mode and ``r``."""
    report.add(metric, paper_value,
               f"{verdict['mode']} (r={verdict['r']:+.2f})", ok)


def format_reports_markdown(reports: list[ExperimentReport], title: str) -> str:
    """Concatenate reports into one Markdown document."""
    total_pass = sum(report.checks[0] for report in reports)
    total = sum(report.checks[1] for report in reports)
    lines = [
        f"# {title}",
        "",
        f"Overall: **{total_pass}/{total}** checked claims reproduce.",
        "",
    ]
    for report in reports:
        lines.append(report.format_markdown())
    return "\n".join(lines)
