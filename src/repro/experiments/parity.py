"""Golden-output parity: prove refactors leave the dynamics untouched.

The contract is that every paper scenario's output is *bit-identical
under the engine's tie rule*: events at the same time and priority run
in the order they were made, and a change that keeps that order must
reproduce every recorded fingerprint exactly.  This module pins that
contract down as data: each parity case runs one figure configuration
and reduces the run to a dynamics-only fingerprint — event counts,
queue-length series, cwnd series, ACK arrival times, drop records,
per-sender counters — hashed section by section so a regression report
can say *which* aspect of a run drifted, not merely that something did.

A parity run meters: :func:`capture` and :func:`check` run every case
with ``metrics=True``.  The harvest only reads the finished run, so one
``repro parity --check`` proves both that the dynamics are unchanged
and that metering is observation-only.

The fingerprint deliberately excludes the configuration's canonical
JSON: config schema migrations (e.g. ``FlowKind`` becoming an open
``algorithm`` string) legitimately change that document without
changing a single simulated event.  Only what the simulation *did* is
hashed.

Golden hashes live in ``tests/golden/parity.json``, captured on the
pre-refactor tree via ``repro parity --update`` and checked by the CI
``parity`` job (and a tier-1 smoke subset) via ``repro parity --check``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.errors import AnalysisError
from repro.scenarios import paper
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import ScenarioResult, run
from repro.units import SMALL_PIPE_PROPAGATION

__all__ = [
    "PARITY_GOLDEN_SCHEMA",
    "DEFAULT_GOLDEN_PATH",
    "ParityCase",
    "ParityDiff",
    "parity_cases",
    "fingerprint",
    "section_hashes",
    "fingerprint_hash",
    "capture",
    "check",
    "load_golden",
    "save_golden",
]

#: Version of the golden-file layout (not of the fingerprints).
PARITY_GOLDEN_SCHEMA = 1

#: Where the committed golden hashes live, relative to the repo root.
DEFAULT_GOLDEN_PATH = Path("tests") / "golden" / "parity.json"


@dataclass(frozen=True)
class ParityCase:
    """One named figure run pinned by golden hashes."""

    name: str
    make_config: Callable[[], ScenarioConfig]

    def build(self) -> ScenarioConfig:
        return self.make_config()


@dataclass
class ParityDiff:
    """The drift report for one scenario."""

    name: str
    expected: str | None
    actual: str
    #: Sections whose hashes differ (empty when the scenario is new or
    #: the golden file predates section hashes).
    sections: list[str] = field(default_factory=list)

    @property
    def missing(self) -> bool:
        return self.expected is None

    def describe(self) -> str:
        if self.missing:
            return f"{self.name}: no golden entry (run `repro parity --update`)"
        where = f" (drift in: {', '.join(self.sections)})" if self.sections else ""
        return (f"{self.name}: fingerprint {self.actual[:12]} != "
                f"golden {self.expected[:12]}{where}")


# ----------------------------------------------------------------------
# The figure set
# ----------------------------------------------------------------------
# Durations are reduced from the paper's steady-state runs: parity needs
# the full dynamic repertoire (slow start, loss epochs, fast retransmit,
# fixed-window phase locking), not statistical convergence, and a
# bit-identical prefix implies a bit-identical extension.

def _figure2() -> ScenarioConfig:
    return paper.figure2(duration=200.0, warmup=60.0)


def _figure2_small_pipe() -> ScenarioConfig:
    return paper.figure2_small_pipe(duration=200.0, warmup=60.0)


def _figure3() -> ScenarioConfig:
    return paper.figure3(duration=200.0, warmup=60.0)


def _figure4() -> ScenarioConfig:
    return paper.figure4(duration=200.0, warmup=60.0)


def _figure6() -> ScenarioConfig:
    return paper.figure6(duration=300.0, warmup=100.0)


def _figure8() -> ScenarioConfig:
    return paper.figure8(duration=200.0, warmup=100.0)


def _figure9() -> ScenarioConfig:
    return paper.figure9(duration=200.0, warmup=100.0)


def _zero_ack() -> ScenarioConfig:
    return paper.zero_ack_fixed_window(
        w1=30, w2=25, propagation=SMALL_PIPE_PROPAGATION,
        duration=200.0, warmup=100.0)


def _delayed_ack() -> ScenarioConfig:
    return paper.delayed_ack_two_way(duration=200.0, warmup=60.0)


def _reno_two_way() -> ScenarioConfig:
    return paper.reno_two_way(duration=200.0, warmup=60.0)


def _four_switch() -> ScenarioConfig:
    return paper.four_switch(duration=150.0, warmup=50.0)


_CASES: tuple[ParityCase, ...] = (
    ParityCase("figure2", _figure2),
    ParityCase("figure2-small-pipe", _figure2_small_pipe),
    ParityCase("figure3", _figure3),
    ParityCase("figure4", _figure4),
    ParityCase("figure6", _figure6),
    ParityCase("figure8", _figure8),
    ParityCase("figure9", _figure9),
    ParityCase("zero-ack", _zero_ack),
    ParityCase("delayed-ack", _delayed_ack),
    ParityCase("reno-two-way", _reno_two_way),
    ParityCase("four-switch", _four_switch),
)

#: The subset the tier-1 test suite runs on every push (one scenario per
#: sender family keeps the suite fast while still catching transport
#: drift immediately; CI's parity job covers the full set).
SMOKE_CASE_NAMES = ("figure2", "figure8", "reno-two-way")


def parity_cases(names: list[str] | None = None) -> list[ParityCase]:
    """The parity cases, optionally restricted to ``names``."""
    if names is None:
        return list(_CASES)
    by_name = {case.name: case for case in _CASES}
    missing = [name for name in names if name not in by_name]
    if missing:
        raise AnalysisError(
            f"unknown parity case(s) {missing}; have {sorted(by_name)}")
    return [by_name[name] for name in names]


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------

def _series_payload(series) -> dict:
    return {"times": [float(t) for t in series.times],
            "values": [float(v) for v in series.values]}


def fingerprint(result: ScenarioResult) -> dict:
    """A JSON-serializable dynamics-only snapshot of a finished run.

    Per-sender counters are fingerprinted in full only for connections
    with a congestion-window log (adaptive senders); fixed-window
    senders contribute the fields every sender family shares.  Keying
    off the trace set — not the sender's type — keeps the document
    identical across transport refactors.
    """
    traces = result.traces
    senders: dict[str, dict] = {}
    for conn in result.connections:
        sender = conn.sender
        entry: dict[str, object] = {
            "packets_sent": int(sender.packets_sent),
            "snd_una": int(sender.snd_una),
            "snd_nxt": int(sender.snd_nxt),
        }
        if conn.conn_id in traces.cwnds:
            entry.update(
                retransmits=int(sender.retransmits),
                fast_retransmits=int(sender.fast_retransmits),
                timeouts=int(sender.timeouts),
                loss_events=int(sender.loss_events),
                acks_received=int(sender.acks_received),
            )
        senders[str(conn.conn_id)] = entry
    return {
        "events_processed": int(result.events_processed),
        "utilizations": result.utilizations(),
        "queues": {name: _series_payload(monitor.lengths)
                   for name, monitor in sorted(traces.queues.items())},
        "cwnds": {str(conn_id): _series_payload(log.cwnd)
                  for conn_id, log in sorted(traces.cwnds.items())},
        "acks": {str(conn_id): [[float(a.time), int(a.ack)]
                                for a in log.arrivals]
                 for conn_id, log in sorted(traces.acks.items())},
        "drops": [[float(r.time), r.queue, int(r.conn_id), int(r.is_data),
                   int(r.seq), int(r.is_retransmit)]
                  for r in traces.drops.records],
        "senders": senders,
    }


def _digest(payload: object) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def section_hashes(result: ScenarioResult) -> dict[str, str]:
    """Per-section digests of :func:`fingerprint` (for drift reports)."""
    return {section: _digest(payload)
            for section, payload in fingerprint(result).items()}


def fingerprint_hash(result: ScenarioResult) -> str:
    """The scenario's parity digest: the golden file's ``hash``, a
    digest of the sorted :func:`section_hashes`."""
    return _digest(section_hashes(result))


# ----------------------------------------------------------------------
# Capture / check
# ----------------------------------------------------------------------

def capture(cases: list[ParityCase] | None = None,
            on_case: Callable[[str, str], None] | None = None) -> dict:
    """Run every case, metered, and return a golden document."""
    scenarios: dict[str, dict] = {}
    for case in cases or parity_cases():
        result = run(case.build(), metrics=True)
        overall = fingerprint_hash(result)
        scenarios[case.name] = {"hash": overall,
                                "sections": section_hashes(result)}
        if on_case is not None:
            on_case(case.name, overall)
    return {"schema": PARITY_GOLDEN_SCHEMA, "scenarios": scenarios}


def check(golden: dict, cases: list[ParityCase] | None = None,
          on_case: Callable[[str, bool], None] | None = None
          ) -> list[ParityDiff]:
    """Run every case, metered, against ``golden``; return the drifted
    ones.  A metering side effect on the dynamics shows up as drift."""
    if golden.get("schema") != PARITY_GOLDEN_SCHEMA:
        raise AnalysisError(
            f"unsupported parity golden schema {golden.get('schema')!r}; "
            f"expected {PARITY_GOLDEN_SCHEMA}")
    recorded = golden.get("scenarios", {})
    diffs: list[ParityDiff] = []
    for case in cases or parity_cases():
        result = run(case.build(), metrics=True)
        actual = fingerprint_hash(result)
        entry = recorded.get(case.name)
        ok = entry is not None and entry.get("hash") == actual
        if not ok:
            expected = None if entry is None else entry.get("hash")
            drifted = []
            if entry is not None:
                sections = section_hashes(result)
                old_sections = entry.get("sections", {})
                drifted = sorted(
                    name for name in set(sections) | set(old_sections)
                    if sections.get(name) != old_sections.get(name))
            diffs.append(ParityDiff(name=case.name, expected=expected,
                                    actual=actual, sections=drifted))
        if on_case is not None:
            on_case(case.name, ok)
    return diffs


def load_golden(path: str | Path = DEFAULT_GOLDEN_PATH) -> dict:
    """Read a golden document written by :func:`save_golden`."""
    source = Path(path)
    if not source.exists():
        raise AnalysisError(
            f"no parity golden file at {source}; capture one with "
            "`repro parity --update`")
    with source.open() as handle:
        return json.load(handle)


def save_golden(golden: dict, path: str | Path = DEFAULT_GOLDEN_PATH) -> Path:
    """Write a golden document (stable key order, trailing newline)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target
