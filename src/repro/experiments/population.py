"""Population-dynamics experiments: N-flow claims from the related work.

Two claims about flow *populations* — the regime the paper's two-flow
study opens onto:

- **Drop-tail synchronization vs. buffer size** (Malangadan/Raina/
  Ghosh, PAPERS.md): large drop-tail buffers drive the population into
  synchronized limit cycles — every overflow is a global loss event and
  the windows sawtooth in lock-step — while small buffers keep losses
  spread continuously through time with far weaker window coherence.
- **Mean-field behavior of TCP through RED** (McDonald/Reynier,
  PAPERS.md): as N grows, the ensemble-mean window of N flows through a
  RED buffer concentrates around the deterministic mean-field fixed
  point — the window the ODE model predicts from the RED drop profile
  and the shared queue.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any

import numpy as np

from repro.analysis.synchronization import SyncMode
from repro.experiments.report import Experiment, verdict_measure
from repro.scenarios import ScenarioResult, families
from repro.scenarios.config import QueueSpec, ScenarioConfig

__all__ = ["droptail_sync", "red_meanfield", "meanfield_fixed_point",
           "write_meanfield_figure"]

#: The RED operating point shared by the mean-field experiment and its
#: committed figure: thresholds well inside a 40-packet buffer and a
#: marking probability high enough that early discards (not overflow)
#: dominate.  These are the N=2 baseline values; the mean-field scaling
#: multiplies thresholds, buffer and bandwidth by N/2 so the per-flow
#: problem is identical at every N (the McDonald/Reynier limit).
RED_PARAMS = {"min_th": 5.0, "max_th": 15.0, "max_p": 0.1, "wq": 0.002}
RED_BUFFER = 40
MEANFIELD_BASE_N = 2


def _droptail_config(n: int, buffers: int, duration: float,
                     warmup: float) -> ScenarioConfig:
    """An N-flow drop-tail dumbbell with bandwidth scaled as ``n / 2``.

    The same population scaling as the mean-field experiment: per-flow
    capacity is held at the two-flow baseline so the buffer, not
    starvation, sets the regime.
    """
    config = families.manyflow_config((n, buffers, 0.0),
                                      duration=duration, warmup=warmup)
    return config.with_updates(
        name=f"{config.name}+scaled",
        bottleneck_bandwidth=config.bottleneck_bandwidth * n
        / MEANFIELD_BASE_N)


#: The drop-tail population size, and the buffers it is run at.
DROPTAIL_FLOWS = 8
DROPTAIL_BUFFERS = (5, 20, 80)


def ensemble_measure(result: ScenarioResult) -> dict:
    """The population's ensemble sync verdict with its statistics."""
    verdict = result.ensemble_sync()
    return {**verdict_measure(verdict), "coincidence": verdict.coincidence,
            "epochs": verdict.n_epochs}


def _grade_droptail_sync(report, points) -> None:
    verdicts = dict(zip(DROPTAIL_BUFFERS, points))
    for buffers, v in verdicts.items():
        report.add(
            f"B={buffers}: ensemble verdict",
            "incoherent at small B, lock-step at large B",
            f"{v['mode']} (corr {v['r']:.2f}, "
            f"coincidence {v['coincidence']:.2f}, "
            f"{v['epochs']} epochs)",
            None,
        )
    small, large = verdicts[5], verdicts[80]
    report.add("window coherence grows from B=5 to B=80",
               "strictly higher mean pairwise correlation",
               f"{small['r']:.2f} -> {large['r']:.2f}",
               large["r"] > small["r"])
    report.add("large-buffer ensemble is drop-synchronized",
               "drop-synchronized", large["mode"],
               large["mode"] == SyncMode.DROP_SYNCHRONIZED.value)
    report.add("small-buffer ensemble is not drop-synchronized",
               "any other mode", small["mode"],
               small["mode"] != SyncMode.DROP_SYNCHRONIZED.value)
    report.note(
        "the qualitative trend of Malangadan/Raina/Ghosh: large drop-tail "
        "buffers drive the population into a synchronized limit cycle "
        "(periodic global overflow events, windows sawtoothing in "
        "lock-step), while small buffers keep losses continuous and the "
        "windows only weakly coherent")


#: Drop-tail synchronization emerges with buffer size (N-flow).
droptail_sync = Experiment(
    "droptail_sync",
    title=f"Drop-tail synchronization vs. buffer size ({DROPTAIL_FLOWS} flows)",
    paper_ref="Malangadan/Raina/Ghosh (PAPERS.md); ROADMAP scale axis",
    configs=lambda duration, warmup: [
        _droptail_config(DROPTAIL_FLOWS, buffers, duration, warmup)
        for buffers in DROPTAIL_BUFFERS],
    measure=ensemble_measure, grade=_grade_droptail_sync,
    full=dict(duration=300.0, warmup=120.0),
    fast=dict(duration=150.0, warmup=60.0),
)


def meanfield_fixed_point(config: ScenarioConfig, n: int) -> tuple[float, float]:
    """The McDonald/Reynier-style mean-field fixed point for ``config``.

    Solves the deterministic balance ``N * W(p(q)) = C * R(q)`` for the
    equilibrium average queue ``q``: each of the N flows runs at the
    long-run average window ``W(p) = sqrt(3 / (2 p))`` packets (the
    square-root law for loss probability ``p``), the RED profile maps
    the queue to ``p(q)``, and together they must fill the bottleneck's
    bandwidth-delay product ``C * R(q)``.  Returns ``(W, q)``.

    When even ``max_p`` cannot bring demand down to capacity the queue
    saturates at ``max_th`` and the flows share capacity directly
    (``W = C * R(max_th) / N``).
    """
    params = dict(config.queue.params)
    min_th = float(params.get("min_th", 5.0))
    max_th = float(params.get("max_th", 15.0))
    max_p = float(params.get("max_p", 0.02))
    capacity = 1.0 / config.data_tx_time  # packets/second
    base_rtt = (2.0 * (2.0 * config.access_propagation
                       + config.bottleneck_propagation)
                + 2.0 * config.host_processing_delay
                + config.data_tx_time + config.ack_tx_time)

    def rtt(q: float) -> float:
        return base_rtt + q * config.data_tx_time

    def window(q: float) -> float:
        p = max_p * (q - min_th) / (max_th - min_th)
        if p <= 0.0:
            return math.inf
        return math.sqrt(1.5 / p)

    def excess(q: float) -> float:
        return n * window(q) - capacity * rtt(q)

    if excess(max_th - 1e-9) > 0.0:
        q = max_th
        return capacity * rtt(q) / n, q
    lo, hi = min_th, max_th
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    q = (lo + hi) / 2.0
    return window(q), q


def _red_config(n: int, duration: float, warmup: float) -> ScenarioConfig:
    """The mean-field-scaled N-flow RED scenario.

    Bandwidth, buffer and RED thresholds all scale as ``n / 2`` relative
    to the two-flow baseline, so per-flow capacity and the per-flow drop
    profile are constant across N — the regime in which the mean-field
    fixed point is the same deterministic window for every population
    size, and growing N tests *concentration* around it rather than
    starvation of an overcommitted pipe.
    """
    scale = n / MEANFIELD_BASE_N
    params = dict(RED_PARAMS)
    params["min_th"] = RED_PARAMS["min_th"] * scale
    params["max_th"] = RED_PARAMS["max_th"] * scale
    config = families.manyflow_config(
        (n, max(1, round(RED_BUFFER * scale)), 0.0),
        duration=duration, warmup=warmup)
    return config.with_updates(
        name=f"{config.name}+red",
        bottleneck_bandwidth=config.bottleneck_bandwidth * scale,
        queue=QueueSpec("red", params))


def meanfield_measure(result: ScenarioResult) -> dict:
    """The instantaneous ensemble-mean cwnd (sampled every 0.25 s)
    against the run's mean-field fixed point."""
    start, end = result.window
    ensemble = np.mean(np.stack([series.sample(start, end, 0.25)[1]
                                 for series in result.cwnd_series()]), axis=0)
    measured = float(np.mean(ensemble))
    n = result.config.n_connections
    predicted, q_star = meanfield_fixed_point(result.config, n)
    return {"n": n, "measured": measured,
            "cv": float(np.std(ensemble)) / measured,
            "predicted": predicted, "q_star": q_star,
            "error": abs(measured - predicted) / predicted}


def _grade_red_meanfield(report, points) -> None:
    for m in points:
        report.add(
            f"N={m['n']}: ensemble mean cwnd vs. prediction",
            f"{m['predicted']:.1f} pkts (q*={m['q_star']:.1f})",
            f"{m['measured']:.1f} pkts (rel. err. {m['error']:.0%}, "
            f"cv {m['cv']:.2f})",
            None,
        )
    by_n = {m["n"]: m for m in points}
    worst = max(m["error"] for m in points)
    largest, base = by_n[max(by_n)], by_n[min(by_n)]
    report.add(
        "measured within 2x of the mean-field window at every N",
        "ratio in [0.5, 2.0]",
        f"worst rel. err. {worst:.0%}",
        worst <= 1.0,
    )
    report.add(
        f"ensemble mean flattens: temporal cv at N={largest['n']} below "
        f"N={base['n']}",
        "fluctuation of the instantaneous ensemble mean shrinks",
        f"{base['cv']:.2f} -> {largest['cv']:.2f}",
        largest["cv"] < base["cv"],
    )
    report.note(
        "bandwidth, buffer and RED thresholds scale with N so the "
        "per-flow fixed point is the same at every population size; the "
        "square-root law W = sqrt(3/(2p)) assumes AIMD steady state, so "
        "Tahoe's timeout-and-slow-start recovery leaves the measured "
        "mean a stable ~15-30% below it, while the sawtooth of any one "
        "flow averages out across the growing ensemble — the "
        "instantaneous population mean flattens toward the deterministic "
        "mean-field trajectory")


#: N-flow RED ensemble mean vs. the mean-field prediction.
red_meanfield = Experiment(
    "red_meanfield",
    title="RED ensemble mean window vs. mean-field fixed point",
    paper_ref="McDonald/Reynier (PAPERS.md); ROADMAP scale axis",
    configs=lambda duration, warmup, ns: [
        _red_config(n, duration, warmup) for n in ns],
    measure=meanfield_measure, grade=_grade_red_meanfield,
    full=dict(duration=300.0, warmup=120.0, ns=(2, 4, 8, 16)),
    fast=dict(duration=150.0, warmup=60.0, ns=(2, 4, 8)),
)


def write_meanfield_figure(path: str | Path, *, cache: object = None,
                           **params: Any) -> Path:
    """Render the RED mean-field comparison as a committed text figure.

    ``params`` are :data:`red_meanfield`'s (``duration``, ``warmup``,
    ``ns``); with the ``cache`` the experiment ran with, the figure
    reads its points instead of simulating them again.
    """
    options = {**red_meanfield.full, **params}
    rows = red_meanfield.measurements(cache=cache, **options)
    lines = [
        "RED ensemble mean window vs. mean-field fixed point",
        f"(dumbbell; N=2 baseline B={RED_BUFFER}, RED {RED_PARAMS}; "
        f"bandwidth, buffer and thresholds scale with N/2; "
        f"duration={options['duration']:g}s, warmup={options['warmup']:g}s)",
        "",
        f"{'N':>4}  {'measured Wbar':>14}  {'mean-field Wbar':>16}  "
        f"{'q*':>6}  {'rel.err':>8}",
    ]
    for row in rows:
        lines.append(f"{row['n']:>4}  {row['measured']:>14.2f}  "
                     f"{row['predicted']:>16.2f}  {row['q_star']:>6.2f}  "
                     f"{row['error']:>8.0%}")
    lines.append("")
    scale_max = max(max(r["measured"], r["predicted"]) for r in rows)
    width = 48
    lines.append("measured (*) vs. predicted (|) windows, packets:")
    for row in rows:
        bar = [" "] * width
        m_col = min(int(row["measured"] / scale_max * (width - 1)), width - 1)
        p_col = min(int(row["predicted"] / scale_max * (width - 1)), width - 1)
        for col in range(m_col + 1):
            bar[col] = "*"
        bar[p_col] = "|"
        lines.append(f"  N={row['n']:<3} {''.join(bar)}")
    lines.append(f"        0{'':{width - 8}}{scale_max:.1f}")
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("\n".join(lines) + "\n")
    return target
