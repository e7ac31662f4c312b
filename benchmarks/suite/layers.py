"""Per-layer micro-runs: what each package costs, measured from outside.

Every function returns ``{metric name: (value, unit)}`` for one layer
(layers are the package names under ``src/repro``).  Costs that cannot
be separated by a span from outside — net versus tcp versus monitors,
all interleaved inside ``Simulator.run`` — come from short *paired*
runs: the same flows wired with and without the layer, back to back in
alternating order, so machine drift cancels.  Numbers derived by
arithmetic from other metrics instead of being timed are marked
*computed* where they are produced and in the README.

Two reference scenarios stand in for the two core workloads so the
same micro-runs can be made whatever workload the traced run is for:
``two_way`` (the paper's figure 4, two Tahoe flows) and ``population``
(the N = 128 dumbbell).
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import pickle
import subprocess
import sys
import threading
from statistics import median
from time import perf_counter
from typing import Callable

from repro import obs, scenarios
from repro.engine import SimRandom, Simulator
from repro.experiments import parity
from repro.experiments.population import RED_PARAMS
from repro.net import Packet, PacketKind, build_dumbbell, create_queue
from repro.parallel import (
    ParallelSweepRunner,
    ResultCache,
    SharedCacheClient,
    SharedCacheServer,
    cache_key,
    config_hash,
)
from repro.parallel.protocol import decode_message, encode_message
from repro.resilience.journal import JournalEntry, SweepJournal
from repro.scenarios import families, paper
from repro.scenarios.config import ScenarioConfig
from repro.tcp import make_connection

from benchmarks.baseline_kernel import BaselineSimulator
from benchmarks.suite.harness import REPO_ROOT, Scratch, paired_pct, per_call_us, timed
from benchmarks.suite.workloads import (
    BACKEND_PATHS,
    JOBS,
    counted_sync_extract,
    population_configs,
    seeded_manyflow_config,
)

Metrics = dict[str, tuple[float, str]]

#: Hops a delivered data packet and its ACK cross on the dumbbell
#: (host -> sw1 -> sw2 -> host, both ways).
HOPS_PER_PACKET = 6


def two_way_config() -> ScenarioConfig:
    return paper.figure4(duration=100.0, warmup=30.0)


def population_config(seed: int, queue: str = "droptail") -> ScenarioConfig:
    return dict(population_configs(128, seed, 4.0, 1.5))[queue]


def _drain(built) -> float:
    seconds, _ = timed(lambda: built.sim.run(until=built.config.duration))
    return seconds


def _packets(connections) -> int:
    return sum(conn.receiver.rcv_nxt for conn in connections)


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
def _tick_seconds(sim, n: int) -> float:
    remaining = [n]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(0.001, tick)

    sim.schedule(0.001, tick)
    return timed(sim.run)[0]


def _cancel_seconds(sim, n: int) -> float:
    def churn() -> None:
        stale = None
        for _ in range(n):
            if stale is not None:
                stale.cancel()
            stale = sim.schedule(1_000.0, _nothing)
        sim.run()

    return timed(churn)[0]


def _nothing() -> None:
    return None


def _deep_heap_seconds(timers: int, events: int) -> float:
    """``events`` dispatches with ``timers`` self-rescheduling timers
    always pending — the calendar depth of an N-flow population."""
    sim = Simulator()
    fired = [0]

    def make(period: float) -> Callable[[], None]:
        def fire() -> None:
            fired[0] += 1
            sim.schedule(period, fire)
        return fire

    for index in range(timers):
        sim.schedule(0.001 * (index + 1), make(1.0 + index * 1e-4))
    return timed(lambda: sim.run(max_events=events))[0]


def engine_metrics() -> Metrics:
    ticks, pairs, deep = 100_000, 50_000, 100_000
    return {
        "engine.tick_events_per_s": (
            ticks / median(_tick_seconds(Simulator(), ticks) for _ in range(3)),
            "1/s"),
        "engine.cancel_pairs_per_s": (
            pairs / median(_cancel_seconds(Simulator(), pairs) for _ in range(3)),
            "1/s"),
        "engine.deep_heap_events_per_s": (
            deep / median(_deep_heap_seconds(4096, deep) for _ in range(3)),
            "1/s"),
        "engine.vs_frozen_kernel_pct": (
            paired_pct(lambda: _tick_seconds(BaselineSimulator(), 20_000),
                       lambda: _tick_seconds(Simulator(strict=False), 20_000),
                       reps=8, warmup=2), "%"),
    }


# ----------------------------------------------------------------------
# net
# ----------------------------------------------------------------------
class _CountingSink:
    def __init__(self) -> None:
        self.delivered = 0

    def deliver(self, packet: Packet) -> None:
        self.delivered += 1


def _cbr(n_packets: int, load: float, queue: str = "droptail",
         seed: int = 1) -> tuple[float, int]:
    """``(seconds, delivered)`` for a constant-rate source through the
    dumbbell at ``load`` times the bottleneck capacity."""
    sim = Simulator()
    factory = None
    if queue != "droptail":
        rng = SimRandom(seed).fork(1)

        def factory(name: str, capacity: int | None):
            return create_queue(queue, name, capacity, RED_PARAMS, rng=rng,
                                strict=sim.strict)

    net = build_dumbbell(sim, bottleneck_queue_factory=factory)
    sink = _CountingSink()
    net.host("host2").register_endpoint(1, PacketKind.DATA, sink)
    source = net.host("host1")
    interval = two_way_config().data_tx_time / load
    remaining = [n_packets]

    def inject() -> None:
        source.send(Packet(1, PacketKind.DATA, seq=remaining[0], size=500),
                    "host2")
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(interval, inject)

    sim.schedule(0.0, inject)
    seconds, _ = timed(sim.run)
    return seconds, sink.delivered


def net_metrics(seed: int) -> Metrics:
    n = 6_000
    # One injected packet is three forwarding hops plus the source's own
    # event; the figure is per nominal hop, source included.
    per_hop = 1e6 / (n * 3)
    light = median(_cbr(n, 0.5)[0] for _ in range(3))
    queued = [_cbr(n, 2.0) for _ in range(3)]
    red = median(_cbr(n, 2.0, "red", seed)[0] for _ in range(3))
    droptail, with_red = population_config(seed), population_config(seed, "red")

    def per_packet(config: ScenarioConfig) -> float:
        built = scenarios.build(config)
        return _drain(built) / _packets(built.connections)

    return {
        "net.hop_us": (light * per_hop, "us"),
        "net.queued_hop_us": (median(s for s, _ in queued) * per_hop, "us"),
        "net.red_hop_us": (red * per_hop, "us"),
        "net.drop_share": (1.0 - queued[0][1] / n, "1"),
        "net.red_overhead_pct": (
            paired_pct(lambda: per_packet(droptail),
                       lambda: per_packet(with_red), reps=4, warmup=1), "%"),
        "net.build_dumbbell_ms.n2": (
            per_call_us(lambda: build_dumbbell(Simulator()), 50, 3) / 1e3, "ms"),
        "net.build_dumbbell_ms.n128": (
            per_call_us(lambda: build_dumbbell(Simulator(), n_left=128,
                                               n_right=128), 3, 3) / 1e3, "ms"),
    }


# ----------------------------------------------------------------------
# tcp + metrics (monitors): the same flows with and without a TraceSet
# ----------------------------------------------------------------------
def build_unmonitored(config: ScenarioConfig):
    """``config``'s flows on its dumbbell with no ``TraceSet`` attached:
    engine + net + tcp and nothing else.  Drop-tail dumbbells only."""
    sim = Simulator()
    overrides = {flow.src: flow.access_propagation for flow in config.flows
                 if flow.access_propagation is not None}
    net = build_dumbbell(
        sim,
        bottleneck_bandwidth=config.bottleneck_bandwidth,
        bottleneck_propagation=config.bottleneck_propagation,
        buffer_packets=config.buffer_packets,
        access_bandwidth=config.access_bandwidth,
        access_propagation=config.access_propagation,
        host_processing_delay=config.host_processing_delay,
        access_buffer_packets=config.access_buffer_packets,
        n_left=config.n_left, n_right=config.n_right,
        access_propagation_overrides=overrides)
    rng = SimRandom(config.seed)
    connections = [
        make_connection(
            sim, net, conn_id=index, src_host=flow.src, dst_host=flow.dst,
            algorithm=flow.algorithm, params=flow.effective_params(),
            options=config.tcp,
            # Seeded start jitter, derived as scenarios.build derives it.
            start_time=(flow.start_time if flow.start_time is not None
                        else rng.fork(index).start_jitter(config.start_jitter)))
        for index, flow in enumerate(config.flows, start=1)]
    return sim, connections


def _unmonitored_run(config: ScenarioConfig) -> tuple[float, int, int]:
    sim, connections = build_unmonitored(config)
    seconds, _ = timed(lambda: sim.run(until=config.duration))
    return seconds, sim.events_processed, _packets(connections)


def core_split_metrics(seed: int, tick_rate: float, hop_us: float,
                       problems: list[str]) -> Metrics:
    """Where a delivered packet's microseconds go on the two reference
    scenarios: calendar, net, tcp, monitors, build.

    One absolute timing anchors each row — the unmonitored run (engine
    + net + tcp).  Above it, ``monitors`` is the *paired* cost of a
    ``TraceSet`` applied to the anchor, and ``build`` is what
    ``scenarios.run`` does besides draining the calendar.  Below it,
    ``calendar`` (event count over the bare tick rate) and ``net`` (hops
    times the bare hop cost) are *computed*, and ``tcp`` is what is left.
    """
    out: Metrics = {}
    for label, config, reps in (("two_way", two_way_config(), 6),
                                ("population", population_config(seed), 4)):
        bare = [_unmonitored_run(config) for _ in range(3)]
        _, bare_events, packets = bare[0]
        built = scenarios.build(config)
        _drain(built)
        if built.sim.events_processed != bare_events:
            problems.append(
                f"{label}: monitored run processed "
                f"{built.sim.events_processed} events, unmonitored "
                f"{bare_events}; the monitors are not observation-only")
        monitor_pct = paired_pct(
            lambda: _unmonitored_run(config)[0],
            lambda: _drain(scenarios.build(config)), reps=reps, warmup=1)
        build_us = per_call_us(lambda: scenarios.build(config), 1, 3) / packets
        events_per_packet = bare_events / packets
        unmonitored = median(seconds for seconds, _, _ in bare) / packets * 1e6
        calendar = events_per_packet / tick_rate * 1e6
        net = hop_us * HOPS_PER_PACKET
        monitors = unmonitored * monitor_pct / 100.0
        out.update({
            f"engine.events_per_packet.{label}": (events_per_packet, "count"),
            f"engine.calendar_us_per_packet.{label}": (calendar, "us"),
            f"net.us_per_packet.{label}": (net, "us"),
            f"tcp.unmonitored_us_per_packet.{label}": (unmonitored, "us"),
            f"tcp.self_us_per_packet.{label}": (
                unmonitored - calendar - net, "us"),
            f"metrics.monitor_overhead_pct.{label}": (monitor_pct, "%"),
            f"metrics.us_per_packet.{label}": (monitors, "us"),
            f"scenarios.build_us_per_packet.{label}": (build_us, "us"),
            f"scenarios.run_us_per_packet.{label}": (
                unmonitored + monitors + build_us, "us"),
        })
    return out


# ----------------------------------------------------------------------
# scenarios, analysis
# ----------------------------------------------------------------------
def scenarios_metrics(seed: int) -> Metrics:
    small, big = two_way_config(), population_config(seed)

    def roundtrip() -> ScenarioConfig:
        document = json.dumps(scenarios.config_to_dict(big))
        return scenarios.config_from_dict(json.loads(document))

    def build_and_drain() -> None:
        scenarios.build(small).sim.run(until=small.duration)

    return {
        "scenarios.build_ms.n2": (
            per_call_us(lambda: scenarios.build(small), 10, 3) / 1e3, "ms"),
        "scenarios.build_ms.n128": (
            per_call_us(lambda: scenarios.build(big), 1, 3) / 1e3, "ms"),
        "scenarios.run_overhead_pct": (
            paired_pct(lambda: timed(build_and_drain)[0],
                       lambda: timed(lambda: scenarios.run(small))[0],
                       reps=6, warmup=1), "%"),
        "scenarios.config_roundtrip_us.n128": (per_call_us(roundtrip, 3, 3), "us"),
    }


def analysis_metrics() -> Metrics:
    crowd = scenarios.run(families.manyflow_config((32, 40, 1.0),
                                                   duration=60.0, warmup=20.0))
    pair = scenarios.run(two_way_config())
    return {
        "analysis.sync_extract_ms": (
            per_call_us(lambda: families.sync_extract(crowd), 1, 5) / 1e3, "ms"),
        "analysis.utilization_extract_us": (
            per_call_us(lambda: families.utilization_extract(pair), 20, 3), "us"),
        "analysis.fingerprint_ms": (
            per_call_us(lambda: parity.fingerprint_hash(pair), 1, 3) / 1e3, "ms"),
    }


# ----------------------------------------------------------------------
# parallel, resilience
# ----------------------------------------------------------------------
def _spawned_noop() -> None:
    """Target of the spawn probe: unpickling it imports this module,
    and with it the program, which is what a supervised point pays."""


def _short_sweep_inputs(seed: int):
    make_config = functools.partial(seeded_manyflow_config, seed=seed,
                                    duration=10.0, warmup=3.0)
    values = list(families.phase_grid((4, 8), (10, 40), (0.0,)))
    return make_config, values


def _lease_message(config: ScenarioConfig) -> dict:
    return {"t": "lease", "lease_id": "L1", "index": 0, "attempt": 1,
            "config": scenarios.config_to_dict(config),
            "extract": {"module": counted_sync_extract.__module__,
                        "qualname": counted_sync_extract.__qualname__},
            "faults": [], "metered": False, "heartbeat": 3.75}


class CacheStoreProbe:
    """Loopback ``SharedCacheServer`` round trips, and its ``stop()``.

    ``stop()`` currently waits out a 5 s join; it is started on a thread
    so the other micro-runs proceed meanwhile (the wait is idle), and
    collected last.  No workload uses a shared store yet, so these link
    to no end-to-end metric.
    """

    def __init__(self, scratch: Scratch) -> None:
        server = SharedCacheServer(scratch.mkdtemp("store-")).start()
        client = SharedCacheClient(server.host, server.port)
        payload = {"utilization": 0.7, "epochs": 12.0}
        keys = [f"{index:064x}" for index in range(40)]
        started = perf_counter()
        for key in keys:
            client.put(key, payload)
        self.put_us = (perf_counter() - started) / len(keys) * 1e6
        started = perf_counter()
        hits = sum(client.get(key) is not None for key in keys)
        self.get_us = (perf_counter() - started) / len(keys) * 1e6
        self.complete = hits == len(keys)
        client.close()
        self.stop_s = 0.0
        self._thread = threading.Thread(target=self._stop, args=(server,),
                                        name="cachestore-stop")
        self._thread.start()

    def _stop(self, server: SharedCacheServer) -> None:
        started = perf_counter()
        server.stop()
        self.stop_s = perf_counter() - started

    def collect(self, problems: list[str]) -> Metrics:
        self._thread.join(30.0)
        if self._thread.is_alive() or not self.complete:
            problems.append("cachestore probe: stop() hung or a get missed")
        return {
            "parallel.cachestore_get_us": (self.get_us, "us"),
            "parallel.cachestore_put_us": (self.put_us, "us"),
            "parallel.cachestore_stop_s": (self.stop_s, "s"),
        }


def parallel_metrics(seed: int, scratch: Scratch) -> Metrics:
    small, big = two_way_config(), population_config(seed)
    cache = ResultCache(scratch.mkdtemp("cache-"))
    payload = {"utilization": 0.7, "epochs": 12.0}
    stored = cache_key(small, counted_sync_extract)
    cache.put(stored, payload, config=small)
    fresh = iter(f"{index:064x}" for index in range(10_000))
    lease = _lease_message(big)

    make_config, values = _short_sweep_inputs(seed)
    configs = [make_config(value) for value in values]

    def bare_loop() -> float:
        return timed(lambda: [counted_sync_extract(scenarios.run(config))
                              for config in configs])[0]

    def runner_loop() -> float:
        runner = ParallelSweepRunner(jobs=1)
        return timed(lambda: runner.run_configs(configs,
                                                counted_sync_extract))[0]

    context = multiprocessing.get_context("spawn")

    def spawn_once() -> float:
        started = perf_counter()
        process = context.Process(target=_spawned_noop)
        process.start()
        process.join()
        return perf_counter() - started

    out: Metrics = {
        "parallel.cache_key_us.n2": (
            per_call_us(lambda: cache_key(small, counted_sync_extract), 50, 3),
            "us"),
        "parallel.cache_key_us.n128": (
            per_call_us(lambda: cache_key(big, counted_sync_extract), 5, 3),
            "us"),
        "parallel.config_hash_us.n128": (
            per_call_us(lambda: config_hash(big), 5, 3), "us"),
        "parallel.cache_get_us": (
            per_call_us(lambda: cache.get(stored), 100, 3), "us"),
        "parallel.cache_put_us": (
            per_call_us(lambda: cache.put(next(fresh), payload, config=small),
                        50, 3), "us"),
        "parallel.runner_overhead_pct": (
            paired_pct(bare_loop, runner_loop, reps=6, warmup=1), "%"),
        "parallel.pickle_config_us.n128": (
            per_call_us(lambda: pickle.loads(pickle.dumps(big)), 5, 3), "us"),
        "parallel.protocol_roundtrip_us.n128": (
            per_call_us(lambda: decode_message(encode_message(lease)), 5, 3),
            "us"),
        "parallel.spawn_import_s": (
            median(spawn_once() for _ in range(3)), "s"),
    }
    # One small slice on each out-of-process path: what the path adds
    # per point over an ideal split of the serial work (computed).
    walls = {path: timed(lambda: scenarios.sweep(
        make_config, values, counted_sync_extract, **BACKEND_PATHS[path]))[0]
        for path in BACKEND_PATHS}
    for path in ("pool", "supervised", "fleet"):
        out[f"parallel.{path}_overhead_s_per_point"] = (
            (walls[path] - walls["serial"] / JOBS) / len(values), "s")
    return out


def resilience_metrics(seed: int, scratch: Scratch) -> Metrics:
    make_config, values = _short_sweep_inputs(seed)
    journal = SweepJournal(scratch.mkdtemp("journal-") / "sweep.jsonl")
    entry = JournalEntry(key="0" * 64, config_hash="1" * 64, run_id="bench-s1",
                         index=0, attempts=1, source="live",
                         measurements={"utilization": 0.7, "epochs": 12.0})

    def sweep_seconds(**keywords) -> float:
        return timed(lambda: scenarios.sweep(
            make_config, values, counted_sync_extract, jobs=1, **keywords))[0]

    try:
        append_us = per_call_us(lambda: journal.record(entry), 20, 3)
    finally:
        journal.close()
    return {
        "resilience.journal_append_us": (append_us, "us"),
        "resilience.supervised_serial_overhead_pct": (
            paired_pct(sweep_seconds,
                       lambda: sweep_seconds(resilience=True),
                       reps=6, warmup=1), "%"),
    }


# ----------------------------------------------------------------------
# obs, cli
# ----------------------------------------------------------------------
def obs_metrics(scratch: Scratch) -> Metrics:
    config = two_way_config()
    manifests = scratch.mkdtemp("manifest-")

    def run_seconds(**keywords) -> float:
        return timed(lambda: scenarios.run(config, **keywords))[0]

    def write_manifest() -> None:
        obs.write_manifest(
            obs.build_manifest(config, events_processed=1, wall_seconds=0.1),
            manifests)

    def over(**keywords) -> float:
        return paired_pct(run_seconds, lambda: run_seconds(**keywords),
                          reps=4, warmup=1)

    return {
        "obs.meter_overhead_pct": (over(metrics=True), "%"),
        "obs.tracer_overhead_pct": (
            over(trace=obs.Tracer(record_spans=False, record_hops=False)), "%"),
        "obs.tracer_spans_overhead_pct": (
            over(trace=obs.Tracer(record_spans=True)), "%"),
        "obs.manifest_write_us": (per_call_us(write_manifest, 10, 3), "us"),
    }


def cli_metrics() -> Metrics:
    def startup() -> float:
        started = perf_counter()
        subprocess.run([sys.executable, "-m", "repro", "list"], check=True,
                       cwd=REPO_ROOT, stdout=subprocess.DEVNULL)
        return perf_counter() - started

    return {"cli.startup_s": (median(startup() for _ in range(3)), "s")}


# ----------------------------------------------------------------------
# All layers
# ----------------------------------------------------------------------
def measure_layers(seed: int, scratch: Scratch,
                   problems: list[str]) -> Metrics:
    """Every workload-independent per-layer metric, in one pass."""
    store = CacheStoreProbe(scratch)
    out: Metrics = {}
    out.update(engine_metrics())
    out.update(net_metrics(seed))
    out.update(core_split_metrics(
        seed, out["engine.tick_events_per_s"][0], out["net.hop_us"][0],
        problems))
    out.update(scenarios_metrics(seed))
    out.update(analysis_metrics())
    out.update(parallel_metrics(seed, scratch))
    out.update(resilience_metrics(seed, scratch))
    out.update(obs_metrics(scratch))
    out.update(cli_metrics())
    out.update(store.collect(problems))
    return out
