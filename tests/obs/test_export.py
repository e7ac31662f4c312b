"""Unit tests for repro.obs.export: Chrome trace-event JSON, a trace's one format."""

import hashlib
import json

import pytest

from repro.obs import Tracer, build_manifest, chrome_trace_events, export_chrome_trace
from repro.scenarios import FlowSpec, ScenarioConfig, run


@pytest.fixture(scope="module")
def traced():
    config = ScenarioConfig(
        name="obs-export",
        flows=(
            FlowSpec(src="host1", dst="host2"),
            FlowSpec(src="host2", dst="host1"),
        ),
        duration=20.0,
        warmup=5.0,
        bottleneck_propagation=0.01,
    )
    tracer = Tracer(record_spans=True)
    result = run(config, trace=tracer)
    return tracer, result


class TestChromeTrace:
    def test_structure(self, traced):
        tracer, result = traced
        events = chrome_trace_events(tracer, traces=result.traces)
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "C"} <= phases
        # Metadata names every port track and both connection tracks.
        meta = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
        names = {e["args"]["name"] for e in meta}
        assert "sw1->sw2" in names
        assert "conn1" in names
        assert "conn2" in names

    def test_transmit_events_have_duration(self, traced):
        tracer, result = traced
        events = chrome_trace_events(tracer, traces=result.traces)
        tx = [e for e in events if e["ph"] == "X" and e["name"].startswith("tx")]
        assert tx
        assert all(e["dur"] > 0 for e in tx)

    def test_queue_and_cwnd_counters(self, traced):
        tracer, result = traced
        events = chrome_trace_events(tracer, traces=result.traces)
        counters = {e["name"] for e in events if e["ph"] == "C"}
        assert "sw1->sw2 queue" in counters
        assert "conn1 cwnd" in counters

    def test_timestamps_are_sim_microseconds(self, traced):
        tracer, result = traced
        events = chrome_trace_events(tracer)
        stamped = [e for e in events if "ts" in e]
        assert stamped
        horizon = result.config.duration * 1e6
        assert all(0 <= e["ts"] <= horizon for e in stamped)

    def test_every_hop_and_span_is_one_event(self, traced):
        # Each hop's identity and each span's fields ride in ``args``:
        # the document carries the whole tracer record.
        tracer, _ = traced
        events = chrome_trace_events(tracer)
        hops = [e["args"] for e in events if "uid" in e.get("args", {})]
        assert len(hops) == tracer.hop_count
        assert all({"uid", "conn", "kind", "seq"} <= set(args) for args in hops)
        spans = [e["args"] for e in events
                 if e["ph"] == "X" and "label" in e["args"]]
        assert len(spans) == len(tracer.spans) > 0
        assert all({"label", "calendar", "seq"} <= set(args) for args in spans)

    def test_file_export_and_manifest_embedding(self, traced, tmp_path):
        tracer, result = traced
        manifest = build_manifest(result.config,
                                  events_processed=result.events_processed,
                                  wall_seconds=result.wall_seconds,
                                  tracer=tracer)
        target = tmp_path / "trace.json"
        assert export_chrome_trace(tracer, target, traces=result.traces,
                                   manifest=manifest) == target
        document = json.loads(target.read_text())
        assert isinstance(document["traceEvents"], list)
        assert document["otherData"] == json.loads(json.dumps(manifest.to_dict()))

    def test_export_is_deterministic(self, traced, tmp_path):
        # Byte-identical traces for the same run: the exporter must not
        # leak wall-clock, hash ordering, or process history (packet
        # uids are rewound per build) into sim-time records.  Digests
        # keep a mismatch readable — the files run to megabytes.
        _, result = traced
        digests = []
        for name in ("a.json", "b.json"):
            tracer = Tracer(record_spans=False)
            rerun = run(result.config, trace=tracer)
            export_chrome_trace(tracer, tmp_path / name, traces=rerun.traces)
            digests.append(hashlib.sha256(
                (tmp_path / name).read_bytes()).hexdigest())
        assert digests[0] == digests[1]

