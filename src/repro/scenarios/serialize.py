"""Scenario (de)serialization to plain JSON-compatible dictionaries.

Lets experiments be described in files and replayed exactly::

    repro run-config my_scenario.json

Only simulation-relevant fields are serialized; everything absent from
a document takes the :class:`~repro.scenarios.config.ScenarioConfig`
default, so documents stay minimal and forward-compatible.

Flows carry an open ``algorithm`` string (a congestion-control registry
name) plus a ``params`` object, and the bottleneck discipline is an open
``queue`` object (``{"name": ..., "params": {...}}`` against the
queue-discipline registry).  The keys older documents used in their
place — a flow's ``kind`` and the scenario's ``random_drop`` flag — are
unknown fields like any other.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from repro.errors import ConfigurationError
from repro.scenarios.config import FlowSpec, QueueSpec, ScenarioConfig, TopologyKind
from repro.tcp.options import TcpOptions

__all__ = ["config_to_dict", "config_from_dict", "save_config", "load_config"]


def config_to_dict(config: ScenarioConfig) -> dict:
    """A JSON-compatible representation of ``config``."""
    return {
        "name": config.name,
        "description": config.description,
        "topology": config.topology.value,
        "n_switches": config.n_switches,
        "n_left": config.n_left,
        "n_right": config.n_right,
        "bottleneck_bandwidth": config.bottleneck_bandwidth,
        "bottleneck_propagation": config.bottleneck_propagation,
        "buffer_packets": config.buffer_packets,
        "access_buffer_packets": config.access_buffer_packets,
        "access_bandwidth": config.access_bandwidth,
        "access_propagation": config.access_propagation,
        "host_processing_delay": config.host_processing_delay,
        "duration": config.duration,
        "warmup": config.warmup,
        "seed": config.seed,
        "start_jitter": config.start_jitter,
        "queue": {
            "name": config.queue.name,
            "params": dict(config.queue.params),
        },
        "tcp": {
            field.name: getattr(config.tcp, field.name)
            for field in fields(TcpOptions)
        },
        "flows": [
            {
                "src": flow.src,
                "dst": flow.dst,
                "algorithm": flow.algorithm,
                "params": dict(flow.params),
                "window": flow.window,
                "start_time": flow.start_time,
                "access_propagation": flow.access_propagation,
            }
            for flow in config.flows
        ],
    }


def _queue_spec(queue_data: object) -> QueueSpec:
    """The document's ``queue`` object as a :class:`QueueSpec`."""
    if not isinstance(queue_data, dict):
        raise ConfigurationError(
            f"queue must be an object, got {type(queue_data).__name__}")
    raw = dict(queue_data)
    name = raw.pop("name", "droptail")
    params = raw.pop("params", {})
    if raw:
        raise ConfigurationError(f"unknown queue fields: {sorted(raw)}")
    if not isinstance(params, dict):
        raise ConfigurationError(
            f"queue params must be an object, got {type(params).__name__}")
    return QueueSpec(name=str(name), params=params)


def config_from_dict(document: dict) -> ScenarioConfig:
    """Rebuild a :class:`ScenarioConfig` from :func:`config_to_dict` output.

    Unknown keys are rejected (typo protection); missing keys take the
    dataclass defaults.
    """
    data = dict(document)
    if "name" not in data or "flows" not in data:
        raise ConfigurationError("scenario document needs 'name' and 'flows'")

    flow_specs = []
    for raw in data.pop("flows"):
        raw = dict(raw)
        algorithm = raw.pop("algorithm", None)
        params = raw.pop("params", {})
        if not isinstance(params, dict):
            raise ConfigurationError(
                f"flow params must be an object, got {type(params).__name__}")
        spec = dict(
            src=raw.pop("src"),
            dst=raw.pop("dst"),
            algorithm="tahoe" if algorithm is None else str(algorithm),
            params=params,
            window=raw.pop("window", None),
            start_time=raw.pop("start_time", 0.0),
            access_propagation=raw.pop("access_propagation", None),
        )
        if raw:
            raise ConfigurationError(f"unknown flow fields: {sorted(raw)}")
        flow_specs.append(FlowSpec(**spec))

    if "queue" in data:
        data["queue"] = _queue_spec(data["queue"])

    tcp_data = data.pop("tcp", {})
    known_tcp = {field.name for field in fields(TcpOptions)}
    unknown_tcp = set(tcp_data) - known_tcp
    if unknown_tcp:
        raise ConfigurationError(f"unknown tcp options: {sorted(unknown_tcp)}")
    tcp = TcpOptions(**tcp_data)

    if "topology" in data:
        try:
            data["topology"] = TopologyKind(data["topology"])
        except ValueError as exc:
            raise ConfigurationError(f"unknown topology: {exc}") from exc

    known = {field.name for field in fields(ScenarioConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown scenario fields: {sorted(unknown)}")
    return ScenarioConfig(flows=tuple(flow_specs), tcp=tcp, **data)


def save_config(config: ScenarioConfig, path: str | Path) -> Path:
    """Write ``config`` as JSON; returns the path."""
    target = Path(path)
    with target.open("w") as handle:
        json.dump(config_to_dict(config), handle, indent=2)
    return target


def load_config(path: str | Path) -> ScenarioConfig:
    """Load a scenario document written by :func:`save_config` (or by hand)."""
    source = Path(path)
    with source.open() as handle:
        return config_from_dict(json.load(handle))
