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


def _object(value: object, what: str) -> dict:
    """``value`` itself, or a :class:`ConfigurationError` naming ``what``
    when it is not a JSON object."""
    if not isinstance(value, dict):
        raise ConfigurationError(
            f"{what} must be an object, got {type(value).__name__}")
    return value


def _queue_spec(queue_data: object) -> QueueSpec:
    """The document's ``queue`` object as a :class:`QueueSpec`."""
    raw = dict(_object(queue_data, "queue"))
    name = raw.pop("name", "droptail")
    params = _object(raw.pop("params", {}), "queue params")
    if raw:
        raise ConfigurationError(f"unknown queue fields: {sorted(raw)}")
    return QueueSpec(name=str(name), params=params)


def config_from_dict(document: dict) -> ScenarioConfig:
    """Rebuild a :class:`ScenarioConfig` from :func:`config_to_dict` output.

    Unknown keys are rejected (typo protection); missing keys take the
    dataclass defaults.
    """
    data = dict(_object(document, "scenario document"))
    if "name" not in data or "flows" not in data:
        raise ConfigurationError("scenario document needs 'name' and 'flows'")
    flows = data.pop("flows")
    if not isinstance(flows, list):
        raise ConfigurationError(
            f"flows must be a list, got {type(flows).__name__}")

    flow_specs = []
    for raw in flows:
        raw = dict(_object(raw, "flow"))
        if "src" not in raw or "dst" not in raw:
            raise ConfigurationError("flow needs 'src' and 'dst'")
        algorithm = raw.pop("algorithm", None)
        params = _object(raw.pop("params", {}), "flow params")
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

    tcp_data = _object(data.pop("tcp", {}), "tcp")
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
    """Load a scenario document written by :func:`save_config` (or by hand).

    A file that cannot be read or is not JSON raises
    :class:`ConfigurationError`, like a malformed document.
    """
    source = Path(path)
    try:
        with source.open() as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read {source}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigurationError(f"{source} is not JSON: {exc}") from exc
    return config_from_dict(document)
