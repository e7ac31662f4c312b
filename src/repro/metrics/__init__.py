"""Instrumentation: time series, the per-port monitor, drop, cwnd and ACK logs."""

from repro.metrics.ack_log import AckArrival, AckArrivalLog
from repro.metrics.cwnd_log import CwndLog, LossEvent
from repro.metrics.drop_log import DropLog, DropRecord
from repro.metrics.port_monitor import (
    DepartureRecord,
    PortMonitor,
    SojournSample,
    effective_pipe_packets,
)
from repro.metrics.timeseries import StepSeries
from repro.metrics.trace import TraceSet

__all__ = [
    "StepSeries",
    "PortMonitor",
    "DepartureRecord",
    "DropLog",
    "DropRecord",
    "CwndLog",
    "LossEvent",
    "AckArrivalLog",
    "AckArrival",
    "TraceSet",
    "SojournSample",
    "effective_pipe_packets",
]
