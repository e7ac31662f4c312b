"""repro — a reproduction of Zhang, Shenker & Clark (SIGCOMM 1991).

"Observations on the Dynamics of a Congestion Control Algorithm: The
Effects of Two-Way Traffic."

The package provides:

- ``repro.engine`` — a deterministic discrete-event simulator;
- ``repro.net`` — links, drop-tail FIFO switches, hosts, topologies;
- ``repro.tcp`` — one sender core plus Tahoe, Reno, AIMD, fixed and
  paced window strategies;
- ``repro.metrics`` — queue/cwnd/drop/utilization instrumentation;
- ``repro.analysis`` — ACK-compression, clustering, synchronization-mode
  and congestion-epoch analyses;
- ``repro.scenarios`` — the paper's named configurations;
- ``repro.parallel`` — multiprocess sweep execution + on-disk result cache;
- ``repro.experiments`` — paper-vs-measured reproduction harness;
- ``repro.viz`` — ASCII strip charts, histograms and CSV export.

Quickstart::

    from repro import scenarios
    result = scenarios.run(scenarios.paper.figure4())
    print(result.summary())
"""

from repro import (
    analysis,
    engine,
    experiments,
    metrics,
    net,
    parallel,
    scenarios,
    tcp,
    viz,
)
from repro.engine import Simulator
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    ProtocolError,
    ReproError,
    SimulationError,
)
from repro.net import Network, build_chain, build_dumbbell
from repro.scenarios import ScenarioConfig, ScenarioResult, run
from repro.tcp import Sender, TcpOptions

__version__ = "1.0.0"

__all__ = [
    "engine",
    "net",
    "tcp",
    "metrics",
    "analysis",
    "parallel",
    "scenarios",
    "experiments",
    "viz",
    "Simulator",
    "Network",
    "build_dumbbell",
    "build_chain",
    "Sender",
    "TcpOptions",
    "ScenarioConfig",
    "ScenarioResult",
    "run",
    "ReproError",
    "SimulationError",
    "ConfigurationError",
    "ProtocolError",
    "AnalysisError",
    "__version__",
]
