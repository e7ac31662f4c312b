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
- ``repro.viz`` — ASCII strip charts, histograms and CSV export;
- ``repro.cli`` — the ``repro`` command: an argparse parser whose verbs
  each carry their handler.

Importing ``repro`` loads none of them: import each name from its home
module, e.g. ``from repro.scenarios import run`` or
``from repro.errors import ReproError``.

Quickstart::

    from repro.scenarios import paper, run
    result = run(paper.figure4())
    print(result.summary())
"""

__version__ = "1.0.0"
