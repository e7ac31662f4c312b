"""The repo's benchmark: four workloads, end-to-end metrics, per-layer ledger.

Entry point: ``python3 benchmarks/suite/run.py`` (see ``README.md`` here).
"""
