# repro-lint-module: repro.scenarios.demo
"""Positive fixture: unpicklable callables crossing the sweep boundary (RPR005)."""


def run_family(sweep, build, values):
    def local_extract(result):
        return {"u": result.utilization}

    # The make_config lambda runs in the parent: only local_extract counts.
    return sweep(lambda v: build(v), values, local_extract)


def install(register_algorithm, base):
    class LocalControl(base):
        pass

    register_algorithm("local", LocalControl)
    register_algorithm("inline", factory=lambda: base())


def install_queues(register_discipline, base_queue):
    class LocalQueue(base_queue):
        pass

    register_discipline("local", LocalQueue)
    register_discipline("inline", factory=lambda name, cap: base_queue(name, cap))
