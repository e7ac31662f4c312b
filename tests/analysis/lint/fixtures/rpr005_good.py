# repro-lint-module: repro.scenarios.demo
"""Negative fixture: module-level policies resolve by name in any worker."""


def extract(result):
    return {"u": result.utilization}


class ModuleControl:
    pass


def run_family(sweep, values):
    # Extractors are the sweep runner's to refuse, not this rule's.
    return sweep(lambda value: value, values, lambda result: extract(result))


def install(register_algorithm):
    # A module-level class resolves by name in any re-importing worker.
    register_algorithm("module", ModuleControl)


class ModuleQueue:
    pass


def install_queues(register_discipline):
    # Queue disciplines resolve by name the same way algorithms do.
    register_discipline("module", ModuleQueue)
