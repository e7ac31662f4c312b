# repro-lint-module: repro.scenarios.demo
"""Negative fixture: module-level sweep callables pickle by reference."""
import functools


def make_config(value, duration=100.0):
    return (value, duration)


def extract(result):
    return {"u": result.utilization}


class ModuleControl:
    pass


def run_family(sweep, values):
    # partial over a module-level function is fine; on_progress stays in
    # the parent process so a lambda there is exempt.
    return sweep(functools.partial(make_config, duration=50.0), values,
                 extract, on_progress=lambda event: print(event))


def install(register_algorithm):
    # A module-level class resolves by name in any re-importing worker.
    register_algorithm("module", ModuleControl)


class ModuleQueue:
    pass


def install_queues(register_discipline):
    # Queue disciplines resolve by name the same way algorithms do.
    register_discipline("module", ModuleQueue)
