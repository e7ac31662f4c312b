# repro-lint-module: repro.scenarios.demo
"""Positive fixture: policies registered from nested definitions (RPR005)."""


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
