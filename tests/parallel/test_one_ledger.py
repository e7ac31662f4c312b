"""A point is settled in one place, and the tree may not drift back.

``_Ledger.settle`` in ``parallel/runner.py`` is the only code that
assigns a result, journals it, caches it or announces it finished, and
backends reach sweep state only through the ledger's methods.  These are
structural facts, so they are checked on the syntax tree: a second
accounting path would compile, pass every behavioural test on the day it
is written, and rot from there.
"""

import ast
import dataclasses
from pathlib import Path

import repro
from repro.parallel.backends.base import BackendRequest

SRC = Path(repro.__file__).parent
PARALLEL = SRC / "parallel"
OBS = SRC / "obs"
RUNNER = PARALLEL / "runner.py"
BACKENDS = sorted((PARALLEL / "backends").glob("*.py"))


def _nodes(paths, kind):
    return [node for path in paths
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, kind)]


def _called(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", "")


def _phase(call: ast.Call):
    """``PointProgress``'s second field, given by keyword or position."""
    given = call.args[1:2] + [keyword.value for keyword in call.keywords
                              if keyword.arg == "phase"]
    return getattr(given[0], "value", None) if given else None


def _named(node: ast.expr, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def test_one_site_for_each_thing_settling_a_point_does():
    calls = _nodes([RUNNER, *BACKENDS], ast.Call)
    finishes = [call for call in calls if _called(call) == "PointProgress"
                and _phase(call) == "finish"]
    assert len(finishes) == 1
    called = [_called(call) for call in calls]
    assert called.count("JournalEntry") == 1
    assert called.count("put") == 1
    stores = [target
              for node in _nodes([RUNNER, *BACKENDS],
                                 (ast.Assign, ast.AugAssign, ast.AnnAssign))
              for target in getattr(node, "targets", None) or [node.target]
              if isinstance(target, ast.Subscript)
              and _named(target.value, "results")]
    assert len(stores) == 1


def test_backends_never_touch_the_report():
    touched = [f"{ast.unparse(node)} (line {node.lineno})"
               for node in _nodes(BACKENDS, ast.Attribute)
               if _named(node.value, "report")]
    assert touched == []


def test_the_backend_contract_is_seven_fields_and_no_callback_protocols():
    assert [field.name for field in dataclasses.fields(BackendRequest)] == [
        "pending", "configs", "extracts", "jobs", "ledger", "policy",
        "fault_plan"]
    base = [PARALLEL / "backends" / "base.py"]
    assert not any(_named(parent, "Protocol")
                   for node in _nodes(base, ast.ClassDef)
                   for parent in node.bases)


def _registers(call: ast.Call) -> bool:
    """A sink handed to the model: ``sender.on_ack(sink)``,
    ``port.on_transmission(sink)``, ``queue.observe(sink)`` — not a
    histogram's ``observe(value)``."""
    name = _called(call)
    return name.startswith("on_") or (
        name == "observe" and isinstance(call.func, ast.Attribute)
        and _named(call.func.value, "queue"))


def test_a_metered_run_registers_the_sinks_a_bare_run_does():
    """The meter is a function of the finished run: within ``repro.obs``
    only the tracer hands the model a sink, and the RTT samples the meter
    reports reach a journal through the ACK log's one registration."""
    registering = sorted({path.name for path in OBS.rglob("*.py")
                          for call in _nodes([path], ast.Call)
                          if _registers(call)})
    assert registering == ["tracer.py"]
    rtt = [path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
           for call in _nodes([path], ast.Call)
           if _called(call) == "on_rtt_sample"]
    assert rtt == ["metrics/ack_log.py"]


def test_run_configs_is_straight_line_code_over_the_ledger():
    (run_configs,) = [node for node in _nodes([RUNNER], ast.FunctionDef)
                      if node.name == "run_configs"]
    nested = [node for node in ast.walk(run_configs)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)) and node is not run_configs]
    assert nested == []
    guards = [node for path in PARALLEL.rglob("*.py")
              for node in _nodes([path], ast.Compare)
              if ast.unparse(node) == "report is not None"]
    assert guards == []
