"""The simulator-specific AST rules.

These encode determinism and simulation-correctness constraints that
generic linters cannot express because they need to know what the
discrete-event engine promises: a run is a pure function of its
``ScenarioConfig``, event order is ``(time, priority, sequence)``, and
the multiprocess sweep runner substitutes cached results for re-runs on
the assumption that both would have been identical.

Static analysis is necessarily approximate.  Each rule documents its
scope and known blind spots in its rationale; false positives are
suppressed per line with ``# repro: noqa[CODE] -- why`` (see
:mod:`repro.analysis.lint.noqa`).  An invariant that a tier-1 test
fails on deterministically — through the runtime sanitizer
(:mod:`repro.engine.sanitize`), the parity fingerprints or a refusal at
the sweep boundary — has no rule here; ``docs/analysis_methods.md``
records the mutations that decided which rules stay.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.model import Violation, rule
from repro.analysis.lint.runner import LintContext

__all__: list[str] = []


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _terminal_name(node: ast.expr) -> str | None:
    """The rightmost identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _violation(ctx: LintContext, node: ast.AST, code: str, message: str) -> Violation:
    return Violation(
        path=ctx.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        code=code,
        message=message,
    )


# ----------------------------------------------------------------------
# RPR001 — wall-clock time / unseeded randomness
# ----------------------------------------------------------------------
_WALL_CLOCK_TIME_ATTRS = {"time", "time_ns"}
_WALL_CLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}
_ALLOWED_RANDOM_ATTRS = {"Random"}  # seeded construction is the sanctioned path
_RNG_MODULE = "repro.engine.rng"


@rule(
    "RPR001",
    "wall-clock-or-unseeded-randomness",
    "No wall-clock time or unseeded randomness inside `repro` simulation code.",
    """\
A simulation run must be a pure function of its ScenarioConfig: the
parallel sweep cache substitutes an old result for a re-run, and the
paper's phase effects (in-/out-of-phase synchronization, ACK
compression) silently flip under tiny perturbations rather than
crashing.  `time.time()`, `datetime.now()` and module-level `random.*`
draws make a run depend on when and where it executed.  All randomness
must flow through the seeded `repro.engine.rng.SimRandom` stream (that
module is the single exemption); wall-clock reads for *reporting*
(e.g. `time.perf_counter()` around a sweep, for display only) are
allowed because they never enter simulation state.""",
)
def check_wall_clock(ctx: LintContext) -> Iterator[Violation]:
    if not ctx.module.startswith("repro"):
        return
    if ctx.module == _RNG_MODULE:
        return
    # alias -> source module, from `import x as y` / `from m import x as y`.
    imported_from: dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                imported_from[name.asname or name.name.split(".")[0]] = name.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for name in node.names:
                imported_from[name.asname or name.name] = f"{node.module}.{name.name}"

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # time.time() / time.time_ns()
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and imported_from.get(func.value.id, func.value.id) == "time"
                and func.attr in _WALL_CLOCK_TIME_ATTRS):
            yield _violation(ctx, node, "RPR001",
                             f"wall-clock read `time.{func.attr}()` in simulation "
                             "code; derive times from `Simulator.now`")
        # datetime.now() / datetime.datetime.now() / date.today()
        elif (isinstance(func, ast.Attribute)
              and func.attr in _WALL_CLOCK_DATETIME_ATTRS
              and _terminal_name(func.value) in {"datetime", "date"}):
            yield _violation(ctx, node, "RPR001",
                             f"wall-clock read `{ast.unparse(func)}()` in "
                             "simulation code")
        # random.<draw>() for any draw other than seeded Random construction
        elif (isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Name)
              and imported_from.get(func.value.id, func.value.id) == "random"
              and func.attr not in _ALLOWED_RANDOM_ATTRS):
            yield _violation(ctx, node, "RPR001",
                             f"unseeded randomness `random.{func.attr}()`; draw "
                             "from a seeded `repro.engine.rng.SimRandom` instead")
        # from random import randint; randint(...)
        elif (isinstance(func, ast.Name)
              and imported_from.get(func.id, "").startswith("random.")
              and imported_from[func.id].split(".", 1)[1] not in _ALLOWED_RANDOM_ATTRS):
            yield _violation(ctx, node, "RPR001",
                             f"unseeded randomness `{func.id}()` (imported from "
                             "`random`); use `repro.engine.rng.SimRandom`")
        # os.urandom / uuid.uuid4 — other entropy back doors
        elif (isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Name)
              and (func.value.id, func.attr) in {("os", "urandom"), ("uuid", "uuid4")}):
            yield _violation(ctx, node, "RPR001",
                             f"entropy source `{func.value.id}.{func.attr}()` in "
                             "simulation code")


# ----------------------------------------------------------------------
# RPR004 — unordered iteration in engine/net/obs hot paths
# ----------------------------------------------------------------------
_SET_METHODS = {"intersection", "union", "difference", "symmetric_difference"}
_DICT_VIEW_METHODS = {"values", "keys", "items"}
_SCHEDULING_CALLS = {"schedule", "schedule_at", "post", "send", "carry"}


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return True
    return False


def _body_schedules(nodes: list[ast.stmt]) -> bool:
    for statement in nodes:
        for node in ast.walk(statement):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SCHEDULING_CALLS):
                return True
    return False


@rule(
    "RPR004",
    "unordered-hot-path-iteration",
    "No iteration over set-ordered collections in engine/net/obs hot paths.",
    """\
Set iteration order depends on element hashes (PYTHONHASHSEED for
strings, allocation addresses for objects), so a loop over a set in the
event engine or the packet path can fire observers, accumulate floats,
or schedule events in a different order on each run or in each sweep
worker process — changing which synchronization mode the paper
scenarios land in, not crashing.  The observability layer
(`repro.obs.*`) is held to the same bar: its instrumentation registers
observers on the packet path and its exporters promise byte-stable
output for identical runs, so hash-ordered iteration there reorders
observer lists or trace records instead of events.  Inside
`repro.engine.*`, `repro.net.*` and `repro.obs.*`, iterate
lists/deques, or wrap the set in `sorted(...)`.  Dict views
(`.values()`/`.keys()`/`.items()`) are insertion-ordered in Python and
are flagged only when the loop body schedules events or sends packets —
insertion order is deterministic only if every insertion site is, so
scheduling from a view deserves a justified suppression or a sort.""",
)
def check_unordered_iteration(ctx: LintContext) -> Iterator[Violation]:
    if not (ctx.module.startswith("repro.engine")
            or ctx.module.startswith("repro.net")
            or ctx.module.startswith("repro.obs")):
        return
    for node in ast.walk(ctx.tree):
        iters: list[tuple[ast.expr, list[ast.stmt]]] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append((node.iter, node.body))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            iters.extend((gen.iter, []) for gen in node.generators)
        for iter_expr, body in iters:
            if _is_set_expression(iter_expr):
                yield _violation(
                    ctx, iter_expr, "RPR004",
                    "iteration over a set in an engine/net hot path; order is "
                    "hash-dependent — use a list or `sorted(...)`")
            elif (isinstance(iter_expr, ast.Call)
                  and isinstance(iter_expr.func, ast.Attribute)
                  and iter_expr.func.attr in _DICT_VIEW_METHODS
                  and _body_schedules(body)):
                yield _violation(
                    ctx, iter_expr, "RPR004",
                    f"loop over `.{iter_expr.func.attr}()` schedules events; "
                    "guarantee a deterministic insertion order or iterate a "
                    "sorted copy")


# ----------------------------------------------------------------------
# RPR005 — policies registered from module-level definitions
# ----------------------------------------------------------------------
# Both take ``(name, factory)``: the factory is argument 1 or ``factory=``.
_REGISTRY_ENTRYPOINTS = {"register_algorithm", "register_discipline"}


def _nested_definition_names(tree: ast.Module) -> set[str]:
    """Names of `def`s/`class`es defined inside a function (not importable)."""
    nested: set[str] = set()

    def visit(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function:
                    nested.add(child.name)
                visit(child, True)
            elif isinstance(child, ast.ClassDef):
                if inside_function:
                    nested.add(child.name)
                visit(child, inside_function)
            else:
                visit(child, inside_function)

    visit(tree, False)
    return nested


@rule(
    "RPR005",
    "nested-policy-registration",
    "Algorithm factories and queue disciplines must be module-level definitions.",
    """\
`register_algorithm(name, factory)` and `register_discipline(name,
factory)` file a factory under a name, and only the name crosses to a
sweep worker: a spawned worker rebuilds both registries by importing
their modules.  A lambda, nested function or class defined inside a
function exists only in the process that ran that function.  A forked
worker inherits it and the sweep is correct; a spawned one (macOS,
Windows, or a Linux parent with another thread alive) fails every point
with `unknown algorithm` (or `unknown queue discipline`).  Tier-1 and
CI sweep in forked workers, so nothing else notices.  Register classes
defined at module scope.

The rule sees the nesting, not when the registration runs: a
module-level class registered under an `if __name__ == "__main__":`
guard fails under spawn the same way and is not flagged.  Extractors
are not checked here: the sweep runner and `extract_reference` refuse
a lambda or nested extractor before any worker starts.""",
)
def check_nested_registration(ctx: LintContext) -> Iterator[Violation]:
    nested = _nested_definition_names(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _terminal_name(node.func)
        if name not in _REGISTRY_ENTRYPOINTS:
            continue
        candidates = [*node.args[1:2], *(keyword.value for keyword in node.keywords
                                         if keyword.arg == "factory")]
        for argument in candidates:
            if isinstance(argument, ast.Lambda):
                yield _violation(
                    ctx, argument, "RPR005",
                    f"lambda registered with `{name}()`; spawned workers "
                    "cannot re-import it — use a module-level definition")
            elif isinstance(argument, ast.Name) and argument.id in nested:
                yield _violation(
                    ctx, argument, "RPR005",
                    f"nested definition `{argument.id}` registered with "
                    f"`{name}()`; spawned workers re-importing the registry "
                    "cannot see it — move it to module level")


# ----------------------------------------------------------------------
# RPR007 — swallowed exceptions
# ----------------------------------------------------------------------
_CATCH_ALL_NAMES = {"BaseException"}


def _handler_body_is_inert(handler: ast.ExceptHandler) -> bool:
    """True when the handler does literally nothing (`pass`/`...`/docstring)."""
    for statement in handler.body:
        if isinstance(statement, ast.Pass):
            continue
        if (isinstance(statement, ast.Expr)
                and isinstance(statement.value, ast.Constant)):
            continue
        return False
    return True


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise)
               for statement in handler.body
               for node in ast.walk(statement))


@rule(
    "RPR007",
    "swallowed-exception",
    "No `except: pass` and no bare/`BaseException` handlers that fail to re-raise.",
    """\
The resilience layer guarantees that a failed sweep point is *reported*
— retried, journaled, surfaced as a PointFailure — never silently
absent: partial data from a sweep that pretends to be complete corrupts
the paper's phase diagrams more subtly than a crash ever could.  A
handler whose body is only `pass`/`...` discards the one signal that
something went wrong, and a bare `except:` (or `except BaseException:`)
that does not re-raise additionally eats `KeyboardInterrupt` — turning
Ctrl-C during a long sweep into a hang with orphaned worker processes.
Handle the exception with a real statement (count it, return a
fallback, `continue` a scan loop), name the exception types you mean,
or finish the handler with `raise`.  Typed handlers with real bodies
are never flagged; cleanup-then-`raise` catch-alls are fine.""",
)
def check_swallowed_exceptions(ctx: LintContext) -> Iterator[Violation]:
    if not ctx.module.startswith("repro"):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if _handler_body_is_inert(node):
            shown = (f"except {ast.unparse(node.type)}"
                     if node.type is not None else "bare except")
            yield _violation(
                ctx, node, "RPR007",
                f"`{shown}` body does nothing — the error vanishes; handle "
                "it with a real statement, or re-raise")
        elif ((node.type is None
               or _terminal_name(node.type) in _CATCH_ALL_NAMES)
              and not _handler_reraises(node)):
            shown = ("bare except" if node.type is None
                     else f"except {ast.unparse(node.type)}")
            yield _violation(
                ctx, node, "RPR007",
                f"`{shown}` swallows everything, KeyboardInterrupt included; "
                "name the exception types or end the handler with `raise`")


# ----------------------------------------------------------------------
# RPR008 — constant-hook probes inside dispatch loops
# ----------------------------------------------------------------------
_HOT_PATH_MODULE_PREFIXES = ("repro.engine", "repro.net", "repro.tcp")
_CONSTANT_HOOK_ATTRS = {"_tracer", "_strict", "strict"}
#: The attribute-name suffix of a bound observer fan-out.  Reading one per
#: iteration inside a hot loop defeats the bind-once contract it exists for.
_CONSTANT_HOOK_SUFFIX = "_fan"


@rule(
    "RPR008",
    "hook-probe-in-dispatch-loop",
    "No per-iteration `self._tracer`/`self._strict`/`self.*_fan` lookups "
    "inside engine/net/tcp loop bodies; bind them before the loop.",
    """\
The engine's fast-path contract is *bind once, branch never* (see
docs/performance.md): hooks that are constant for the duration of a
dispatch loop — the tracer, the sanitizer flag and bound observer
fan-outs (all fixed outside the loop; registration happens at
build/attach time and the tracer is sampled per run()) — are resolved to
locals BEFORE the loop, so the per-event cost of a disabled hook is
zero.  An `if self._strict:` or a `self._rtt_fan(...)` inside a loop
body re-probes per iteration, and those attribute loads are exactly the
death-by-a-thousand-cuts tax that once cost this engine 3x (790k -> 244k
chained events/s when tracing first went in).  No runtime check notices
one such load: it makes no call, so the call budget stays flat, and it
costs less than the perf gate's timing noise.  Hoist the read (`strict =
self._strict` / `fan = self._x_fan` before the loop) or call the bound
local instead.  Scoped to the hot packages (repro.engine, repro.net,
repro.tcp); static analysis cannot prove a given loop is hot, so
cold-loop false positives are suppressed with
`# repro: noqa[RPR008] -- why`.""",
)
def check_hook_probe_in_dispatch_loop(ctx: LintContext) -> Iterator[Violation]:
    if not ctx.module.startswith(_HOT_PATH_MODULE_PREFIXES):
        return
    seen: set[tuple[int, int]] = set()
    for loop in ast.walk(ctx.tree):
        if isinstance(loop, ast.While):
            region: list[ast.AST] = [loop.test, *loop.body, *loop.orelse]
        elif isinstance(loop, (ast.For, ast.AsyncFor)):
            region = [loop.iter, *loop.body, *loop.orelse]
        else:
            continue
        for part in region:
            for node in ast.walk(part):
                if not (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"):
                    continue
                if not (node.attr in _CONSTANT_HOOK_ATTRS
                        or node.attr.endswith(_CONSTANT_HOOK_SUFFIX)):
                    continue
                key = (node.lineno, node.col_offset)
                if key in seen:  # nested loops walk the same statements
                    continue
                seen.add(key)
                yield _violation(
                    ctx, node, "RPR008",
                    f"`self.{node.attr}` probed per loop iteration; it is "
                    "constant for the loop's duration — bind it to a local "
                    "(or call the bound fan-out) before the loop")
