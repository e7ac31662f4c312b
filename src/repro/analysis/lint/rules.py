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
:mod:`repro.analysis.lint.noqa`).  An invariant the runtime sanitizer
(:mod:`repro.engine.sanitize`) enforces has no rule here;
``docs/analysis_methods.md`` records the mutations that decided which
rules stay.
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
# RPR002 — float timestamp equality
# ----------------------------------------------------------------------
def _is_time_like(node: ast.expr) -> bool:
    name = _terminal_name(node)
    if name is None:
        return False
    lowered = name.lower()
    if lowered in {"now", "time", "expiry"}:
        return True
    return "time" in lowered and not lowered.endswith(("times", "timer"))


@rule(
    "RPR002",
    "timestamp-equality",
    "No `==`/`!=` between float simulation timestamps; use epsilon helpers.",
    """\
Virtual timestamps are floats accumulated through additions
(`now + delay`), so two paths to "the same" instant can differ in the
last ulp — e.g. a tick boundary computed as `3 * 0.5` versus
`0.5 + 0.5 + 0.5`.  Exact equality then silently takes the wrong branch
and the simulation lands in a different synchronization mode instead of
crashing.  Compare timestamps with `repro.units.times_close(a, b)` (or
explicit `<`/`>=` window logic).  The rule flags any `==`/`!=` whose
operand is a name or attribute containing `time` or named `now`;
counters like `busy_times` that are genuinely integral can suppress
with a justification.""",
)
def check_timestamp_equality(ctx: LintContext) -> Iterator[Violation]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            # `x == None` is an `is` bug, not a float comparison; E711 turf.
            if any(isinstance(o, ast.Constant) and o.value is None
                   for o in (left, right)):
                continue
            for side in (left, right):
                if _is_time_like(side):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield _violation(
                        ctx, node, "RPR002",
                        f"`{symbol}` on timestamp `{ast.unparse(side)}`; use "
                        "`repro.units.times_close()` or ordered comparisons")
                    break


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
# RPR005 — sweep callables must be module-level (picklable)
# ----------------------------------------------------------------------
_SWEEP_ENTRYPOINTS = {"sweep", "run_configs"}
# Argument slots that cross process boundaries under jobs > 1 (or cross
# the worker-agent wire protocol, which re-imports by reference).
# ``make_config`` runs in the parent; only the configs it returns cross.
_PICKLED_POSITIONS = {
    "sweep": (2,),              # extract
    "run_configs": (1,),        # extract (configs are data, not callables)
    "extract_reference": (0,),  # extract, shipped by module+qualname
}
_PICKLED_KEYWORDS = {"extract"}
# Callables shipped over the worker-agent protocol travel as a
# module+qualname reference and are re-imported on the agent, so the
# module-level discipline is the same as pickling — but the failure is
# remote (the agent's import error comes back as a lease error).
_PROTOCOL_ENTRYPOINTS = {"extract_reference"}
# Algorithm factories and queue-discipline classes resolve by *name* in
# re-importing worker processes, so they need the same module-level
# discipline as pickled callables.  Both take ``(name, factory)``.
_REGISTRY_ENTRYPOINTS = {"register_algorithm", "register_discipline"}
_REGISTRY_POSITIONS = (1,)
_REGISTRY_KEYWORDS = {"factory"}


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
    "unpicklable-sweep-callable",
    "Sweep callables and algorithm factories must be module-level.",
    """\
With `jobs > 1` the sweep runner ships the `extract` callable to its
worker processes, by pickle or by import reference.  Lambdas and
functions defined inside another function pickle by *reference to a
qualified name the worker cannot import*, so the sweep dies with an
opaque PicklingError — or worse, works in serial mode and fails only on
the parallel path CI doesn't exercise.  Define extractors as
module-level functions (see `repro.scenarios.families`).  `make_config`
and the progress callback `on_progress` run in the parent (only the
configs `make_config` returns cross the boundary, as data) and are
exempt.  `functools.partial` over a module-level function is fine and
is not flagged.

The same discipline applies to `register_algorithm(name, factory)` and
`register_discipline(name, factory)`: only the *name* crosses the
process boundary, and workers re-import modules to rebuild both
registries.  A lambda, nested function, or class defined inside a
function registered as a factory or discipline exists only in the
parent process — every worker resolving the name would fail (or
silently diverge).  Register strategy and queue classes defined at
module scope.

The distributed worker-agent protocol is stricter still: an extractor
handed to `extract_reference()` (what the `worker` backend ships with
every lease) crosses the wire as a bare module+qualname reference and
is re-imported on the agent — possibly on another host.  A lambda or
closure has no importable identity at all there, and the failure
surfaces remotely, as a lease error from the agent, instead of a local
PicklingError.""",
)
def check_sweep_callables(ctx: LintContext) -> Iterator[Violation]:
    nested = _nested_definition_names(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _terminal_name(node.func)
        if name in _SWEEP_ENTRYPOINTS:
            positions = _PICKLED_POSITIONS[name]
            keywords = _PICKLED_KEYWORDS
            what = "sweep workers cannot import it"
        elif name in _PROTOCOL_ENTRYPOINTS:
            positions = _PICKLED_POSITIONS[name]
            keywords = _PICKLED_KEYWORDS
            what = ("worker agents re-importing it over the wire protocol "
                    "cannot resolve it")
        elif name in _REGISTRY_ENTRYPOINTS:
            positions = _REGISTRY_POSITIONS
            keywords = _REGISTRY_KEYWORDS
            what = "worker processes re-importing the registry cannot see it"
        else:
            continue
        candidates: list[ast.expr] = []
        for position in positions:
            if len(node.args) > position:
                candidates.append(node.args[position])
        candidates.extend(
            keyword.value for keyword in node.keywords
            if keyword.arg in keywords
        )
        for argument in candidates:
            if isinstance(argument, ast.Lambda):
                yield _violation(
                    ctx, argument, "RPR005",
                    f"lambda passed to `{name}()`; lambdas never survive the "
                    "process boundary — use a module-level definition")
            elif isinstance(argument, ast.Name) and argument.id in nested:
                yield _violation(
                    ctx, argument, "RPR005",
                    f"nested definition `{argument.id}` passed to `{name}()`; "
                    f"{what} — move it to module level")


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
