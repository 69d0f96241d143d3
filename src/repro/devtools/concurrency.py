"""The concurrency & async hazard rules (REP101-REP103, REP105).

A second analysis pass in the same driver as the determinism rules
(``repro.devtools.lint``, which runs both): same suppression grammar,
same REP000 meta-rule, same reporters.  Every rule here is motivated by
a concurrency bug this repo actually shipped and later fixed by hand:

* REP101 — the ``RateLimiter.check``/``remaining`` split (PR 6) and the
  racy ``RequestScheduler`` budget accounting (PR 5): shared attributes
  read outside the lock that guards their writes.  Enforced through the
  opt-in ``# guarded-by: <lock>`` annotation grammar (see
  ``repro.devtools.scopes``).
* REP102 — the GC-stranded ``RoundAccumulator`` drain task (PR 7): the
  event loop keeps only *weak* references to tasks, so a
  ``create_task()`` result that is neither stored nor awaited can be
  collected mid-flight.
* REP103 — blocking primitives inside ``async def`` in the service
  layer: one ``time.sleep`` stalls every connection on the loop.
* REP105 — executor futures whose exceptions are silently dropped: a
  ``submit()`` result that nobody ever ``.result()``s or awaits
  swallows worker tracebacks whole.

Like the REP00x rules these are pure AST walks tuned to *this*
codebase; heuristic boundaries are documented per-rule in
``docs/static_analysis.md``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple, Type

from repro.devtools.rules import (
    ModuleContext,
    RawFinding,
    Rule,
    imported_names,
    module_aliases,
)
from repro.devtools.scopes import (
    EVENT_LOOP_GUARD,
    _own_nodes,
    attr_tokens,
    collect_class_scopes,
    nodes_with_guards,
)


# ----------------------------------------------------------------------
# REP101 — guarded-by lock discipline
# ----------------------------------------------------------------------
class GuardedAttributeDiscipline(Rule):
    code = "REP101"
    name = "guarded-attribute-discipline"
    summary = (
        "attributes declared `# guarded-by: <lock>` may only be touched "
        "inside `with self.<lock>:` (or from async methods, for the "
        "`<event-loop>` guard) outside __init__; methods annotated "
        "`# guarded-by:` must be called with the lock already held"
    )

    def check(self, module: ModuleContext) -> Iterator[RawFinding]:
        for scope in collect_class_scopes(module.tree, module.source):
            for method_name, method in scope.methods.items():
                if method_name == "__init__":
                    continue
                method_guard = scope.method_guards.get(method_name)
                initial = (
                    frozenset({method_guard})
                    if method_guard is not None
                    else frozenset()
                )
                # `<event-loop>` confinement: satisfied by being an
                # async method (or by the caller-side annotation).
                loop_confined = (
                    isinstance(method, ast.AsyncFunctionDef)
                    or method_guard == EVENT_LOOP_GUARD
                )
                for node, held in nodes_with_guards(method, initial):
                    if isinstance(node, ast.Attribute):
                        tokens = attr_tokens(node)
                        if len(tokens) != 2 or tokens[0] != "self":
                            continue
                        info = scope.guarded_attrs.get(tokens[1])
                        if info is None:
                            continue
                        guard, decl_line = info
                        if guard == EVENT_LOOP_GUARD:
                            if not loop_confined:
                                yield RawFinding(
                                    node.lineno,
                                    node.col_offset,
                                    f"`self.{tokens[1]}` is declared "
                                    f"`# guarded-by: {EVENT_LOOP_GUARD}` "
                                    f"(line {decl_line}) but "
                                    f"`{scope.name}.{method_name}` is "
                                    "not `async def`: a sync method can "
                                    "run on any thread, off the loop "
                                    "that owns this state",
                                )
                        elif guard not in held:
                            yield RawFinding(
                                node.lineno,
                                node.col_offset,
                                f"`self.{tokens[1]}` is declared "
                                f"`# guarded-by: {guard}` (line "
                                f"{decl_line}) but is accessed outside "
                                f"`with self.{guard}:` in "
                                f"`{scope.name}.{method_name}`; hold "
                                "the lock, or annotate the method "
                                f"`# guarded-by: {guard}` if callers "
                                "hold it",
                            )
                    elif isinstance(node, ast.Call):
                        tokens = attr_tokens(node.func)
                        if len(tokens) != 2 or tokens[0] != "self":
                            continue
                        callee = tokens[1]
                        required = scope.method_guards.get(callee)
                        if required is None or callee == method_name:
                            continue
                        if required == EVENT_LOOP_GUARD:
                            ok = loop_confined
                        else:
                            ok = required in held
                        if not ok:
                            yield RawFinding(
                                node.lineno,
                                node.col_offset,
                                f"`self.{callee}()` is annotated "
                                f"`# guarded-by: {required}` (caller "
                                "must hold it) but "
                                f"`{scope.name}.{method_name}` calls it "
                                "without",
                            )


# ----------------------------------------------------------------------
# Shared machinery: "is this call result kept anywhere?" (REP102/REP105)
# ----------------------------------------------------------------------
def _unkept_calls(
    module: ModuleContext,
    matches: "_CallMatcher",
) -> Iterator[Tuple[ast.Call, str]]:
    """Calls whose result is provably dropped.

    Two shapes fire: a bare expression statement, and an assignment to
    a plain local name that is never loaded again anywhere in the
    enclosing scope (nested defs included, so a future handed to a
    closure counts as kept).  Storing on ``self``/an attribute,
    awaiting, returning, or passing the result along all count as kept.
    """
    for scope in module.scopes:
        for stmt in scope.statements:
            if isinstance(stmt, ast.Expr):
                call = stmt.value
                if isinstance(call, ast.Call):
                    desc = matches(call)
                    if desc is not None:
                        yield call, desc
            elif isinstance(stmt, ast.Assign):
                if len(stmt.targets) != 1:
                    continue
                target = stmt.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                if not isinstance(stmt.value, ast.Call):
                    continue
                desc = matches(stmt.value)
                if desc is not None and target.id not in scope.loads:
                    yield stmt.value, desc


class _CallMatcher:
    """Callable: describe a matching call, or return ``None``."""

    def __call__(self, call: ast.Call) -> Optional[str]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# REP102 — weakly-referenced asyncio tasks
# ----------------------------------------------------------------------
_SPAWNERS = {"create_task", "ensure_future"}


class _TaskSpawnMatcher(_CallMatcher):
    def __init__(self, module: ModuleContext) -> None:
        self.from_asyncio = {
            local
            for local, orig in imported_names(module, "asyncio").items()
            if orig in _SPAWNERS
        }

    def __call__(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in _SPAWNERS:
            tokens = attr_tokens(func)
            return ".".join(tokens) if tokens else func.attr
        if isinstance(func, ast.Name) and func.id in self.from_asyncio:
            return func.id
        return None


class WeakTaskReference(Rule):
    code = "REP102"
    name = "weak-task-reference"
    summary = (
        "asyncio.create_task / ensure_future results must be stored on "
        "self/module state, awaited, or otherwise kept: the event loop "
        "holds only weak task references, so a dropped handle can be "
        "garbage-collected mid-flight"
    )

    def check(self, module: ModuleContext) -> Iterator[RawFinding]:
        matcher = _TaskSpawnMatcher(module)
        for call, desc in _unkept_calls(module, matcher):
            yield RawFinding(
                call.lineno,
                call.col_offset,
                f"task from `{desc}(...)` is neither stored nor "
                "awaited; the event loop keeps only a weak reference, "
                "so the task can be garbage-collected mid-flight — "
                "keep a strong reference (e.g. `self._task = ...`) and "
                "clear it when done",
            )


# ----------------------------------------------------------------------
# REP103 — blocking calls inside async service code
# ----------------------------------------------------------------------
_SUBPROCESS_FNS = {"run", "call", "check_call", "check_output", "Popen"}
_OS_BLOCKING = {"system", "popen"}


class BlockingCallInAsync(Rule):
    code = "REP103"
    name = "blocking-call-in-async"
    summary = (
        "async service code must not call blocking primitives "
        "(time.sleep, socket.*, open(), subprocess, os.system, "
        "urlopen): one stalled coroutine stalls every connection "
        "sharing the event loop"
    )

    def check(self, module: ModuleContext) -> Iterator[RawFinding]:
        if "service" not in module.path_parts:
            return
        tree = module.tree
        time_aliases = module_aliases(module, "time")
        sleep_names = {
            local
            for local, orig in imported_names(module, "time").items()
            if orig == "sleep"
        }
        socket_aliases = module_aliases(module, "socket")
        socket_names = set(imported_names(module, "socket"))
        subprocess_aliases = module_aliases(module, "subprocess")
        subprocess_names = {
            local
            for local, orig in imported_names(module, "subprocess").items()
            if orig in _SUBPROCESS_FNS
        }
        os_aliases = module_aliases(module, "os")
        urlopen_names = {
            local
            for local, orig in imported_names(
                module, "urllib.request"
            ).items()
            if orig == "urlopen"
        }

        def describe(call: ast.Call) -> Optional[str]:
            func = call.func
            chain = attr_tokens(func)
            if len(chain) == 2 and chain[0] in time_aliases and (
                chain[1] == "sleep"
            ):
                return "time.sleep()"
            if len(chain) == 2 and chain[0] in socket_aliases:
                return f"socket.{chain[1]}()"
            if len(chain) == 2 and chain[0] in subprocess_aliases:
                return f"subprocess.{chain[1]}()"
            if (
                len(chain) == 2
                and chain[0] in os_aliases
                and chain[1] in _OS_BLOCKING
            ):
                return f"os.{chain[1]}()"
            if len(chain) >= 2 and chain[-1] == "urlopen" and (
                "urllib" in chain or "request" in chain
            ):
                return "urllib.request.urlopen()"
            if isinstance(func, ast.Name):
                if func.id in sleep_names:
                    return "time.sleep()"
                if func.id in socket_names:
                    return f"socket.{func.id}()"
                if func.id in subprocess_names:
                    return f"subprocess.{func.id}()"
                if func.id in urlopen_names:
                    return "urlopen()"
                if func.id == "open":
                    return "open()"
            return None

        for fn in ast.walk(tree):
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            for node in _own_nodes(fn):
                if not isinstance(node, ast.Call):
                    continue
                desc = describe(node)
                if desc is not None:
                    yield RawFinding(
                        node.lineno,
                        node.col_offset,
                        f"blocking call {desc} inside `async def "
                        f"{fn.name}` stalls the event loop for every "
                        "connection; use the asyncio equivalent "
                        "(asyncio.sleep, open_connection, to_thread) "
                        "or move the work to a sync helper dispatched "
                        "via run_in_executor",
                    )


# ----------------------------------------------------------------------
# REP105 — silently dropped future exceptions
# ----------------------------------------------------------------------
class _FutureMatcher(_CallMatcher):
    def __call__(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr == "run_in_executor":
            tokens = attr_tokens(func)
            return ".".join(tokens) if tokens else func.attr
        if func.attr == "submit":
            receiver = attr_tokens(func)[:-1]
            if any(
                "executor" in t.lower() or "pool" in t.lower()
                for t in receiver
            ):
                return ".".join(receiver + ["submit"])
        return None


class DroppedFutureException(Rule):
    code = "REP105"
    name = "dropped-future-exception"
    summary = (
        "executor.submit / run_in_executor futures must be kept and "
        "consumed (.result(), await, or add_done_callback): a "
        "discarded future swallows the worker's exception, so a "
        "crashed shard looks like a healthy one"
    )

    def check(self, module: ModuleContext) -> Iterator[RawFinding]:
        matcher = _FutureMatcher()
        for call, desc in _unkept_calls(module, matcher):
            yield RawFinding(
                call.lineno,
                call.col_offset,
                f"future from `{desc}(...)` is discarded: if the "
                "worker raises, the exception is silently dropped — "
                "keep the future and call .result()/await it, or "
                "attach add_done_callback",
            )


#: Every concurrency rule class, in code order.
CONCURRENCY_RULES: List[Type[Rule]] = [
    GuardedAttributeDiscipline,
    WeakTaskReference,
    BlockingCallInAsync,
    DroppedFutureException,
]

#: code -> one-line summary for the REP1xx series.
CONCURRENCY_CODE_SUMMARIES: Dict[str, str] = {
    rule.code: rule.summary for rule in CONCURRENCY_RULES
}

