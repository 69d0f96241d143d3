"""The determinism rules (REP001-REP006).

Each rule is a class with a ``code``, a one-line ``summary``, and a
``check(module)`` generator yielding raw findings.  Rules are pure AST
walks over one module plus a little cross-file project context (the
flag-matrix test text for REP006); they never import the code under
analysis, so linting a file can never execute it.

The rules are deliberately tuned to *this* codebase's determinism
contract — the production engine and the ``use_vectorized_step=False``
oracle must be bit-identical, which ``tests/test_perf_regression.py``
enforces — not to Python in general.  Heuristic boundaries (e.g. REP003 only recognises
RNG receivers whose name contains ``rng``) are documented in
``docs/static_analysis.md`` next to each rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

from repro.devtools.scopes import (
    FunctionScope,
    _own_nodes,
    attr_tokens,
    function_scopes,
)

#: Meta-code: lint integrity itself (unparseable file, suppression with no
#: justification, suppression that matches no finding).  Emitted by the
#: driver in ``repro.devtools.lint``, not by a rule class.
META_CODE = "REP000"


@dataclass(frozen=True)
class RawFinding:
    """A rule hit before suppression handling: location + message."""

    line: int
    col: int
    message: str


@dataclass
class ProjectContext:
    """Cross-file facts a rule may consult.

    ``flag_matrix_text`` is the concatenated source of the flag-matrix
    equivalence tests (``tests/test_perf_regression.py`` and
    ``benchmarks/bench_perf_engine.py``), or ``None`` when linting a tree
    that has no such files (fixtures, tmp dirs) — REP006 then skips its
    matrix-membership check but keeps the dead-flag check.
    """

    flag_matrix_text: Optional[str] = None


@dataclass
class ModuleContext:
    """One parsed module handed to every rule."""

    display_path: str
    path_parts: Tuple[str, ...]
    tree: ast.Module
    source: str
    project: ProjectContext
    #: Every ``import`` and ``from ... import`` statement of the module,
    #: nested ones included, in ``ast.walk`` order: collected once and
    #: read by :func:`module_aliases` and :func:`imported_names`.
    imports: List[Union[ast.Import, ast.ImportFrom]] = field(init=False)
    #: The module and each ``def`` as scopes with their own statements
    #: and loaded names: built once, read by REP102 and REP105.
    scopes: List[FunctionScope] = field(init=False)

    def __post_init__(self) -> None:
        self.imports = [
            node
            for node in ast.walk(self.tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        self.scopes = function_scopes(self.tree)


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def module_aliases(module: ModuleContext, name: str) -> Set[str]:
    """Names the top-level module *name* is imported as (``np`` etc.)."""
    found: Set[str] = set()
    for node in module.imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == name or alias.name.startswith(
                    name + "."
                ):
                    found.add((alias.asname or alias.name).split(".")[0])
    return found


def imported_names(module: ModuleContext, name: str) -> Dict[str, str]:
    """``from name import a as b`` -> ``{"b": "a"}``."""
    found: Dict[str, str] = {}
    for node in module.imports:
        if isinstance(node, ast.ImportFrom):
            if node.module == name and node.level == 0:
                for alias in node.names:
                    found[alias.asname or alias.name] = alias.name
    return found


class Rule:
    """Base class: subclasses set the class attributes and ``check``."""

    code: str = ""
    name: str = ""
    summary: str = ""

    def check(self, module: ModuleContext) -> Iterator[RawFinding]:
        raise NotImplementedError
        yield  # pragma: no cover - makes every check a generator


# ----------------------------------------------------------------------
# REP001 — unseeded randomness
# ----------------------------------------------------------------------
#: numpy RNG constructors that are fine *when given an explicit seed*.
_NP_SEEDED_CTORS = {
    "default_rng",
    "Generator",
    "RandomState",
    "SeedSequence",
    "PCG64",
    "Philox",
    "MT19937",
}


class UnseededRandomness(Rule):
    code = "REP001"
    name = "unseeded-randomness"
    summary = (
        "randomness must flow through explicitly seeded random.Random "
        "instances, never module-level random.* or np.random global state"
    )

    def check(self, module: ModuleContext) -> Iterator[RawFinding]:
        tree = module.tree
        random_aliases = module_aliases(module, "random")
        numpy_aliases = module_aliases(module, "numpy")
        from_random = imported_names(module, "random")
        # Names bound to the Random class itself (constructor calls are
        # checked for a seed argument below).
        random_ctor_names = {
            local
            for local, orig in from_random.items()
            if orig == "Random"
        }

        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        yield RawFinding(
                            node.lineno,
                            node.col_offset,
                            f"`from random import {alias.name}` binds "
                            "global-RNG state; import the module and use "
                            "a seeded random.Random instance",
                        )
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            chain = attr_tokens(func)
            # random.<fn>(...) on the module object.
            if (
                len(chain) == 2
                and chain[0] in random_aliases
                and isinstance(func, ast.Attribute)
            ):
                attr = chain[1]
                if attr == "Random":
                    if not node.args and not node.keywords:
                        yield RawFinding(
                            node.lineno,
                            node.col_offset,
                            "random.Random() without a seed is "
                            "nondeterministic; pass an explicit seed",
                        )
                elif attr == "SystemRandom":
                    yield RawFinding(
                        node.lineno,
                        node.col_offset,
                        "random.SystemRandom is OS entropy and can "
                        "never replay; use a seeded random.Random",
                    )
                else:
                    yield RawFinding(
                        node.lineno,
                        node.col_offset,
                        f"random.{attr}() draws from the global RNG; "
                        "draw from a seeded random.Random threaded in "
                        "from the engine",
                    )
            # Random() via `from random import Random`.
            if (
                isinstance(func, ast.Name)
                and func.id in random_ctor_names
                and not node.args
                and not node.keywords
            ):
                yield RawFinding(
                    node.lineno,
                    node.col_offset,
                    "Random() without a seed is nondeterministic; "
                    "pass an explicit seed",
                )
            # np.random.<fn>(...).
            if (
                len(chain) >= 3
                and chain[0] in numpy_aliases
                and chain[1] == "random"
            ):
                attr = chain[2]
                if attr in _NP_SEEDED_CTORS:
                    if not node.args and not node.keywords:
                        yield RawFinding(
                            node.lineno,
                            node.col_offset,
                            f"np.random.{attr}() without an explicit "
                            "seed is nondeterministic",
                        )
                else:
                    yield RawFinding(
                        node.lineno,
                        node.col_offset,
                        f"np.random.{attr} uses numpy's global RNG "
                        "state; construct a seeded generator (or draw "
                        "through the engine's random.Random)",
                    )


# ----------------------------------------------------------------------
# REP002 — wall-clock reads in replayable code
# ----------------------------------------------------------------------
_CLOCK_FNS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
}
#: Clock reads only when called with no argument (with an argument they
#: are pure formatting of a supplied timestamp).
_CLOCK_FNS_NOARG = {"localtime", "gmtime", "ctime"}
_DATETIME_NOW = {"now", "utcnow", "today"}


class WallClockRead(Rule):
    code = "REP002"
    name = "wall-clock-read"
    summary = (
        "simulator/marketplace/measurement/analysis code replays from "
        "SimClock; real-time reads (time.time, datetime.now, "
        "perf_counter) belong only in benchmarks/"
    )

    def check(self, module: ModuleContext) -> Iterator[RawFinding]:
        if "benchmarks" in module.path_parts:
            return
        tree = module.tree
        time_aliases = module_aliases(module, "time")
        from_time = imported_names(module, "time")
        clock_names = {
            local
            for local, orig in from_time.items()
            if orig in _CLOCK_FNS | _CLOCK_FNS_NOARG
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _CLOCK_FNS | _CLOCK_FNS_NOARG:
                        yield RawFinding(
                            node.lineno,
                            node.col_offset,
                            f"`from time import {alias.name}` imports a "
                            "wall-clock read into replayable code; take "
                            "`now` from SimClock instead",
                        )
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            chain = attr_tokens(func)
            if len(chain) == 2 and chain[0] in time_aliases:
                if chain[1] in _CLOCK_FNS or (
                    chain[1] in _CLOCK_FNS_NOARG and not node.args
                ):
                    yield RawFinding(
                        node.lineno,
                        node.col_offset,
                        f"time.{chain[1]}() reads the wall clock; "
                        "replayable code must take `now` from SimClock "
                        "(benchmarks/ are exempt)",
                    )
            if isinstance(func, ast.Name) and func.id in clock_names:
                yield RawFinding(
                    node.lineno,
                    node.col_offset,
                    f"{func.id}() reads the wall clock; replayable "
                    "code must take `now` from SimClock",
                )
            if (
                len(chain) >= 2
                and chain[-1] in _DATETIME_NOW
                and any(t in ("datetime", "date") for t in chain[:-1])
            ):
                yield RawFinding(
                    node.lineno,
                    node.col_offset,
                    f"datetime {chain[-1]}() reads the wall clock; "
                    "derive timestamps from the simulated clock",
                )


# ----------------------------------------------------------------------
# REP003 — unordered iteration where order feeds the RNG or the logs
# ----------------------------------------------------------------------
_LOG_TOKENS = ("truth", "trip", "ledger", "log")


def _is_unordered_iterable(node: ast.AST) -> Optional[str]:
    """Name the unordered construct being iterated, or ``None``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal/comprehension"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}(...)"
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            return ".keys()"
    return None


class UnorderedIterationWithRNG(Rule):
    code = "REP003"
    name = "unordered-iteration"
    summary = (
        "functions that draw from an RNG or append to truth/trip logs "
        "must not iterate sets or .keys() views unseeded by sorted(...): "
        "iteration order becomes draw order becomes divergent campaigns"
    )

    def check(self, module: ModuleContext) -> Iterator[RawFinding]:
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = list(_own_nodes(fn))
            draws_rng = False
            appends_log = False
            for node in own:
                if not isinstance(node, ast.Call):
                    continue
                if not isinstance(node.func, ast.Attribute):
                    continue
                receiver = attr_tokens(node.func)[:-1]
                if any(
                    t == "rng" or t.endswith("rng") for t in receiver
                ):
                    draws_rng = True
                if node.func.attr == "append" and any(
                    any(tok in t.lower() for tok in _LOG_TOKENS)
                    for t in receiver
                    if t != "self"
                ):
                    appends_log = True
            if not (draws_rng or appends_log):
                continue
            why = (
                "draws from an RNG"
                if draws_rng
                else "appends to a truth/trip log"
            )
            iters: List[ast.AST] = []
            for node in own:
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                elif isinstance(node, ast.comprehension):
                    iters.append(node.iter)
            for it in iters:
                what = _is_unordered_iterable(it)
                if what is not None:
                    yield RawFinding(
                        it.lineno,
                        it.col_offset,
                        f"iterating {what} in `{fn.name}`, which {why}: "
                        "wrap the iterable in sorted(...) so iteration "
                        "order is reproducible",
                    )


# ----------------------------------------------------------------------
# REP004 — bit-identity-hazard math
# ----------------------------------------------------------------------
class BitIdentityHazardMath(Rule):
    code = "REP004"
    name = "bit-identity-math"
    summary = (
        "math.hypot / math.fsum (and **0.5 next to np.sqrt) do not "
        "reproduce bit-for-bit under numpy; distance code mirrored by an "
        "array path must use the shared sqrt-form helper"
    )

    def check(self, module: ModuleContext) -> Iterator[RawFinding]:
        tree = module.tree
        math_aliases = module_aliases(module, "math")
        from_math = imported_names(module, "math")
        hazard_names = {
            local
            for local, orig in from_math.items()
            if orig in ("hypot", "fsum")
        }
        numpy_aliases = module_aliases(module, "numpy")
        from_numpy = imported_names(module, "numpy")
        has_np_sqrt = any(orig == "sqrt" for orig in from_numpy.values())
        if not has_np_sqrt:
            for node in ast.walk(tree):
                chain = attr_tokens(node) if isinstance(
                    node, ast.Attribute
                ) else []
                if (
                    len(chain) == 2
                    and chain[0] in numpy_aliases
                    and chain[1] == "sqrt"
                ):
                    has_np_sqrt = True
                    break

        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                for alias in node.names:
                    if alias.name in ("hypot", "fsum"):
                        yield RawFinding(
                            node.lineno,
                            node.col_offset,
                            f"`from math import {alias.name}` imports a "
                            "bit-identity hazard; use the sqrt-form "
                            "helper (repro.geo.latlon.planar_distance)",
                        )
            if isinstance(node, ast.Call):
                func = node.func
                chain = attr_tokens(func)
                if (
                    len(chain) == 2
                    and chain[0] in math_aliases
                    and chain[1] in ("hypot", "fsum")
                ):
                    yield RawFinding(
                        node.lineno,
                        node.col_offset,
                        f"math.{chain[1]} is not reproduced bit-for-bit "
                        "by numpy's vectorized ops; use the shared "
                        "sqrt-form helper "
                        "(repro.geo.latlon.planar_distance) so scalar "
                        "and array paths stay identical",
                    )
                if isinstance(func, ast.Name) and func.id in hazard_names:
                    yield RawFinding(
                        node.lineno,
                        node.col_offset,
                        f"{func.id}() is a bit-identity hazard; use the "
                        "shared sqrt-form helper",
                    )
            if (
                has_np_sqrt
                and isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Pow)
                and isinstance(node.right, ast.Constant)
                and node.right.value == 0.5
            ):
                yield RawFinding(
                    node.lineno,
                    node.col_offset,
                    "`** 0.5` in a module that also uses np.sqrt mixes "
                    "two square-root formulations; pick math.sqrt/"
                    "np.sqrt consistently so both paths round alike",
                )


# ----------------------------------------------------------------------
# REP005 — mutable defaults and import-time RNG/clock capture
# ----------------------------------------------------------------------
def _contains_capture(
    node: ast.AST,
    random_aliases: Set[str],
    time_aliases: Set[str],
    numpy_aliases: Set[str],
) -> Optional[str]:
    """Describe an RNG/clock capture inside *node*, or ``None``."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        chain = attr_tokens(sub.func)
        if len(chain) >= 2 and chain[0] in random_aliases:
            return f"random.{chain[1]}"
        if len(chain) >= 3 and chain[0] in numpy_aliases and (
            chain[1] == "random"
        ):
            return f"np.random.{chain[2]}"
        if (
            len(chain) == 2
            and chain[0] in time_aliases
            and chain[1] in (_CLOCK_FNS | _CLOCK_FNS_NOARG)
        ):
            return f"time.{chain[1]}"
        if (
            len(chain) >= 2
            and chain[-1] in _DATETIME_NOW
            and any(t in ("datetime", "date") for t in chain[:-1])
        ):
            return f"datetime {chain[-1]}()"
    return None


class MutableDefaultOrImportTimeCapture(Rule):
    code = "REP005"
    name = "mutable-default-import-capture"
    summary = (
        "mutable default arguments alias state across calls; defaults "
        "or module-level assignments that call an RNG or the clock "
        "capture one value at import time — both break replay"
    )

    def check(self, module: ModuleContext) -> Iterator[RawFinding]:
        tree = module.tree
        random_aliases = module_aliases(module, "random")
        time_aliases = module_aliases(module, "time")
        numpy_aliases = module_aliases(module, "numpy")

        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(fn.args.defaults) + [
                d for d in fn.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(
                    default,
                    (ast.List, ast.Dict, ast.Set, ast.ListComp,
                     ast.DictComp, ast.SetComp),
                ) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set")
                ):
                    yield RawFinding(
                        default.lineno,
                        default.col_offset,
                        f"mutable default argument in `{fn.name}`: one "
                        "object is shared across every call; default to "
                        "None and construct inside",
                    )
                    continue
                capture = _contains_capture(
                    default, random_aliases, time_aliases, numpy_aliases
                )
                if capture is not None:
                    yield RawFinding(
                        default.lineno,
                        default.col_offset,
                        f"default argument of `{fn.name}` calls "
                        f"{capture}: evaluated once at import time, the "
                        "value is frozen for the process and invisible "
                        "to replay",
                    )

        # Module-level (and class-attribute) RNG/clock capture.
        bodies: List[Sequence[ast.stmt]] = [tree.body]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bodies.append(node.body)
        for body in bodies:
            for stmt in body:
                if not isinstance(
                    stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)
                ):
                    continue
                value = stmt.value
                if value is None:
                    continue
                capture = _contains_capture(
                    value, random_aliases, time_aliases, numpy_aliases
                )
                if capture is not None:
                    yield RawFinding(
                        stmt.lineno,
                        stmt.col_offset,
                        f"module-import-time capture of {capture}: "
                        "shared RNG/clock state created at import "
                        "cannot be replayed per-run; construct it "
                        "inside the engine with an explicit seed",
                    )


# ----------------------------------------------------------------------
# REP006 — flag parity with the bit-identity matrix
# ----------------------------------------------------------------------
class FlagParity(Rule):
    code = "REP006"
    name = "flag-parity"
    summary = (
        "every marketplace `use_*` engine flag must actually branch "
        "behaviour (no dead flags) and appear in the flag-matrix "
        "equivalence tests that prove both branches bit-identical"
    )

    def check(self, module: ModuleContext) -> Iterator[RawFinding]:
        if "marketplace" not in module.path_parts:
            return
        tree = module.tree

        # Collect declared flags: __init__ parameters and dataclass
        # fields named use_*.
        flags: List[Tuple[str, int, int]] = []
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and item.target.id.startswith("use_")
                ):
                    flags.append(
                        (item.target.id, item.lineno, item.col_offset)
                    )
                if (
                    isinstance(item, ast.FunctionDef)
                    and item.name == "__init__"
                ):
                    for arg in item.args.args + item.args.kwonlyargs:
                        if arg.arg.startswith("use_"):
                            flags.append(
                                (arg.arg, arg.lineno, arg.col_offset)
                            )
        if not flags:
            return

        # Everywhere the module branches on (or delegates) a name.
        conditional: Set[str] = set()
        delegated: Set[str] = set()

        def note(expr: ast.AST) -> None:
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Name):
                    conditional.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    conditional.add(sub.attr)

        for node in ast.walk(tree):
            if isinstance(node, (ast.If, ast.While, ast.IfExp)):
                note(node.test)
            elif isinstance(node, ast.BoolOp):
                note(node)
            elif isinstance(node, ast.UnaryOp) and isinstance(
                node.op, ast.Not
            ):
                note(node)
            elif isinstance(node, ast.comprehension):
                for cond in node.ifs:
                    note(cond)
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg is not None:
                        delegated.add(kw.arg)

        matrix = module.project.flag_matrix_text
        seen: Set[str] = set()
        for flag, line, col in flags:
            if flag in seen:
                continue
            seen.add(flag)
            if flag not in conditional and flag not in delegated:
                yield RawFinding(
                    line,
                    col,
                    f"engine flag `{flag}` is accepted but never "
                    "branched on or delegated: a dead flag means one "
                    "code path silently always runs",
                )
            if matrix is not None and flag not in matrix:
                yield RawFinding(
                    line,
                    col,
                    f"engine flag `{flag}` is missing from the "
                    "flag-matrix equivalence tests "
                    "(tests/test_perf_regression.py / "
                    "benchmarks/bench_perf_engine.py): both settings "
                    "must be proven bit-identical",
                )


#: Every rule class, in code order.
ALL_RULES: List[Type[Rule]] = [
    UnseededRandomness,
    WallClockRead,
    UnorderedIterationWithRNG,
    BitIdentityHazardMath,
    MutableDefaultOrImportTimeCapture,
    FlagParity,
]

#: code -> one-line summary, including the driver-level meta code.
CODE_SUMMARIES: Dict[str, str] = {
    META_CODE: (
        "lint integrity: unparseable file, suppression without a "
        "justification, or suppression that matches no finding"
    ),
}
CODE_SUMMARIES.update({rule.code: rule.summary for rule in ALL_RULES})
