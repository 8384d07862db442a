"""The lint family: repo-specific determinism rules (D/W), one per-file check
each.

Every paper result this repo reproduces rests on ``Simulator`` runs being
bit-for-bit reproducible from a seed.  These rules catch the source-level
patterns that silently break that property.

Adding a rule
=============

Write a check that yields ``(node, message)`` pairs for one parsed file and
decorate it with :func:`register`, passing the rule's registry record::

    @register(Rule("D006", "lint", "no time.sleep in simulation code",
                   "virtual time never needs the host clock"))
    def check_no_sleep(tree, path):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and dotted_name(node.func) == "time.sleep"):
                yield node, "time.sleep() call"

The driver (:mod:`repro.analysis.engine`) turns each pair into a
:class:`~repro.analysis.findings.Finding` at the node's location.
Suppress a finding inline with ``# repro: allow[D006]`` on the offending
line (comma-separate several rule ids in one marker).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Callable, Iterator

from .findings import Finding, Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Context

#: What a lint check yields for one file: ``(node, message)`` pairs.
Hits = Iterator[tuple[ast.AST, str]]
LintCheck = Callable[[ast.AST, str], Hits]

#: The lint family's rule records, in registration order.
LINT_RULES: list[Rule] = []
#: Rule id -> its per-file check.  Populated by :func:`register`.
LINT_CHECKS: dict[str, LintCheck] = {}


def register(rule: Rule) -> Callable[[LintCheck], LintCheck]:
    """Decorator adding a per-file check for ``rule`` (id must be unique)."""

    def decorate(check: LintCheck) -> LintCheck:
        if rule.id in LINT_CHECKS:
            raise ValueError(f"duplicate lint rule id {rule.id!r}")
        LINT_RULES.append(rule)
        LINT_CHECKS[rule.id] = check
        return check

    return decorate


def check_lint(ctx: "Context", selected: frozenset[str]) -> Iterator[Finding]:
    """Every selected lint check over every parsed module, in id order."""
    chosen = sorted(selected & LINT_CHECKS.keys())
    for module in ctx.modules:
        for rule_id in chosen:
            for node, message in LINT_CHECKS[rule_id](module.tree, module.path):
                yield Finding(
                    path=module.path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0),
                    rule=rule_id,
                    message=message,
                )


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def type_checking_guarded(tree: ast.AST) -> set[ast.AST]:
    """All nodes inside ``if TYPE_CHECKING:`` blocks — they never execute,
    so typing-only imports of e.g. ``random`` are not runtime randomness."""
    guarded: set[ast.AST] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If):
            test_name = dotted_name(node.test)
            if test_name in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
                for child in node.body:
                    guarded.update(ast.walk(child))
    return guarded


# ---------------------------------------------------------------------------
# D001 — wall-clock reads
# ---------------------------------------------------------------------------

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.clock_gettime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "date.today",
}


@register(
    Rule(
        "D001",
        "lint",
        summary="no wall-clock reads in simulation code",
        rationale=(
            "simulated behaviour keyed to the host clock differs on every run; "
            "all time must come from Simulator.now"
        ),
    )
)
def check_wall_clock(tree: ast.AST, path: str) -> Hits:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in _WALL_CLOCK_CALLS:
                yield node, f"wall-clock read {name}() — use Simulator.now"


# ---------------------------------------------------------------------------
# D002 — unseeded / process-global randomness
# ---------------------------------------------------------------------------

_GLOBAL_RNG_FNS = {
    "random",
    "randint",
    "randrange",
    "randbytes",
    "getrandbits",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "triangular",
    "gauss",
    "normalvariate",
    "lognormvariate",
    "expovariate",
    "vonmisesvariate",
    "gammavariate",
    "betavariate",
    "paretovariate",
    "weibullvariate",
    "seed",
}

#: OS-entropy reads: every bit drawn here is unreproducible from a seed.
_OS_ENTROPY_CALLS = {
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbits",
    "secrets.randbelow",
    "secrets.choice",
    "os.urandom",
}


@register(
    Rule(
        "D002",
        "lint",
        summary="no global/unseeded randomness outside Simulator.rng",
        rationale=(
            "the process-global random module and unseeded random.Random() draw "
            "from OS entropy; every stochastic choice must flow from the seeded "
            "Simulator.rng"
        ),
    )
)
def check_global_random(tree: ast.AST, path: str) -> Hits:
    guarded = type_checking_guarded(tree)
    for node in ast.walk(tree):
        if node in guarded:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    yield (
                        node,
                        "import random — draw from the seeded Simulator.rng "
                        "instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield (
                    node,
                    "from random import ... — draw from the seeded "
                    "Simulator.rng instead",
                )
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name == "random.Random" and not node.args and not node.keywords:
                yield (
                    node,
                    "unseeded random.Random() — pass an explicit seed or use "
                    "Simulator.rng",
                )
            elif (
                name is not None
                and name.startswith("random.")
                and name.removeprefix("random.") in _GLOBAL_RNG_FNS
            ):
                yield (
                    node,
                    f"{name}() uses the process-global RNG — use Simulator.rng",
                )
            elif name in _OS_ENTROPY_CALLS:
                yield (
                    node,
                    f"{name}() draws OS entropy — not reproducible from a "
                    "seed; plumb key material through Simulator.rng",
                )


# ---------------------------------------------------------------------------
# D003 — unordered iteration feeding event scheduling
# ---------------------------------------------------------------------------

_SCHEDULE_METHODS = {"schedule", "schedule_at"}
_DICT_VIEW_METHODS = {"keys", "values", "items"}


def _is_unordered_iterable(node: ast.expr) -> str | None:
    """Why ``for x in <node>`` has no guaranteed deterministic order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set literal"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}() result"
        if isinstance(func, ast.Attribute) and func.attr in _DICT_VIEW_METHODS:
            return f".{func.attr}() view"
    return None


def _schedules_events(body: list[ast.stmt]) -> ast.Call | None:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in _SCHEDULE_METHODS:
                    return node
                if isinstance(func, ast.Name) and func.id in _SCHEDULE_METHODS:
                    return node
    return None


@register(
    Rule(
        "D003",
        "lint",
        summary="no set/dict-order iteration feeding event scheduling",
        rationale=(
            "set iteration order (and dict order, when insertion order is itself "
            "unstable) depends on hashes and allocation; events scheduled from "
            "such loops land in a run-dependent sequence — wrap the iterable in "
            "sorted(...)"
        ),
    )
)
def check_unordered_scheduling(tree: ast.AST, path: str) -> Hits:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            continue
        why = _is_unordered_iterable(node.iter)
        if why is None:
            continue
        call = _schedules_events(node.body)
        if call is not None:
            yield (
                node,
                f"iterating a {why} schedules events — wrap the iterable "
                "in sorted(...) for a deterministic order",
            )


# ---------------------------------------------------------------------------
# D004 — mutable default arguments
# ---------------------------------------------------------------------------


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        return isinstance(func, ast.Name) and func.id in ("list", "dict", "set", "bytearray")
    return False


@register(
    Rule(
        "D004",
        "lint",
        summary="no mutable default arguments",
        rationale=(
            "a mutable default is shared across calls; state leaking between "
            "two supposedly independent simulator runs makes the second run "
            "depend on the first"
        ),
    )
)
def check_mutable_defaults(tree: ast.AST, path: str) -> Hits:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield (
                    default,
                    f"mutable default argument in {node.name}() — use None "
                    "and construct inside the body",
                )


# ---------------------------------------------------------------------------
# D005 — floating-point equality on virtual time
# ---------------------------------------------------------------------------

_TIME_NAMES = {"now", "vtime", "virtual_time"}


def _mentions_virtual_time(node: ast.expr) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in _TIME_NAMES
    if isinstance(node, ast.Name):
        return node.id in _TIME_NAMES
    return False


@register(
    Rule(
        "D005",
        "lint",
        summary="no floating-point == / != on virtual time",
        rationale=(
            "virtual timestamps are accumulated floats; exact equality is "
            "rounding-order dependent — compare with a tolerance or order by "
            "event sequence instead"
        ),
    )
)
def check_float_time_equality(tree: ast.AST, path: str) -> Hits:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        if any(_mentions_virtual_time(operand) for operand in operands):
            yield (
                node,
                "exact float comparison on virtual time — use a tolerance "
                "(abs(a - b) < eps) or compare event ordering",
            )


# ---------------------------------------------------------------------------
# W002 — observability code must be observe-only
# ---------------------------------------------------------------------------

_OBS_FORBIDDEN_CALLS = {"schedule", "schedule_at", "child_rng"}

#: Mutating guard/limiter entry points — the *actuator seam*.  Only the
#: control plane (``repro.control``) may call these; a signal callback in
#: ``repro/obs/`` reaching for one turns observation into participation.
_ACTUATOR_ENTRY_POINTS = frozenset(
    {
        "set_policy",
        "set_admission",
        "rotate_cookie_key",
        "reconfigure",
        "rotate",
        "crash",
        "restart",
        "reset",
    }
)


def _w002_scope(path: str) -> str | None:
    p = path.replace("\\", "/")
    if "repro/obs/" in p:
        return "obs"
    if "repro/farm/" in p:
        return "farm"
    return None


@register(
    Rule(
        "W002",
        "lint",
        summary=(
            "repro.obs must stay observe-only and repro.farm must stay seed-pure: "
            "no actuator calls, no private RNGs"
        ),
        rationale=(
            "the observability layer is a read-only tap: if it schedules events, "
            "draws randomness, or calls a mutating guard/limiter entry point "
            "(the actuator seam reserved for repro.control), enabling it changes "
            "the event trace and every --sanitize parity guarantee breaks; farm "
            "workers carry the same discipline — a worker that actuates a guard "
            "or constructs its own random.Random breaks the contract that a "
            "cell's result depends only on (matrix, params, derived seed), so "
            "farm randomness must flow from the per-cell seed "
            "(Cell.seed / Simulator.child_rng)"
        ),
    )
)
def check_observe_only(tree: ast.AST, path: str) -> Hits:
    scope = _w002_scope(path)
    if scope is None:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                scope == "obs"
                and isinstance(func, ast.Attribute)
                and func.attr in _OBS_FORBIDDEN_CALLS
            ):
                yield (
                    node,
                    f".{func.attr}() call in observability code — obs must "
                    "never schedule events or derive RNG streams",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _ACTUATOR_ENTRY_POINTS
            ):
                where = (
                    "observability code — mutating guard/limiter entry "
                    "points are the control plane's actuator seam "
                    "(repro.control); observation must not participate"
                    if scope == "obs"
                    else "farm code — farm workers may not call mutating "
                    "guard/limiter entry points outside the sanctioned "
                    "actuator seam (repro.control); a cell's result must "
                    "depend only on its params and derived seed"
                )
                yield node, f".{func.attr}() call in {where}"
            elif scope == "farm":
                name = dotted_name(func)
                if name in ("random.Random", "Random"):
                    yield (
                        node,
                        f"{name}() constructed in farm code — farm "
                        "randomness must derive from the per-cell seed "
                        "(Cell.seed / Simulator.child_rng), never a "
                        "private RNG",
                    )
        elif scope == "obs" and isinstance(node, ast.Attribute) and node.attr == "rng":
            yield (
                node,
                ".rng access in observability code — obs must never touch "
                "simulator randomness",
            )


# ---------------------------------------------------------------------------
# W001 — swallowed exceptions in event callbacks
# ---------------------------------------------------------------------------


@register(
    Rule(
        "W001",
        "lint",
        summary="no bare except / silently swallowed exceptions",
        rationale=(
            "an exception swallowed inside an event callback silently truncates "
            "the event cascade, producing a plausible-looking but wrong run; "
            "failures must surface or be narrowly handled"
        ),
    )
)
def check_swallowed_exceptions(tree: ast.AST, path: str) -> Hits:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield node, "bare except: — catch a specific exception type"
            continue
        type_name = dotted_name(node.type)
        body_is_pass = len(node.body) == 1 and isinstance(node.body[0], ast.Pass)
        if type_name in ("Exception", "BaseException") and body_is_pass:
            yield (
                node,
                f"except {type_name}: pass swallows every failure — "
                "handle or re-raise",
            )
