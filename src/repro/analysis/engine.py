"""The analysis driver: one rule registry, one parse, one suppression pass.

Every rule family — lint D/W (:mod:`.rules`), flow T/S (:mod:`.flow`),
races R (:mod:`.races`), perf P (:mod:`.perf`), memory M (:mod:`.memory`)
and layers L (:mod:`.layers`) — contributes only its rule list and its
checks.  :func:`analyze` owns everything they share: file discovery, the
single parse (E999 for files that fail it), rule selection, inline
suppression, U001 hygiene and ordering.  :data:`RULES` is the one
registry every table, SARIF document and ``--rules`` lookup reads.

Suppression syntax
==================

Append ``# repro: allow[D002]`` (or ``allow[D002,W001]``) to the offending
line.  The marker suppresses only the listed rule ids, only on that line.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import re
import tokenize
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .findings import Finding, Rule
from .flow.core import ModuleInfo, NameIndex, parse_module
from .flow.engine import FLOW_RULES, check_flow
from .layers.engine import LAYER_RULES, check_layers
from .layers.manifest import DEFAULT_MANIFEST
from .memory.engine import MEMORY_RULES, check_memory
from .perf.engine import PERF_RULES, check_perf
from .perf.hotpath import HotPaths, compute_hot_paths, load_profile
from .races.engine import MONITOR_RULES, RACE_RULES, check_races
from .rules import LINT_RULES, check_lint

#: Rule id used for files that fail to parse.
SYNTAX_ERROR_RULE = "E999"
#: Rule id for suppression hygiene: markers that suppress nothing.
UNUSED_SUPPRESSION_RULE = "U001"

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_\s,]+)\]")

#: Directory names never descended into during file discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}


def _add_marker(allowed: dict[int, set[str]], lineno: int, text: str) -> None:
    match = _ALLOW_RE.search(text)
    if match:
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        allowed.setdefault(lineno, set()).update(rules)


def suppressed_rules(source: str) -> dict[int, set[str]]:
    """Map of 1-based line number -> rule ids allowed on that line.

    Only markers in real ``#`` comment tokens count: a docstring that
    *mentions* the syntax must neither suppress findings on its line nor
    register as a marker for U001 hygiene.  Sources that cannot be
    tokenized (E999 files) fall back to a plain line scan.
    """
    allowed: dict[int, set[str]] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                _add_marker(allowed, token.start[0], token.string)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        allowed.clear()
        for lineno, line in enumerate(source.splitlines(), start=1):
            _add_marker(allowed, lineno, line)
    return allowed


class SuppressionTracker:
    """Marker bookkeeping for one driver run, shared by every family.

    The driver registers each file's markers and notes which rules ran;
    every filtered finding marks its marker *used*.  Afterwards,
    :meth:`unused_findings` turns the leftovers into U001:

    * a marker naming a rule id no engine knows is always U001 (typos
      would otherwise suppress nothing, silently, forever);
    * a marker naming a rule that ran but suppressed nothing on its line
      is U001 — the hazard it documented is gone, so the rationale is now
      misinformation;
    * markers for rules that did *not* run this invocation are left alone
      (a lint-only run cannot judge a ``allow[T001]`` marker).
    """

    def __init__(self) -> None:
        self._markers: dict[tuple[str, int], set[str]] = {}
        self._used: set[tuple[str, int, str]] = set()
        self._rules_run: set[str] = set()

    def register_source(self, path: str, source: str) -> None:
        for lineno, rules in suppressed_rules(source).items():
            self._markers.setdefault((path, lineno), set()).update(rules)

    def note_rules(self, rule_ids: Iterable[str]) -> None:
        self._rules_run.update(rule_ids)

    def is_suppressed(self, finding: Finding) -> bool:
        key = (finding.path, finding.line)
        if finding.rule in self._markers.get(key, ()):
            self._used.add((finding.path, finding.line, finding.rule))
            return True
        return False

    def unused_findings(self, known_rules: Iterable[str]) -> list[Finding]:
        known = set(known_rules) | {UNUSED_SUPPRESSION_RULE}
        findings: list[Finding] = []
        for (path, lineno), rules in sorted(self._markers.items()):
            if UNUSED_SUPPRESSION_RULE in rules:
                # an explicit allow[U001] opts the line out of hygiene
                continue
            for rule in sorted(rules):
                if rule not in known:
                    message = (
                        f"suppression marker names unknown rule id {rule!r} "
                        "— it can never match a finding; fix the id or "
                        "delete the marker"
                    )
                elif rule not in self._rules_run:
                    continue
                elif (path, lineno, rule) not in self._used:
                    message = (
                        f"unused suppression: {rule} did not fire on this "
                        "line — the hazard is gone, delete the marker"
                    )
                else:
                    continue
                findings.append(
                    Finding(
                        path=path,
                        line=lineno,
                        col=0,
                        rule=UNUSED_SUPPRESSION_RULE,
                        message=message,
                    )
                )
        return findings


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield .py files under ``paths`` in sorted order, skipping junk dirs."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in sorted(path.rglob("*.py")):
            parts = set(candidate.parts)
            if parts & _SKIP_DIRS or any(p.startswith(".") for p in candidate.parts):
                continue
            yield candidate


class Context:
    """What every family reads: the one parse plus the run's inputs.

    The name index and the hot set are computed on first use and shared,
    so families that need the same structure build it once.
    """

    def __init__(
        self,
        modules: list[ModuleInfo],
        profile: str | Path | None,
        manifest: dict[str, str] | None,
    ):
        self.modules = modules
        self._profile = profile
        self.manifest = DEFAULT_MANIFEST if manifest is None else manifest

    @functools.cached_property
    def index(self) -> NameIndex:
        return NameIndex(self.modules)

    @functools.cached_property
    def hot_paths(self) -> HotPaths:
        # a missing profile file reads as "no profile"; a malformed one raises
        profile = None if self._profile is None else load_profile(self._profile)
        return compute_hot_paths(self.modules, profile)


@dataclasses.dataclass(frozen=True, slots=True)
class Family:
    """One rule family: its rule list and the check that runs them."""

    rules: tuple[Rule, ...]
    check: Callable[[Context, frozenset[str]], Iterable[Finding]]
    #: rules whose ``allow`` markers a runtime monitor consumes — never
    #: judged for U001 by the static driver
    unjudged: frozenset[str] = frozenset()

    @property
    def ids(self) -> frozenset[str]:
        return frozenset(rule.id for rule in self.rules)


#: Every family, in the order their findings are produced.
FAMILIES: tuple[Family, ...] = (
    Family(tuple(LINT_RULES), check_lint),
    Family(FLOW_RULES, check_flow),
    Family(RACE_RULES, check_races, unjudged=MONITOR_RULES),
    Family(PERF_RULES, check_perf),
    Family(MEMORY_RULES, check_memory),
    Family(LAYER_RULES, check_layers),
)

#: The driver's own rules: parse failures and suppression hygiene.
_DRIVER_RULES = (
    Rule(
        SYNTAX_ERROR_RULE,
        "parse",
        "file fails to parse",
        "nothing can be checked in unparsable code",
    ),
    Rule(
        UNUSED_SUPPRESSION_RULE,
        "hygiene",
        "suppression marker that suppresses nothing",
        "an allow[...] marker whose rule never fires on its line — or that "
        "names an unknown rule id — documents a hazard that no longer "
        "exists; stale rationales are misinformation, so the marker must "
        "be deleted when the finding goes away",
        # hygiene, not a live hazard — still fails the repo gate
        # (--fail-on warning) but is distinguishable for SARIF consumers
        severity="warning",
    ),
)


def _registry() -> dict[str, Rule]:
    registry: dict[str, Rule] = {}
    for rule in [*_DRIVER_RULES, *(r for f in FAMILIES for r in f.rules)]:
        if rule.id in registry:
            raise ValueError(f"duplicate rule id {rule.id!r}")
        registry[rule.id] = rule
    return dict(sorted(registry.items()))


#: The one rule registry: id -> :class:`Rule`, sorted by id.
RULES: dict[str, Rule] = _registry()


def severity_of(rule_id: str) -> str:
    """The registered severity for ``rule_id`` (unknown ids rank as error)."""
    rule = RULES.get(rule_id)
    return "error" if rule is None else rule.severity


def analyze(
    paths: Iterable[str | Path],
    *,
    rule_ids: Iterable[str] | None = None,
    tracker: SuppressionTracker | None = None,
    profile: str | Path | None = None,
    manifest: dict[str, str] | None = None,
) -> list[Finding]:
    """Run the selected rules over every Python file under ``paths``.

    ``rule_ids`` narrows the run (default: every registered rule; unknown
    ids raise ``KeyError``).  U001 findings appear only when U001 is
    selected; a caller's ``tracker`` keeps the marker bookkeeping for its
    own :meth:`~SuppressionTracker.unused_findings`.
    ``profile`` is a ``BENCH_profile.json`` path weighting the hot set (a
    missing file just disables weighting);
    ``manifest`` substitutes a toy layer map for the default one.
    """
    sources = [
        (str(path), path.read_text(encoding="utf-8", errors="replace"))
        for path in iter_python_files(paths)
    ]
    return _run(sources, rule_ids, tracker, profile, manifest)


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    rule_ids: Iterable[str] | None = None,
    tracker: SuppressionTracker | None = None,
) -> list[Finding]:
    """Run the lint rules (default) or ``rule_ids`` over one source string."""
    if rule_ids is None:
        rule_ids = [rule.id for rule in LINT_RULES]
    return _run([(path, source)], rule_ids, tracker, None, None)


def _run(
    sources: list[tuple[str, str]],
    rule_ids: Iterable[str] | None,
    tracker: SuppressionTracker | None,
    profile: str | Path | None,
    manifest: dict[str, str] | None,
) -> list[Finding]:
    if rule_ids is None:
        selected = frozenset(RULES)
    else:
        selected = frozenset(rule_ids)
        unknown = sorted(selected - RULES.keys())
        if unknown:
            raise KeyError(f"unknown rule ids: {', '.join(unknown)}")
    if tracker is None:
        tracker = SuppressionTracker()

    findings: list[Finding] = []
    modules: list[ModuleInfo] = []
    for path, source in sources:
        tracker.register_source(path, source)
        try:
            modules.append(parse_module(path, source))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    rule=SYNTAX_ERROR_RULE,
                    message=f"syntax error: {exc.msg}",
                )
            )

    ctx = Context(modules, profile, manifest)
    for family in FAMILIES:
        chosen = selected & family.ids
        if not chosen:
            continue
        tracker.note_rules(chosen - family.unjudged)
        findings.extend(
            finding
            for finding in family.check(ctx, chosen)
            if not tracker.is_suppressed(finding)
        )
    if UNUSED_SUPPRESSION_RULE in selected:
        findings.extend(tracker.unused_findings(RULES))
    return sorted(findings, key=Finding.sort_key)
