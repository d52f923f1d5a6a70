"""Rule framework: parsed modules, the AST-rule base class, suppressions.

An AST rule is a class with a ``rule`` id, a ``description``, and a
``check(unit)`` generator over :class:`~repro.staticcheck.findings.Finding`
objects.  :class:`ModuleUnit` carries everything a rule needs about one
file: the parsed tree, the raw source lines (for the stable ``item`` of
each finding), and the repo-relative path rules use for scoping (the DET
hot-path rules only fire under ``sim/``, ``modelcheck/``, ``ttp/``).

Suppressions are inline comments on the offending line::

    leaky = time.time()  # repro: ignore[DET001]
    noisy = foo()        # repro: ignore[DET001,EVT001]
    escape = bar()       # repro: ignore

A bare ``ignore`` suppresses every rule on that line; the bracketed form
suppresses only the listed rule ids.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.staticcheck.findings import Finding, RuleInfo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (context -> framework)
    from repro.staticcheck.context import AnalysisContext

#: ``# repro: ignore`` or ``# repro: ignore[DET001,EVT001]``.
_SUPPRESSION = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)\])?")

#: Marker meaning "every rule is suppressed on this line".
ALL_RULES = "*"


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line number -> set of suppressed rule ids (or ``{'*'}``).

    Only *real* comments count: the source is tokenized and the
    suppression pattern is matched against ``COMMENT`` tokens, so a
    docstring or string literal that merely *quotes* the syntax (e.g.
    documentation of the suppression feature itself) cannot silently
    swallow genuine findings on its line.
    """
    table: Dict[int, Set[str]] = {}
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    try:
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION.search(token.string)
            if match is None:
                continue
            listed = match.group("rules")
            lineno = token.start[0]
            if listed is None:
                table[lineno] = {ALL_RULES}
            else:
                table[lineno] = {rule.strip() for rule in listed.split(",")}
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unfinishable token stream: keep whatever suppressions tokenized
        # cleanly before the error rather than guessing with a line regex
        # (the caller already ast-parsed the source, so in practice this
        # only fires on sources the lint run would reject anyway).
        pass
    return table


def is_suppressed(finding: Finding,
                  suppressions: Dict[int, Set[str]]) -> bool:
    rules = suppressions.get(finding.line)
    if rules is None:
        return False
    return ALL_RULES in rules or finding.rule in rules


class ModuleUnit:
    """One parsed source file, as seen by the AST rules."""

    def __init__(self, path: Path, rel_path: str, source: str) -> None:
        self.path = path
        #: Posix-style path relative to the lint root; rules scope on this.
        self.rel_path = rel_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.suppressions = parse_suppressions(source)

    @classmethod
    def load(cls, path: Path, root: Path) -> "ModuleUnit":
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        return cls(path, rel, path.read_text(encoding="utf-8"))

    # -- helpers shared by the rule packs ------------------------------------

    def line_at(self, lineno: int) -> str:
        """Stripped source text of a 1-based line (the finding ``item``)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def path_segments(self) -> List[str]:
        return self.rel_path.split("/")

    def in_directory(self, *names: str) -> bool:
        """Whether any path segment (not the filename) matches ``names``."""
        return any(segment in names for segment in self.path_segments()[:-1])

    def basename(self) -> str:
        return self.path_segments()[-1]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    """Last segment of a Name/Attribute chain (``c`` for ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def is_generator_function(node: ast.AST) -> bool:
    """Whether a function definition contains a yield of its own
    (yields inside nested definitions belong to those definitions)."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    return any(True for _ in _own_yields(node))


def _own_yields(node: ast.AST) -> Iterator[ast.AST]:
    """Yield/YieldFrom nodes belonging to ``node`` itself (not nested defs)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            yield child
        yield from _own_yields(child)


class AstRule:
    """Base class of every source-level rule.

    Subclasses set ``rule``, ``description``, optionally ``severity``, and
    implement :meth:`check`.  :meth:`applies_to` lets a rule scope itself
    to path patterns (hot paths, clock-sync modules, monitor modules).

    ``check`` receives the unit under analysis *and* the run-wide
    :class:`~repro.staticcheck.context.AnalysisContext`: per-file rules
    simply ignore the context, while the flow- and call-graph-aware packs
    (CON/WID/ORD) pull memoized CFGs and the repo call graph from it.
    """

    rule: str = ""
    description: str = ""
    severity: str = "error"
    #: ``"file"`` rules run once per unit; ``"universe"`` rules run once
    #: per lint run (over the whole context) and may report into any file.
    scope: str = "file"

    def applies_to(self, unit: ModuleUnit) -> bool:
        return True

    def check(self, unit: ModuleUnit,
              context: "AnalysisContext") -> Iterator[Finding]:
        raise NotImplementedError

    def check_universe(self, context: "AnalysisContext") -> Iterator[Finding]:
        """Entry point of ``scope == "universe"`` rules."""
        raise NotImplementedError

    def finding(self, unit: ModuleUnit, node: ast.AST, message: str,
                item: str = "") -> Finding:
        lineno = getattr(node, "lineno", 0)
        column = getattr(node, "col_offset", 0)
        return Finding(rule=self.rule, path=unit.rel_path, line=lineno,
                       column=column, message=message,
                       severity=self.severity,
                       item=item or unit.line_at(lineno))

    @property
    def info(self) -> RuleInfo:
        return RuleInfo(rule=self.rule, description=self.description,
                        severity=self.severity)


def run_ast_rules(rules: Sequence[AstRule],
                  units: Iterable[ModuleUnit],
                  context: Optional["AnalysisContext"] = None
                  ) -> List[Finding]:
    """All non-suppressed findings of ``rules`` over ``units``.

    ``context`` defaults to a fresh :class:`AnalysisContext` spanning
    exactly ``units``; the lint driver passes a shared one so CFGs and
    the call graph are built once per run, not once per rule pack.  When
    the context restricts reporting (``--changed``), findings outside the
    reportable set are dropped here, uniformly for every pack.
    """
    from repro.staticcheck.context import AnalysisContext

    unit_list = list(units)
    if context is None:
        context = AnalysisContext(unit_list)
    findings: List[Finding] = []

    def admit(finding: Finding, checked_unit: Optional[ModuleUnit]) -> None:
        if not context.should_report(finding.path):
            return
        # Suppressions live in the file the finding lands in, which for
        # universe-scope rules need not be the unit being iterated.
        target = context.by_path.get(finding.path, checked_unit)
        if target is not None and is_suppressed(finding, target.suppressions):
            return
        findings.append(finding)

    for unit in unit_list:
        if not context.should_report(unit.rel_path):
            continue  # --changed: file-scope findings land in their own file
        for rule in rules:
            if rule.scope != "file" or not rule.applies_to(unit):
                continue
            for finding in rule.check(unit, context):
                admit(finding, unit)
    for rule in rules:
        if rule.scope == "universe":
            for finding in rule.check_universe(context):
                admit(finding, None)
    return findings


def all_rules() -> List[AstRule]:
    """Instantiate every registered AST rule (DET/EVT/SIM + CON/WID/ORD)."""
    from repro.staticcheck.rules_con import CON_RULES
    from repro.staticcheck.rules_det import DET_RULES
    from repro.staticcheck.rules_evt import EVT_RULES
    from repro.staticcheck.rules_ord import ORD_RULES
    from repro.staticcheck.rules_sim import SIM_RULES
    from repro.staticcheck.rules_wid import WID_RULES

    return [cls() for cls in (*DET_RULES, *EVT_RULES, *SIM_RULES,
                              *CON_RULES, *WID_RULES, *ORD_RULES)]


def select_rules(selectors: Optional[Sequence[str]]) -> List[AstRule]:
    """AST rules matching ``selectors`` (pack prefixes or full rule ids).

    ``None`` or an empty sequence selects everything.  ``MDL`` selectors
    are handled by the runner, not here.
    """
    rules = all_rules()
    if not selectors:
        return rules
    wanted = [selector.strip().upper() for selector in selectors]
    return [rule for rule in rules
            if any(rule.rule.startswith(item) for item in wanted)]
