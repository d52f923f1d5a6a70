"""Lint driver: discover files, run rule packs, apply the baseline.

:func:`run_lint` is the one entry point behind both the ``repro lint``
CLI and the test suite.  It walks the requested paths, builds one shared
:class:`~repro.staticcheck.context.AnalysisContext` (parsed universe,
memoized CFGs, repo call graph), runs the selected AST packs through it,
runs the MDL transition-system linter over the per-authority scenario
matrix, and partitions everything against the committed baseline.  The
exit contract is the CI gate: ``exit_code`` is 0 iff there are no *new*
findings.

Incremental mode (``repro lint --changed <git-ref>``) still parses the
*whole* universe -- the call graph and the universe-scope rules need
every module -- but findings may only land in files the diff touched,
and the per-file packs skip unchanged units entirely.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Set, Union

from repro.staticcheck.baseline import Baseline
from repro.staticcheck.context import AnalysisContext
from repro.staticcheck.findings import Finding, RuleInfo, sort_findings
from repro.staticcheck.framework import (
    ModuleUnit,
    run_ast_rules,
    select_rules,
)
from repro.staticcheck.rules_mdl import (
    DEFAULT_SLOTS,
    MDL_RULE_INFO,
    model_findings,
    run_model_rules,
)

#: Directory names never descended into during file discovery.
SKIP_DIRS = frozenset({".git", "__pycache__", ".ruff_cache", "build", "dist",
                       ".pytest_cache", ".hypothesis"})

#: Public alias: lint one in-memory model configuration (fixture tests).
lint_model_config = model_findings


@dataclass
class LintReport:
    """Outcome of one lint run."""

    new_findings: List[Finding] = field(default_factory=list)
    baselined_findings: List[Finding] = field(default_factory=list)
    rule_infos: List[RuleInfo] = field(default_factory=list)
    files_checked: int = 0
    models_checked: int = 0
    #: Baseline entries nothing matched any more (fixed accepted debt).
    stale_baseline: List[Finding] = field(default_factory=list)

    @property
    def findings(self) -> List[Finding]:
        """All current findings, new and baselined, in display order."""
        return sort_findings([*self.new_findings, *self.baselined_findings])

    @property
    def exit_code(self) -> int:
        return 1 if self.new_findings else 0


def discover_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Python files under ``paths`` (files pass through, dirs are walked)."""
    found: List[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_file():
            found.append(path)
            continue
        for candidate in sorted(path.rglob("*.py")):
            if any(part in SKIP_DIRS for part in candidate.parts):
                continue
            found.append(candidate)
    return found


def changed_python_files(git_ref: str,
                         root: Union[str, Path] = ".") -> Set[str]:
    """Repo-relative posix paths of ``.py`` files differing from ``git_ref``.

    Uncommitted changes count (``git diff <ref>`` spans worktree state).
    Raises ``RuntimeError`` when git cannot produce a diff (bad ref, not
    a repository) -- the caller decides whether to fall back to a full
    run or fail loudly.
    """
    command = ["git", "diff", "--name-only", "--diff-filter=d", git_ref]
    result = subprocess.run(command, cwd=str(root), capture_output=True,
                            text=True)
    if result.returncode != 0:
        raise RuntimeError(
            f"git diff against {git_ref!r} failed: "
            f"{result.stderr.strip() or 'unknown git error'}")
    return {line.strip() for line in result.stdout.splitlines()
            if line.strip().endswith(".py")}


def _mdl_selected(selectors: Optional[Sequence[str]]) -> List[str]:
    """MDL rule ids selected by ``selectors`` (all when unselective)."""
    all_ids = sorted(MDL_RULE_INFO)
    if not selectors:
        return all_ids
    wanted = [selector.strip().upper() for selector in selectors]
    return [rule_id for rule_id in all_ids
            if any(rule_id.startswith(item) for item in wanted)]


def _reject_unknown_selectors(selectors: Optional[Sequence[str]],
                              selected_ids: Sequence[str]) -> None:
    """Raise ``ValueError`` naming a selector that selected no rule: a
    typo or a deleted rule id would otherwise check nothing and pass."""
    for selector in selectors or ():
        item = selector.strip().upper()
        if not any(rule_id.startswith(item) for rule_id in selected_ids):
            raise ValueError(f"unknown rule selector {selector!r}: no rule "
                             f"id or pack starts with it")


def _rule_table(ast_rules, mdl_ids: Sequence[str]) -> List[RuleInfo]:
    infos = [rule.info for rule in ast_rules]
    for rule_id in mdl_ids:
        infos.append(RuleInfo(rule=rule_id,
                              description=MDL_RULE_INFO[rule_id],
                              severity="warning"))
    return infos


def run_lint(paths: Sequence[Union[str, Path]],
             root: Union[str, Path] = ".",
             selectors: Optional[Sequence[str]] = None,
             baseline: Optional[Baseline] = None,
             check_models: bool = True,
             model_slots: int = DEFAULT_SLOTS,
             changed_ref: Optional[str] = None) -> LintReport:
    """Run the selected rule packs and partition against the baseline.

    ``paths`` are files or directories to walk for the AST packs;
    ``root`` anchors the repo-relative paths findings report.  The MDL
    pack runs once per call (it reads models, not files) unless
    ``check_models`` is false or the selectors exclude it.

    ``changed_ref`` switches on incremental mode: the whole universe is
    still parsed (interprocedural facts need it), but findings are
    restricted to files differing from that git ref, and the MDL pack is
    skipped -- it lints models, not files, so a file diff cannot scope
    it.  Run without ``--changed`` (CI does) to get MDL coverage.

    Raises ``ValueError`` when a selector matches no rule.
    """
    root = Path(root)
    ast_rules = select_rules(selectors)
    mdl_ids = _mdl_selected(selectors)
    _reject_unknown_selectors(
        selectors, [*(rule.rule for rule in ast_rules), *mdl_ids])
    report_paths: Optional[Set[str]] = None
    if changed_ref is not None:
        report_paths = changed_python_files(changed_ref, root)
        check_models = False
    if not check_models:
        mdl_ids = []

    units: List[ModuleUnit] = []
    for path in discover_files(paths):
        units.append(ModuleUnit.load(path, root))
    context = AnalysisContext(units, report_paths=report_paths)
    findings = run_ast_rules(ast_rules, units, context)

    models_checked = 0
    if mdl_ids:
        model_results = [finding for finding in run_model_rules(model_slots)
                         if finding.rule in mdl_ids]
        findings.extend(model_results)
        models_checked = 4  # one scenario per coupler authority

    baseline = baseline or Baseline()
    new, baselined = baseline.partition(findings)
    return LintReport(
        new_findings=sort_findings(new),
        baselined_findings=sort_findings(baselined),
        rule_infos=_rule_table(ast_rules, mdl_ids),
        files_checked=len(units),
        models_checked=models_checked,
        stale_baseline=baseline.stale_entries(findings))


def update_baseline(baseline_path: Union[str, Path],
                    paths: Sequence[Union[str, Path]] = ("src",),
                    root: Union[str, Path] = ".",
                    check_models: bool = True,
                    model_slots: int = DEFAULT_SLOTS) -> Baseline:
    """Regenerate the baseline from a full lint run and write it.

    The output is deterministic -- findings are sorted and serialized
    with a fixed layout -- so regenerating from an unchanged tree is
    byte-identical to the committed file (a tier-1 test holds the repo
    to that).  Stale entries vanish by construction: only findings the
    current tree actually produces are written.
    """
    report = run_lint(paths, root=root, baseline=Baseline(),
                      check_models=check_models, model_slots=model_slots)
    fresh = Baseline(report.new_findings)
    fresh.write(baseline_path)
    return fresh
