"""End-to-end: run_lint over the fixtures and the repository, emitters,
and the ``repro lint`` CLI gate."""

import json
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.staticcheck import (
    Baseline,
    changed_python_files,
    run_lint,
    to_json,
    to_sarif,
    to_text,
    update_baseline,
)

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
REPO_ROOT = HERE.parents[1]

#: Every AST rule id the fixture packages must demonstrate.
AST_RULE_IDS = {"DET001", "DET002", "DET003", "DET004", "DET005",
                "EVT001", "EVT002", "EVT003", "SIM003",
                "CON001", "CON002", "CON003", "CON004",
                "WID001", "WID002", "WID003", "ORD001", "ORD002"}


@pytest.fixture(scope="module")
def fixture_report():
    return run_lint([FIXTURES], root=FIXTURES, check_models=False)


class TestFixtureGate:
    def test_fixtures_fail_the_gate(self, fixture_report):
        assert fixture_report.exit_code != 0

    def test_every_ast_rule_fires_on_the_fixtures(self, fixture_report):
        fired = {finding.rule for finding in fixture_report.new_findings}
        assert AST_RULE_IDS <= fired

    def test_paths_are_relative_to_the_lint_root(self, fixture_report):
        paths = {finding.path for finding in fixture_report.new_findings}
        assert "sim/det_unclean.py" in paths
        assert all(not path.startswith("/") for path in paths)


class TestRepositoryGate:
    def test_repository_is_clean_under_the_committed_baseline(self):
        baseline = Baseline.from_file(REPO_ROOT / "staticcheck-baseline.json")
        assert len(baseline) > 0
        report = run_lint([REPO_ROOT / "src"], root=REPO_ROOT,
                          baseline=baseline)
        assert report.new_findings == []
        assert report.exit_code == 0
        # The accepted debt is model hygiene plus a small, enumerated set
        # of sanctioned AST findings (each justified in DESIGN.md):
        # the shared ChannelScheduler heap (SIM003), the per-process
        # shard worker cache (CON003), a width sink whose bound the
        # checker cannot see (WID001), and telemetry-only event
        # kinds no monitor dispatches on (ORD002).
        ast_debt = [f for f in report.baselined_findings
                    if f.rule[:3] != "MDL"]
        by_rule = {}
        for finding in ast_debt:
            by_rule.setdefault(finding.rule, []).append(finding.path)
        assert by_rule["SIM003"] == ["src/repro/network/channel.py"]
        assert by_rule["CON003"] == ["src/repro/modelcheck/shard.py"]
        assert by_rule["WID001"] == ["src/repro/modelcheck/vector.py"]
        ord_debt = [f for f in ast_debt if f.rule == "ORD002"]
        assert len(ord_debt) == 19
        assert all(f.item.startswith("kind:") for f in ord_debt)
        assert set(by_rule) == {"SIM003", "CON003", "WID001", "ORD002"}
        assert report.stale_baseline == []

    def test_selectors_restrict_the_run(self):
        report = run_lint([REPO_ROOT / "src"], root=REPO_ROOT,
                          selectors=["DET"], check_models=False)
        assert report.models_checked == 0
        assert {info.pack for info in report.rule_infos} == {"DET"}


class TestEmitters:
    def test_sarif_is_valid_and_structured(self, fixture_report):
        document = json.loads(to_sarif(fixture_report))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in driver["rules"]}
        assert AST_RULE_IDS <= rule_ids
        results = run["results"]
        assert len(results) == len(fixture_report.findings)
        for result in results:
            assert result["ruleId"] in rule_ids
            assert result["message"]["text"]
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"]
            assert result["partialFingerprints"]["reproLint/v1"]

    def test_sarif_validates_against_the_vendored_schema(self,
                                                         fixture_report):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (HERE / "sarif-2.1.0-minimal.schema.json").read_text())
        document = json.loads(to_sarif(fixture_report))
        jsonschema.validate(document, schema)
        # The new packs appear in the validated document, not just any
        # SARIF: the fixture run exercises every rule family.
        rule_ids = {result["ruleId"]
                    for result in document["runs"][0]["results"]}
        for pack in ("CON", "WID", "ORD"):
            assert any(rule.startswith(pack) for rule in rule_ids), pack

    def test_sarif_marks_baselined_results(self, fixture_report):
        baseline = Baseline(fixture_report.new_findings)
        rebaselined = run_lint([FIXTURES], root=FIXTURES,
                               baseline=baseline, check_models=False)
        document = json.loads(to_sarif(rebaselined))
        states = {result.get("baselineState")
                  for result in document["runs"][0]["results"]}
        assert states == {"unchanged"}

    def test_json_report_structure(self, fixture_report):
        payload = json.loads(to_json(fixture_report))
        assert payload["tool"]["name"] == "repro-lint"
        assert len(payload["new"]) == len(fixture_report.new_findings)
        assert payload["baselined"] == []
        assert {rule["id"] for rule in payload["rules"]} >= AST_RULE_IDS

    def test_text_report_summarizes(self, fixture_report):
        text = to_text(fixture_report)
        assert "repro lint:" in text
        assert f"{len(fixture_report.new_findings)} new finding(s)" in text


class TestBaselineReproducibility:
    def test_update_baseline_is_byte_identical_to_the_committed_file(
            self, tmp_path):
        committed = REPO_ROOT / "staticcheck-baseline.json"
        regenerated = tmp_path / "staticcheck-baseline.json"
        update_baseline(regenerated, paths=(REPO_ROOT / "src",),
                        root=REPO_ROOT)
        assert regenerated.read_bytes() == committed.read_bytes()


class TestChangedMode:
    def test_changed_python_files_reports_relative_posix_paths(self):
        changed = changed_python_files("HEAD", REPO_ROOT)
        assert all(path.endswith(".py") for path in changed)
        assert all("\\" not in path and not path.startswith("/")
                   for path in changed)

    def test_bad_ref_raises(self):
        with pytest.raises(RuntimeError, match="git diff"):
            changed_python_files("no-such-ref-xyz", REPO_ROOT)

    def test_changed_run_restricts_findings_to_the_diff(self):
        changed = changed_python_files("HEAD", REPO_ROOT)
        report = run_lint([REPO_ROOT / "src"], root=REPO_ROOT,
                          baseline=Baseline.from_file(
                              REPO_ROOT / "staticcheck-baseline.json"),
                          changed_ref="HEAD")
        assert report.models_checked == 0  # MDL is skipped in changed mode
        for finding in report.findings:
            assert finding.path in changed

    def test_cli_changed_mode_passes_on_the_repository(self, monkeypatch,
                                                       capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "--changed", "HEAD"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_cli_changed_mode_bad_ref_exits_two(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "--changed", "no-such-ref-xyz"]) == 2
        assert "git diff" in capsys.readouterr().err


class TestTimingBudget:
    def test_full_lint_fits_the_ci_budget(self):
        baseline = Baseline.from_file(REPO_ROOT / "staticcheck-baseline.json")
        started = time.monotonic()
        report = run_lint([REPO_ROOT / "src"], root=REPO_ROOT,
                          baseline=baseline)
        elapsed = time.monotonic() - started
        assert report.exit_code == 0
        assert elapsed < 60.0, f"full lint took {elapsed:.1f}s"

    def test_changed_lint_fits_the_incremental_budget(self):
        started = time.monotonic()
        run_lint([REPO_ROOT / "src"], root=REPO_ROOT, changed_ref="HEAD",
                 baseline=Baseline.from_file(
                     REPO_ROOT / "staticcheck-baseline.json"))
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"changed lint took {elapsed:.1f}s"


class TestCli:
    def test_lint_exits_zero_on_the_repository(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_lint_exits_nonzero_on_the_fixtures(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", str(FIXTURES), "--no-models"]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_sarif_output_file(self, monkeypatch, capsys, tmp_path):
        monkeypatch.chdir(REPO_ROOT)
        target = tmp_path / "lint.sarif"
        code = main(["lint", str(FIXTURES), "--no-models",
                     "--format", "sarif", "--output", str(target)])
        assert code == 1
        document = json.loads(target.read_text())
        assert document["runs"][0]["results"]

    def test_baseline_snapshot_mode(self, monkeypatch, capsys, tmp_path):
        monkeypatch.chdir(REPO_ROOT)
        target = tmp_path / "accepted.json"
        assert main(["lint", str(FIXTURES), "--no-models",
                     "--baseline", "--baseline-file", str(target)]) == 0
        assert len(Baseline.from_file(target)) > 0
        # With the debt accepted, the same run now passes.
        assert main(["lint", str(FIXTURES), "--no-models",
                     "--baseline-file", str(target)]) == 0

    def test_rules_selection(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", str(FIXTURES), "--no-models",
                     "--rules", "EVT003", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {entry["rule"] for entry in payload["new"]} == {"EVT003"}
