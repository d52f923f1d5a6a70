"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_analysis_command(capsys):
    code, out = run_cli(capsys, "analysis")
    assert code == 0
    assert "115000" in out
    assert "match" in out
    assert "MISMATCH" not in out


def test_figure3_command(capsys):
    code, out = run_cli(capsys, "figure3", "--points", "4")
    assert code == 0
    assert "25.6" in out  # the 128-bit reference point


def test_leaky_command(capsys):
    code, out = run_cli(capsys, "leaky")
    assert code == 0
    assert "ok" in out
    assert "DIVERGED" not in out


def test_verify_command(capsys):
    code, out = run_cli(capsys, "verify")
    assert code == 0
    assert out.count("HOLDS") == 3
    assert out.count("VIOLATED") == 1


@pytest.mark.parametrize("command", [["verify"], ["conform", "trace1"]],
                         ids=["verify", "conform"])
def test_engine_choices_leave_out_the_tuple_engine(command):
    """The tuple engine is a library option, not a command-line one."""
    parser = build_parser()
    assert parser.parse_args(command + ["--engine", "packed"]).engine \
        == "packed"
    with pytest.raises(SystemExit):
        parser.parse_args(command + ["--engine", "tuple"])


def test_trace_coldstart_command(capsys):
    code, out = run_cli(capsys, "trace", "coldstart")
    assert code == 0  # 0 = counterexample found, as expected
    assert "PROPERTY VIOLATED" in out
    assert "out_of_slot" in out


def test_trace_narrate_flag(capsys):
    code, out = run_cli(capsys, "trace", "coldstart", "--narrate")
    assert code == 0
    assert out.startswith("1) Initially, all nodes are in the freeze state.")
    assert "clique avoidance error." in out


def test_trace_cstate_command(capsys):
    code, out = run_cli(capsys, "trace", "cstate")
    assert code == 0
    assert "c_state" in out


def test_campaign_command(capsys):
    code, out = run_cli(capsys, "campaign", "--rounds", "40")
    assert code == 0
    assert "sos_signal" in out
    assert "propagated" in out
    assert "contained" in out


def test_campaign_resilience_flags_checkpoint_and_resume(capsys, tmp_path):
    checkpoint = str(tmp_path / "campaign.jsonl")
    code, first = run_cli(capsys, "campaign", "--rounds", "8",
                          "--retries", "1", "--checkpoint", checkpoint)
    assert code == 0
    assert "sos_signal" in first

    code, resumed = run_cli(capsys, "campaign", "--rounds", "8",
                            "--retries", "1", "--checkpoint", checkpoint,
                            "--resume")
    assert code == 0
    assert resumed == first


def test_verify_resilience_flags(capsys, tmp_path):
    checkpoint = str(tmp_path / "verify.jsonl")
    code, out = run_cli(capsys, "verify", "--retries", "1",
                        "--task-timeout", "600", "--checkpoint", checkpoint)
    assert code == 0
    assert out.count("HOLDS") == 3
    assert out.count("VIOLATED") == 1


def test_resume_without_checkpoint_rejected():
    with pytest.raises(SystemExit, match="--resume requires --checkpoint"):
        main(["campaign", "--rounds", "8", "--resume"])


def test_campaign_rejects_bad_jobs():
    with pytest.raises(SystemExit):
        main(["campaign", "--jobs", "0"])


def test_statespace_command(capsys):
    code, out = run_cli(capsys, "statespace", "--authority", "passive")
    assert code == 0
    assert "reachable states" in out
    assert "14772" in out


def test_statespace_max_states(capsys):
    code, out = run_cli(capsys, "statespace", "--authority", "passive",
                        "--max-states", "100")
    assert code == 0
    assert "truncated" in out


@pytest.mark.parametrize("value", ["0", "-5"])
def test_statespace_rejects_non_positive_max_states(capsys, value):
    with pytest.raises(SystemExit) as exited:
        main(["statespace", "--max-states", value])
    assert exited.value.code == 2
    assert "--max-states: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "statespace", "lint"])
@pytest.mark.parametrize("value", ["1", "0"])
def test_slots_below_two_is_a_usage_error(capsys, command, value):
    with pytest.raises(SystemExit) as exited:
        main([command, "--slots", value])
    assert exited.value.code == 2
    assert "--slots: the model needs at least 2 slots" in (
        capsys.readouterr().err)


def test_blocking_command(capsys):
    code, out = run_cli(capsys, "blocking")
    assert code == 0
    assert "blast radius" in out
    assert "4/4 active" in out


def test_clocksync_command(capsys):
    code, out = run_cli(capsys, "clocksync", "--rounds", "150")
    assert code == 0
    assert "active/freeze" in out  # the no-sync row falls apart


def test_report_command(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out = run_cli(capsys, "report", "--output", str(target))
    assert code == 0
    assert "REPRODUCTION REPORT" in out
    assert out.count("match") >= 8
    assert "MISMATCH" not in out
    assert target.exists()
    assert "EXP-V1" in target.read_text()


def test_events_command_streams_jsonl(capsys):
    import json

    code, out = run_cli(capsys, "events", "startup", "--rounds", "3")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert lines
    first = json.loads(lines[0])
    assert {"time", "source", "kind", "details"} <= set(first)


def test_events_command_writes_file(capsys, tmp_path):
    target = tmp_path / "events.jsonl"
    code, out = run_cli(capsys, "events", "startup", "--rounds", "3",
                        "--jsonl", str(target))
    assert code == 0
    assert "events" in out and str(target) in out
    from repro.sim.monitor import TraceMonitor

    events = TraceMonitor.read_jsonl(str(target))
    assert events
    assert any(event.kind == "state" for event in events)


def test_events_command_capacity_bounds_stream(capsys):
    code, out = run_cli(capsys, "events", "trace1", "--capacity", "50")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 50


def test_events_command_rejects_bad_values():
    with pytest.raises(SystemExit):
        main(["events", "startup", "--rounds", "0"])
    with pytest.raises(SystemExit):
        main(["events", "startup", "--capacity", "0"])
    with pytest.raises(SystemExit):
        main(["events", "nonsense"])


def test_conform_command(capsys, tmp_path):
    target = tmp_path / "conform.jsonl"
    code, out = run_cli(capsys, "conform", "trace1", "--jsonl", str(target))
    assert code == 0
    assert "trace1: CONFORMS" in out
    assert "DIFF" not in out
    assert target.exists()


def test_conform_command_all_scenarios(capsys):
    code, out = run_cli(capsys, "conform", "all")
    assert code == 0
    assert "trace1: CONFORMS" in out
    assert "trace2: CONFORMS" in out


def _assert_loads_back(path, skip_header=False):
    """Every event line of ``path`` loads through the closed importer as
    the event that was written (an extra ``stream`` tag stays on the
    line, outside the event)."""
    import json

    from repro.sim.monitor import TraceMonitor

    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if skip_header:
        lines = lines[1:]
    written = [json.loads(line) for line in lines]
    events = TraceMonitor.read_jsonl(lines)
    assert events and len(events) == len(written)
    for event, entry in zip(events, written):
        tag = {"stream": entry["stream"]} if "stream" in entry else {}
        assert dict(event.to_dict(), **tag) == entry


@pytest.mark.parametrize("scenario", ["startup", "trace1", "trace2"])
def test_events_export_loads_back(capsys, tmp_path, scenario):
    target = tmp_path / "events.jsonl"
    code, _ = run_cli(capsys, "events", scenario, "--jsonl", str(target))
    assert code == 0
    _assert_loads_back(target)


def test_conform_export_loads_back(capsys, tmp_path):
    prefix = tmp_path / "conform-events"
    code, _ = run_cli(capsys, "conform", "all", "--jsonl", str(prefix))
    assert code == 0
    for name in ("trace1", "trace2"):
        _assert_loads_back(f"{prefix}.{name}.jsonl")


def test_adversarial_preset_export_loads_back(capsys, tmp_path):
    target = tmp_path / "adversarial-collision.jsonl"
    code, _ = run_cli(capsys, "campaign", "--preset", "adversarial-collision",
                      "--seed", "0", "--jsonl", str(target))
    assert code == 0
    _assert_loads_back(target, skip_header=True)


def test_conform_command_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["conform", "nonsense"])


def test_gen_emit_writes_canonical_config(capsys, tmp_path):
    path = tmp_path / "c8.json"
    code, out = run_cli(capsys, "gen", "emit", "--nodes", "8", "--seed", "7",
                        "--ppm-band", "200", "--out", str(path))
    assert code == 0
    assert str(path) in out
    from repro.gen import GenConfig

    config = GenConfig.load(path)
    assert config.nodes == 8
    assert config.seed == 7
    assert config.ppm.kind == "uniform"
    # Canonical encoding: emitting the loaded config reproduces the file.
    assert path.read_text() == config.dumps()


def test_gen_emit_to_stdout(capsys):
    code, out = run_cli(capsys, "gen", "emit", "--nodes", "4")
    assert code == 0
    assert '"nodes": 4' in out


def test_gen_validate_accepts_good_config(capsys, tmp_path):
    path = tmp_path / "c64.json"
    run_cli(capsys, "gen", "emit", "--nodes", "64", "--out", str(path))
    code, out = run_cli(capsys, "gen", "validate", "--config", str(path))
    assert code == 0
    assert "ok: 64-node star cluster" in out


def test_gen_validate_rejects_bad_config(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nodes": 65}\n')
    code = main(["gen", "validate", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid" in captured.err


def test_gen_describe(capsys, tmp_path):
    path = tmp_path / "c16.json"
    run_cli(capsys, "gen", "emit", "--nodes", "16", "--out", str(path))
    code, out = run_cli(capsys, "gen", "describe", "--config", str(path))
    assert code == 0
    assert "nodes" in out
    assert "16" in out
    assert "(auto)" in out


def test_gen_validate_requires_config():
    with pytest.raises(SystemExit):
        main(["gen", "validate"])


def test_sweep_command_writes_report(capsys, tmp_path):
    report = tmp_path / "sweep.json"
    code, out = run_cli(capsys, "sweep", "--sizes", "3,4", "--rounds", "12",
                        "--report", str(report))
    assert code == 0
    assert "scale sweep" in out
    assert report.exists()
    import json

    data = json.loads(report.read_text())
    assert [row["nodes"] for row in data["rows"]] == [3, 4]


def test_sweep_rejects_bad_sizes():
    with pytest.raises(SystemExit):
        main(["sweep", "--rounds", "12"])  # --sizes is required


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["nonsense"])
