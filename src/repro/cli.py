"""Command-line interface.

``repro verify``      -- the Section 5.2 verification matrix (EXP-V1)
``repro trace``       -- render a counterexample trace (EXP-T1 / EXP-T2)
``repro analysis``    -- Section 6 worked examples (EXP-E1..E3)
``repro figure3``     -- the Figure 3 series (EXP-F3)
``repro campaign``    -- DES fault-injection campaign (EXP-S2)
``repro leaky``       -- leaky-bucket buffer validation (EXP-S1)
``repro events``      -- run a named scenario, emit its JSONL event stream
``repro conform``     -- replay a counterexample on the DES (EXP-S3)
``repro lint``        -- domain-aware static analysis (DET/EVT/SIM/MDL)
``repro gen``         -- emit/validate/describe a generated-cluster config
``repro sweep``       -- containment / startup-latency sweeps vs cluster size
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.tables import format_table
from repro.core.authority import CouplerAuthority

#: ``--engine`` choices of ``verify`` and ``conform``.  The tuple engine
#: stays a library option (``InvariantChecker(engine="tuple")``).
ENGINE_CHOICES = ("auto", "packed", "vectorized")
ENGINE_HELP = ("BFS engine (default: auto = the exact array engine when "
               "numpy imports and the model's node blocks fit uint64 "
               "words, else packed; packed = scalar integer-state search; "
               "vectorized = the array engine, counting the whole "
               "violating BFS level)")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _slot_count(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(
            f"the model needs at least 2 slots, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _resilience_kwargs(args: argparse.Namespace) -> dict:
    """The TaskRunner pass-through options shared by verify and campaign."""
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint PATH "
                         "(the file to restore finished tasks from)")
    return {"retries": args.retries, "task_timeout": args.task_timeout,
            "checkpoint": args.checkpoint, "resume": args.resume}


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--retries", type=int, default=0,
                        help="re-run a failing task up to N times "
                             "(default: 0)")
    parser.add_argument("--task-timeout", type=_positive_float, default=None,
                        dest="task_timeout", metavar="SECONDS",
                        help="per-task wall-clock budget; a task past it "
                             "counts as failed and is retried "
                             "(default: unlimited)")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="stream finished tasks to this JSONL file "
                             "as they complete")
    parser.add_argument("--resume", action="store_true",
                        help="restore finished tasks from --checkpoint and "
                             "run only the rest")


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.verification import verify_all_authorities

    results = verify_all_authorities(slots=args.slots, engine=args.engine,
                                     jobs=args.jobs,
                                     **_resilience_kwargs(args))
    rows = []
    for authority, result in results.items():
        rows.append((authority.value,
                     "HOLDS" if result.property_holds else "VIOLATED",
                     result.check.states_explored,
                     f"{result.check.elapsed_seconds:.2f}s",
                     "-" if result.counterexample is None
                     else f"{len(result.counterexample)} slots"))
    print(format_table(
        ["coupler authority", "property", "states", "time", "counterexample"],
        rows, title="EXP-V1: verification matrix (paper Section 5.2)"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.verification import verify_config
    from repro.model.scenarios import trace1_scenario, trace2_scenario

    config = trace2_scenario() if args.variant == "cstate" else trace1_scenario()
    result = verify_config(config)
    if args.narrate:
        from repro.model.narrate import narrate_trace

        print(narrate_trace(result.counterexample, result.config))
    else:
        print(result.narrate())
    return 0 if not result.property_holds else 1


def _cmd_analysis(_args: argparse.Namespace) -> int:
    from repro.analysis.examples import worked_examples

    rows = []
    for example in worked_examples():
        rows.append((example.equation, example.description,
                     f"{example.paper_value:g}",
                     f"{example.computed_value:g}",
                     "match" if example.matches else "MISMATCH"))
    print(format_table(["eq", "quantity", "paper", "computed", "verdict"],
                       rows, title="EXP-E1..E3: Section 6 worked examples"))
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    from repro.analysis.figure3 import figure3_reference_points, figure3_series
    from repro.analysis.sweep import geometric_range

    f_max_values = geometric_range(args.f_min, args.f_max_limit, args.points)
    series = figure3_series(args.f_min, f_max_values)
    rows = [(f"{point.f_max:.0f}", f"{point.ratio_limit:.4f}") for point in series]
    print(format_table(["f_max (bits)", "rho_max/rho_min limit"], rows,
                       title=f"EXP-F3: Figure 3 series (f_min={args.f_min:g}, le=4)"))
    print()
    ref_rows = [(p.f_min, p.f_max, f"{p.ratio_limit:.4f}")
                for p in figure3_reference_points()]
    print(format_table(["f_min", "f_max", "ratio limit"], ref_rows,
                       title="reference points (incl. the paper's 128-bit note)"))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.preset is not None:
        from repro.faults.campaign import run_adversarial_preset

        result = run_adversarial_preset(args.preset, seed=args.seed,
                                        rounds=args.rounds)
        print(format_table(result.columns, result.rows,
                           title=f"EXP-S5: {result.preset} (seed {args.seed})"))
        for name, met in sorted(result.verdicts.items()):
            print(f"  {name}: {'ok' if met else 'FAILED'}")
        if args.jsonl is not None:
            written = result.export_jsonl(args.jsonl)
            print(f"  wrote {written} lines to {args.jsonl}")
        return 0 if result.holds else 1
    from repro.faults.campaign import run_campaign

    result = run_campaign(rounds=args.rounds, jobs=args.jobs,
                          **_resilience_kwargs(args))
    rows = [(row["fault"], row.get("bus", "?"), row.get("star", "?"))
            for row in result.containment_table()]
    print(format_table(["fault", "bus topology", "star + central guardian"],
                       rows, title="EXP-S2: fault containment, bus vs star"))
    return 0


def _cmd_leaky(args: argparse.Namespace) -> int:
    from repro.core.buffer_analysis import minimum_buffer_bits
    from repro.network.star_coupler import ForwardingBuffer
    from repro.sim.clock import ppm_to_rate

    rows = []
    for frame_bits in (28, 76, 2076, 115000):
        buffer_model = ForwardingBuffer(in_rate=ppm_to_rate(-args.ppm),
                                        out_rate=ppm_to_rate(args.ppm))
        delta_rho = ((buffer_model.out_rate - buffer_model.in_rate)
                     / buffer_model.out_rate)
        result = buffer_model.simulate(frame_bits)
        predicted = minimum_buffer_bits(delta_rho, frame_bits)
        rows.append((frame_bits, f"{result.peak_occupancy_bits:.4f}",
                     f"{predicted:.4f}", "no" if result.underrun else "no",
                     "ok" if abs(result.peak_occupancy_bits - predicted) < 1.0
                     else "DIVERGED"))
    print(format_table(
        ["frame bits", "measured peak", "eq. (1) B_min", "underrun", "verdict"],
        rows, title=f"EXP-S1: leaky-bucket buffer occupancy (+/-{args.ppm:g} ppm)"))
    return 0


def _cmd_statespace(args: argparse.Namespace) -> int:
    from repro.analysis.statespace import explore
    from repro.analysis.tables import format_kv
    from repro.model.scenarios import scenario_for_authority
    from repro.model.system_model import TTAStartupModel

    authority = CouplerAuthority(args.authority)
    system = TTAStartupModel(scenario_for_authority(authority,
                                                    slots=args.slots))
    stats = explore(system, max_states=args.max_states)
    print(format_kv(stats.rows(),
                    title=f"State space: {authority.value}, {args.slots} nodes"))
    if stats.truncated:
        print("  (truncated by --max-states)")
    return 0


def _cmd_blocking(_args: argparse.Namespace) -> int:
    from repro.faults.campaign import guardian_vs_coupler_blocking

    result = guardian_vs_coupler_blocking()
    rows = [
        ("bus: local guardian of B blocks all",
         ",".join(result.bus_victims) or "-",
         f"{len(result.bus_active)}/4 active"),
        ("star: central guardian of ch0 blocks all",
         ",".join(result.star_victims) or "-",
         f"{len(result.star_active)}/4 active "
         f"(ch0 delivered {result.star_channel0_delivered}, "
         f"ch1 {result.star_channel1_delivered})"),
    ]
    print(format_table(["fault", "healthy victims", "outcome"], rows,
                       title="EXP-S4: blast radius of a block-all fault"))
    return 0


def _cmd_clocksync(args: argparse.Namespace) -> int:
    from repro.cluster import Cluster, ClusterSpec
    from repro.ttp.controller import ControllerConfig

    ppm = {"A": args.ppm, "B": -args.ppm, "C": args.ppm / 2,
           "D": -args.ppm / 2}
    rows = []
    for sync_enabled in (True, False):
        spec = ClusterSpec(topology="star", node_ppm=dict(ppm))
        if not sync_enabled:
            spec.node_configs = {
                name: ControllerConfig(clock_sync_enabled=False)
                for name in ppm}
        cluster = Cluster(spec)
        cluster.power_on()
        cluster.run(rounds=args.rounds)
        states = sorted({state.value for state in cluster.states().values()})
        rows.append(("on" if sync_enabled else "off",
                     "/".join(states),
                     ",".join(cluster.healthy_victims()) or "-"))
    print(format_table(["clock sync", f"states after {args.rounds:g} rounds",
                        "victims"], rows,
                       title=f"EXP-S5: +/-{args.ppm:g} ppm crystals"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    text = generate_report()
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\n(report written to {args.output})")
    return 0


def _events_cluster(scenario: str, capacity: Optional[int]):
    """Build the named scenario's cluster (powered off)."""
    from repro.conformance import SCENARIOS

    if scenario == "startup":
        from repro.cluster import Cluster, ClusterSpec

        return Cluster(ClusterSpec(topology="star",
                                   monitor_capacity=capacity))
    return SCENARIOS[scenario].build_cluster(monitor_capacity=capacity)


def _cmd_events(args: argparse.Namespace) -> int:
    cluster = _events_cluster(args.scenario, args.capacity)
    cluster.power_on()
    cluster.run(rounds=args.rounds)
    if args.jsonl:
        written = cluster.monitor.export_jsonl(args.jsonl)
        print(f"{written} events ({len(cluster.monitor.kind_counts)} kinds, "
              f"{cluster.monitor.dropped_count} dropped) -> {args.jsonl}")
    else:
        cluster.monitor.export_jsonl(sys.stdout)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.staticcheck import (
        Baseline,
        run_lint,
        to_json,
        to_sarif,
        to_text,
        update_baseline,
    )

    paths = args.paths or ["src"]
    selectors = None
    if args.rules:
        selectors = [part.strip() for chunk in args.rules
                     for part in chunk.split(",") if part.strip()]

    if args.update_baseline:
        fresh = update_baseline(args.baseline_file, paths=paths, root=".",
                                check_models=not args.no_models,
                                model_slots=args.slots)
        print(f"baseline written: {len(fresh)} finding(s) "
              f"-> {args.baseline_file}")
        return 0

    baseline = Baseline.from_file(args.baseline_file)
    try:
        report = run_lint(paths, root=".", selectors=selectors,
                          baseline=baseline, check_models=not args.no_models,
                          model_slots=args.slots, changed_ref=args.changed)
    except ValueError as error:  # a --rules selector that matches no rule
        print(f"repro lint: error: {error}", file=sys.stderr)
        return 2
    except RuntimeError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2

    if args.baseline:
        Baseline(report.findings).write(args.baseline_file)
        print(f"baseline written: {len(report.findings)} finding(s) "
              f"-> {args.baseline_file}")
        return 0

    rendered = {"text": to_text, "json": to_json,
                "sarif": to_sarif}[args.format](report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(to_text(report))
        print(f"({args.format} report written to {args.output})")
    else:
        print(rendered)
    full_run = not (args.rules or args.no_models or args.paths
                    or args.changed)
    if (full_run and report.stale_baseline
            and args.format == "text" and not args.output):
        print(f"note: {len(report.stale_baseline)} stale baseline entr(y/ies) "
              f"no longer match; refresh with --baseline")
    return report.exit_code


def _gen_config_from_args(args: argparse.Namespace):
    """Build a GenConfig from ``repro gen emit`` flags (over a base file)."""
    from repro.gen import Dist, FaultMix, GenConfig

    if args.config:
        base = GenConfig.load(args.config)
    else:
        base = GenConfig()
    overrides = {}
    for flag, field_name in (("name", "name"), ("nodes", "nodes"),
                             ("topology", "topology"),
                             ("authority", "authority"), ("seed", "seed"),
                             ("slot_duration", "slot_duration"),
                             ("modes", "modes")):
        value = getattr(args, flag)
        if value is not None:
            overrides[field_name] = value
    if args.shuffle_slots:
        overrides["shuffle_slots"] = True
    if args.ppm_band is not None:
        overrides["ppm"] = Dist.uniform(-args.ppm_band, args.ppm_band)
    if args.power_on_max is not None:
        overrides["power_on_delay"] = Dist.uniform(0.0, args.power_on_max)
    fault_overrides = {}
    if args.node_fault_density is not None:
        fault_overrides["node_density"] = args.node_fault_density
    if args.node_fault_types is not None:
        fault_overrides["node_types"] = tuple(
            part.strip() for part in args.node_fault_types.split(",")
            if part.strip())
    if args.guardian_fault_density is not None:
        fault_overrides["guardian_density"] = args.guardian_fault_density
    if args.coupler_faults is not None:
        fault_overrides["coupler_faults"] = tuple(
            part.strip() for part in args.coupler_faults.split(",")
            if part.strip())
    if args.collision_density is not None:
        fault_overrides["collision_density"] = args.collision_density
    if args.collision_types is not None:
        fault_overrides["collision_types"] = tuple(
            part.strip() for part in args.collision_types.split(",")
            if part.strip())
    if args.byzantine_density is not None:
        fault_overrides["byzantine_density"] = args.byzantine_density
    if args.byzantine_modes is not None:
        fault_overrides["byzantine_modes"] = tuple(
            part.strip() for part in args.byzantine_modes.split(",")
            if part.strip())
    if args.monitor_sampling is not None:
        fault_overrides["monitor_sampling"] = args.monitor_sampling
    if fault_overrides:
        base_faults = base.faults.to_json()
        base_faults.update(
            {key: list(value) if isinstance(value, tuple) else value
             for key, value in fault_overrides.items()})
        overrides["faults"] = FaultMix.from_json(base_faults)
    if not overrides:
        return base
    from dataclasses import replace

    return replace(base, **overrides)


def _cmd_gen(args: argparse.Namespace) -> int:
    from repro.gen import GenConfig, describe, materialize

    if args.action == "emit":
        config = _gen_config_from_args(args)
        materialize(config)  # fail fast before writing anything
        if args.out:
            config.dump(args.out)
            print(f"config written -> {args.out}")
        else:
            sys.stdout.write(config.dumps())
        return 0

    if not args.config:
        raise SystemExit(f"repro gen {args.action} requires --config PATH")
    config = GenConfig.load(args.config)
    if args.action == "validate":
        try:
            spec = materialize(config)
        except ValueError as error:
            print(f"invalid: {error}", file=sys.stderr)
            return 2
        print(f"ok: {config.nodes}-node {config.topology} cluster, "
              f"slot {spec.slot_duration:g}, "
              f"{len(spec.injected_faults)} fault(s)")
        return 0
    print(format_table(["property", "value"], describe(config),
                       title=f"generated cluster: {config.name}"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.gen import GenConfig, run_sweep
    from repro.gen.sweep import dump_report

    config = GenConfig.load(args.config) if args.config else GenConfig()
    sizes = [int(part) for chunk in args.sizes
             for part in chunk.split(",") if part.strip()]
    report = run_sweep(config, sizes=sizes, rounds=args.rounds,
                       trials=args.trials, jobs=args.jobs,
                       **_resilience_kwargs(args))
    rows = []
    for row in report["rows"]:
        containment = row["containment_rate"]
        rows.append((row["nodes"],
                     f"{row['completed_trials']}/{row['trials']}",
                     "-" if row["startup_rounds_mean"] is None
                     else f"{row['startup_rounds_mean']:g}",
                     "benign" if containment is None else f"{containment:g}",
                     row["victim_trials"]))
    print(format_table(
        ["nodes", "completed", "startup (rounds)", "containment", "victim trials"],
        rows, title=f"scale sweep: {config.name} ({config.topology}, "
                    f"{args.trials} trial(s) x {args.rounds:g} rounds)"))
    if args.report:
        dump_report(report, args.report)
        print(f"\n(report written to {args.report})")
    return 0


def _cmd_conform(args: argparse.Namespace) -> int:
    from repro.conformance import SCENARIOS, check_conformance
    from repro.core.verification import verify_config

    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    all_conform = True
    for name in names:
        scenario = SCENARIOS[name]
        result = verify_config(scenario.model_config(), engine=args.engine)
        if result.counterexample is None:
            print(f"{name}: model produced no counterexample to replay")
            all_conform = False
            continue
        cluster = scenario.run()
        report = check_conformance(result.counterexample,
                                   cluster.monitor.records,
                                   node_names=list(cluster.controllers),
                                   scenario=name)
        print(report.summary())
        all_conform = all_conform and report.conforms
        if args.jsonl:
            target = (args.jsonl if len(names) == 1
                      else f"{args.jsonl}.{name}.jsonl")
            written = cluster.monitor.export_jsonl(target)
            print(f"  ({written} DES events -> {target})")
    return 0 if all_conform else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Fault Tolerance Tradeoffs in Moving from "
                    "Decentralized to Centralized Embedded Systems' (DSN 2004)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    verify = subparsers.add_parser("verify", help="EXP-V1 verification matrix")
    verify.add_argument("--slots", type=_slot_count, default=4)
    verify.add_argument("--jobs", type=_positive_int, default=None,
                        help="fan the four checks out over N worker "
                             "processes (default: serial)")
    verify.add_argument("--engine", choices=ENGINE_CHOICES, default="auto",
                        help=ENGINE_HELP)
    _add_resilience_flags(verify)
    verify.set_defaults(func=_cmd_verify)

    trace = subparsers.add_parser("trace", help="EXP-T1/T2 counterexample traces")
    trace.add_argument("variant", choices=["coldstart", "cstate"],
                       help="coldstart: duplicated cold-start frame; "
                            "cstate: duplicated C-state frame")
    trace.add_argument("--narrate", action="store_true",
                       help="render the trace as numbered English steps, "
                            "in the paper's own style")
    trace.set_defaults(func=_cmd_trace)

    analysis = subparsers.add_parser("analysis", help="EXP-E1..E3 worked examples")
    analysis.set_defaults(func=_cmd_analysis)

    figure3 = subparsers.add_parser("figure3", help="EXP-F3 Figure 3 series")
    figure3.add_argument("--f-min", type=float, default=28.0, dest="f_min")
    figure3.add_argument("--f-max-limit", type=float, default=1e6,
                         dest="f_max_limit")
    figure3.add_argument("--points", type=int, default=12)
    figure3.set_defaults(func=_cmd_figure3)

    campaign = subparsers.add_parser("campaign", help="EXP-S2 fault injection")
    campaign.add_argument("--rounds", type=float, default=40.0)
    campaign.add_argument("--jobs", type=_positive_int, default=None,
                          help="fan the fault x topology cells out over N "
                               "worker processes (default: serial)")
    campaign.add_argument("--preset", default=None,
                          choices=["adversarial-collision",
                                   "adversarial-byzantine",
                                   "adversarial-monitors"],
                          help="run a seeded adversarial preset instead of "
                               "the EXP-S2 matrix (exit 1 if any verdict "
                               "fails)")
    campaign.add_argument("--seed", type=int, default=0,
                          help="preset seed (presets only)")
    campaign.add_argument("--jsonl", default=None, metavar="PATH",
                          help="export the preset's verdicts and event "
                               "streams as JSONL (presets only)")
    _add_resilience_flags(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    leaky = subparsers.add_parser("leaky", help="EXP-S1 leaky-bucket validation")
    leaky.add_argument("--ppm", type=float, default=100.0)
    leaky.set_defaults(func=_cmd_leaky)

    statespace = subparsers.add_parser(
        "statespace", help="structural statistics of the formal model")
    statespace.add_argument("--authority", default="full_shifting",
                            choices=[level.value for level in CouplerAuthority])
    statespace.add_argument("--slots", type=_slot_count, default=4)
    statespace.add_argument("--max-states", type=_positive_int, default=None,
                            dest="max_states")
    statespace.set_defaults(func=_cmd_statespace)

    blocking = subparsers.add_parser(
        "blocking", help="EXP-S4 block-all fault blast radius")
    blocking.set_defaults(func=_cmd_blocking)

    clocksync = subparsers.add_parser(
        "clocksync", help="EXP-S5 clock-sync necessity on drifting crystals")
    clocksync.add_argument("--ppm", type=float, default=100.0)
    clocksync.add_argument("--rounds", type=float, default=400.0)
    clocksync.set_defaults(func=_cmd_clocksync)

    events = subparsers.add_parser(
        "events", help="run a named scenario and emit its typed event "
                       "stream as JSON Lines")
    events.add_argument("scenario", choices=["startup", "trace1", "trace2"],
                        help="startup: healthy star startup; trace1/trace2: "
                             "the EXP-S3 counterexample replays")
    events.add_argument("--rounds", type=_positive_float, default=30.0,
                        help="TDMA rounds to simulate (default: 30)")
    events.add_argument("--capacity", type=_positive_int, default=None,
                        help="bound the event bus to a ring buffer of N "
                             "events (default: unbounded)")
    events.add_argument("--jsonl", default=None,
                        help="write the stream to this file "
                             "(default: stdout)")
    events.set_defaults(func=_cmd_events)

    conform = subparsers.add_parser(
        "conform", help="EXP-S3: replay a counterexample on the DES and "
                        "report slot-level agreement")
    conform.add_argument("scenario", choices=["trace1", "trace2", "all"],
                         help="which paper counterexample to replay")
    conform.add_argument("--engine", choices=ENGINE_CHOICES, default="auto",
                         help=ENGINE_HELP)
    conform.add_argument("--jsonl", default=None,
                         help="also export the DES event stream to this "
                              "file (per-scenario suffix with 'all')")
    conform.set_defaults(func=_cmd_conform)

    lint = subparsers.add_parser(
        "lint", help="domain-aware static analysis: determinism (DET), "
                     "event taxonomy (EVT), simulator processes (SIM), "
                     "transition-system hygiene (MDL), unpicklable pool "
                     "work (CON), packed widths (WID), emit ordering (ORD)")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to check (default: src)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text",
                      help="report format on stdout (default: text)")
    lint.add_argument("--rules", action="append", default=None,
                      help="restrict to rule packs or ids, comma-separated "
                           "(e.g. DET,EVT003,MDL); repeatable")
    lint.add_argument("--baseline", action="store_true",
                      help="write all current findings to the baseline file "
                           "and exit 0 (accept them)")
    lint.add_argument("--update-baseline", action="store_true",
                      dest="update_baseline",
                      help="regenerate the baseline from a full clean-slate "
                           "run (deterministic, sorted; drops stale entries) "
                           "and exit 0")
    lint.add_argument("--changed", default=None, metavar="GIT_REF",
                      help="incremental mode: restrict findings to .py files "
                           "differing from GIT_REF (whole universe still "
                           "analyzed for call-graph facts; MDL pack skipped)")
    lint.add_argument("--baseline-file", default="staticcheck-baseline.json",
                      dest="baseline_file",
                      help="baseline location "
                           "(default: staticcheck-baseline.json)")
    lint.add_argument("--output", default=None,
                      help="also write the formatted report to this file "
                           "(stdout keeps the text summary)")
    lint.add_argument("--slots", type=_slot_count, default=3,
                      help="model size for the MDL transition-system rules "
                           "(default: 3)")
    lint.add_argument("--no-models", action="store_true", dest="no_models",
                      help="skip the MDL reachability rules (AST packs only)")
    lint.set_defaults(func=_cmd_lint)

    gen = subparsers.add_parser(
        "gen", help="generate large-N cluster configs: emit a declarative "
                    "spec file, validate one, or describe what it "
                    "materializes to")
    gen.add_argument("action", choices=["emit", "validate", "describe"])
    gen.add_argument("--config", default=None, metavar="PATH",
                     help="existing config file (base for emit; required "
                          "for validate/describe)")
    gen.add_argument("--out", default=None, metavar="PATH",
                     help="emit: write the config here (default: stdout)")
    gen.add_argument("--name", default=None)
    gen.add_argument("--nodes", type=_positive_int, default=None)
    gen.add_argument("--topology", choices=["star", "bus"], default=None)
    gen.add_argument("--authority", default=None,
                     choices=[level.value for level in CouplerAuthority])
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--slot-duration", type=_positive_float, default=None,
                     dest="slot_duration",
                     help="fixed TDMA slot duration (default: auto-sized "
                          "from the widest always-sent frame)")
    gen.add_argument("--modes", type=_positive_int, default=None,
                     help="operating modes; mode 0 is the status schedule, "
                          "further modes get payload-frame slots")
    gen.add_argument("--shuffle-slots", action="store_true",
                     dest="shuffle_slots",
                     help="permute the node-to-slot assignment with a "
                          "seeded draw")
    gen.add_argument("--ppm-band", type=_positive_float, default=None,
                     dest="ppm_band", metavar="PPM",
                     help="draw per-node crystal offsets uniformly from "
                          "+/- PPM")
    gen.add_argument("--power-on-max", type=_positive_float, default=None,
                     dest="power_on_max", metavar="TIME",
                     help="draw per-node power-on delays uniformly from "
                          "[0, TIME]")
    gen.add_argument("--node-fault-density", type=float, default=None,
                     dest="node_fault_density",
                     help="fraction of nodes carrying a node fault")
    gen.add_argument("--node-fault-types", default=None,
                     dest="node_fault_types", metavar="CSV",
                     help="comma-separated FaultType values faulty nodes "
                          "draw from (e.g. sos_signal,babbling_idiot)")
    gen.add_argument("--guardian-fault-density", type=float, default=None,
                     dest="guardian_fault_density",
                     help="fraction of nodes with a faulty local guardian "
                          "(bus topology)")
    gen.add_argument("--coupler-faults", default=None, dest="coupler_faults",
                     metavar="CSV",
                     help="per-channel coupler faults, 'none' for healthy "
                          "(e.g. coupler_out_of_slot,none; star topology)")
    gen.add_argument("--collision-density", type=float, default=None,
                     dest="collision_density",
                     help="fraction of nodes running an active collision "
                          "attack")
    gen.add_argument("--collision-types", default=None,
                     dest="collision_types", metavar="CSV",
                     help="collision attacker types faulty nodes draw from "
                          "(colliding_sender,mid_frame_jammer)")
    gen.add_argument("--byzantine-density", type=float, default=None,
                     dest="byzantine_density",
                     help="fraction of nodes with a Byzantine clock")
    gen.add_argument("--byzantine-modes", default=None,
                     dest="byzantine_modes", metavar="CSV",
                     help="Byzantine clock patterns faulty nodes draw from "
                          "(rush,drag,oscillate,two_faced)")
    gen.add_argument("--monitor-sampling", type=float, default=None,
                     dest="monitor_sampling", metavar="RATE",
                     help="decentralized-monitor event sampling rate in "
                          "(0, 1]; sweeps attach per-node monitors below 1.0")
    gen.set_defaults(func=_cmd_gen)

    sweep = subparsers.add_parser(
        "sweep", help="containment-rate and startup-latency sweeps as "
                      "functions of cluster size, sharded across workers")
    sweep.add_argument("--config", default=None, metavar="PATH",
                       help="generated-cluster config (repro gen emit); "
                            "default: the benign 4-node star config")
    sweep.add_argument("--sizes", action="append", default=None,
                       required=True, metavar="CSV",
                       help="cluster sizes to sweep, comma-separated; "
                            "repeatable (e.g. --sizes 4,8,16,32,64)")
    sweep.add_argument("--rounds", type=_positive_float, default=60.0,
                       help="TDMA rounds per cell (default: 60)")
    sweep.add_argument("--trials", type=_positive_int, default=1,
                       help="independent seeds per size (default: 1)")
    sweep.add_argument("--jobs", type=_positive_int, default=None,
                       help="fan the size x trial cells out over N worker "
                            "processes (default: serial)")
    sweep.add_argument("--report", default=None, metavar="PATH",
                       help="write the deterministic JSON report here")
    _add_resilience_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    report = subparsers.add_parser(
        "report", help="run every core experiment and print the combined "
                       "paper-vs-measured report")
    report.add_argument("--output", default=None,
                        help="also write the report to this file")
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
