"""Tests for the event bus (trace monitor)."""

import io
import json

import pytest

from repro.obs.events import (Activated, Freeze, FrameSent, OutOfSlotReplay,
                              StateChange)
from repro.sim.monitor import MAX_LISTENER_ERRORS, TraceMonitor


def make_monitor():
    monitor = TraceMonitor()
    monitor.emit(StateChange(1.0, "node:A", state="listen"))
    monitor.emit(StateChange(2.0, "node:B", state="listen"))
    monitor.emit(FrameSent(3.0, "node:A", frame_kind="cold_start"))
    monitor.emit(OutOfSlotReplay(4.0, "coupler:c0"))
    return monitor


def test_records_in_order():
    monitor = make_monitor()
    assert [record.time for record in monitor] == [1.0, 2.0, 3.0, 4.0]
    assert len(monitor) == 4


def test_select_by_source():
    monitor = make_monitor()
    assert len(monitor.select(source="node:A")) == 2


def test_select_by_kind():
    monitor = make_monitor()
    assert len(monitor.select(kind="state")) == 2


def test_select_by_time_window():
    monitor = make_monitor()
    assert [record.time for record in monitor.select(after=2.0, before=3.0)] == [2.0, 3.0]


def test_select_combined_filters():
    monitor = make_monitor()
    records = monitor.select(source="node:A", kind="send")
    assert len(records) == 1
    # Defaulted detail fields (here: slot) appear in the details too.
    assert isinstance(records[0], FrameSent)
    assert records[0].details == {"frame_kind": "cold_start", "slot": 0}


def test_first_and_count():
    monitor = make_monitor()
    assert monitor.first("state").source == "node:A"
    assert monitor.first("missing") is None
    assert monitor.count("state") == 2
    assert monitor.count("state", source="node:B") == 1


def test_sources_first_appearance_order():
    monitor = make_monitor()
    assert monitor.sources() == ["node:A", "node:B", "coupler:c0"]


def test_disabled_monitor_records_nothing():
    monitor = TraceMonitor(enabled=False)
    monitor.emit(StateChange(1.0, "x"))
    assert len(monitor) == 0


def test_subscribe_listener_sees_future_records():
    monitor = TraceMonitor()
    seen = []
    monitor.subscribe(seen.append)
    monitor.emit(Activated(1.0, "a"))
    assert len(seen) == 1
    assert seen[0].kind == "activated"


def test_clear_keeps_listeners():
    monitor = TraceMonitor()
    seen = []
    monitor.subscribe(seen.append)
    monitor.emit(Activated(1.0, "a"))
    monitor.clear()
    assert len(monitor) == 0
    monitor.emit(Freeze(2.0, "a"))
    assert len(seen) == 2


def test_describe_format():
    record = Freeze(time=1.5, source="node:A", reason="clique_error")
    assert record.describe() == ("[t=1.500000] node:A: freeze "
                                 "reason=clique_error was_integrated=False")


def test_format_with_limit():
    monitor = make_monitor()
    text = monitor.format(limit=2)
    assert "2 more" in text
    assert text.count("\n") == 2


def test_records_property_is_copy():
    monitor = make_monitor()
    snapshot = monitor.records
    snapshot.clear()
    assert len(monitor) == 4


def test_emit_typed_event():
    monitor = TraceMonitor()
    monitor.emit(StateChange(time=1.0, source="node:A", state="listen"))
    assert monitor.first("state").details == {"state": "listen"}


def test_unsubscribe_stops_delivery():
    monitor = TraceMonitor()
    seen = []
    listener = monitor.subscribe(seen.append)
    monitor.emit(Activated(1.0, "a"))
    monitor.unsubscribe(listener)
    monitor.emit(Freeze(2.0, "a"))
    assert len(seen) == 1
    assert monitor.listener_count == 0


def test_unsubscribe_unknown_listener_is_ignored():
    monitor = TraceMonitor()
    monitor.unsubscribe(lambda event: None)
    assert monitor.listener_count == 0


def test_raising_listener_is_isolated():
    monitor = TraceMonitor()

    def bad(event):
        raise RuntimeError("boom")

    seen = []
    monitor.subscribe(bad)
    monitor.subscribe(seen.append)
    monitor.emit(Activated(1.0, "a"))
    # The other listener still ran, the event was stored, and the error
    # was kept for inspection.
    assert len(seen) == 1
    assert len(monitor) == 1
    assert len(monitor.listener_errors) == 1
    assert isinstance(monitor.listener_errors[0].error, RuntimeError)


def test_listener_error_log_is_bounded():
    monitor = TraceMonitor()

    def bad(event):
        raise ValueError(str(event.time))

    monitor.subscribe(bad)
    for step in range(MAX_LISTENER_ERRORS + 7):
        monitor.emit(Activated(float(step), "a"))
    assert len(monitor.listener_errors) == MAX_LISTENER_ERRORS
    # Oldest errors were discarded: the first retained one is not t=0.
    assert str(monitor.listener_errors[0].error) == "7.0"


def test_ring_buffer_evicts_oldest():
    monitor = TraceMonitor(capacity=3)
    for step in range(5):
        monitor.emit(Activated(float(step), "a"))
    assert len(monitor) == 3
    assert [record.time for record in monitor] == [2.0, 3.0, 4.0]
    assert monitor.dropped_count == 2


def test_ring_buffer_counters_survive_eviction():
    monitor = TraceMonitor(capacity=2)
    for step in range(5):
        monitor.emit(Activated(float(step), "a"))
    assert monitor.count("activated") == 2  # retained
    assert monitor.kind_count("activated") == 5  # ever emitted


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        TraceMonitor(capacity=0)


def test_kind_counts_copy():
    monitor = make_monitor()
    counts = monitor.kind_counts
    assert counts == {"state": 2, "send": 1, "out_of_slot_replay": 1}
    counts["state"] = 99
    assert monitor.kind_count("state") == 2


def test_clear_resets_counters_and_drops():
    monitor = TraceMonitor(capacity=1)
    monitor.emit(Activated(1.0, "a"))
    monitor.emit(Activated(2.0, "a"))
    assert monitor.dropped_count == 1
    monitor.clear()
    assert monitor.dropped_count == 0
    assert monitor.kind_counts == {}


def test_jsonl_round_trip_through_stream():
    monitor = make_monitor()
    buffer = io.StringIO()
    assert monitor.export_jsonl(buffer) == 4
    buffer.seek(0)
    events = TraceMonitor.read_jsonl(buffer)
    assert [event.to_dict() for event in events] == [
        record.to_dict() for record in monitor]


def test_from_jsonl_rebuilds_queryable_monitor(tmp_path):
    monitor = make_monitor()
    path = str(tmp_path / "events.jsonl")
    monitor.export_jsonl(path)
    imported = TraceMonitor.from_jsonl(path)
    assert len(imported) == 4
    assert imported.count("state") == 2
    assert imported.sources() == monitor.sources()


def test_read_jsonl_skips_blank_lines():
    lines = ['{"time": 1.0, "source": "a", "kind": "state", "details": {}}',
             "", "   "]
    events = TraceMonitor.read_jsonl(lines)
    assert len(events) == 1
    assert events[0].kind == "state"


def test_read_jsonl_names_the_line_of_a_malformed_record(tmp_path):
    good = '{"time": 1.0, "source": "a", "kind": "state", "details": {}}'
    path = tmp_path / "events.jsonl"
    path.write_text(f"{good}\n\n{{not json\n{good}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"events\.jsonl:3: ") as caught:
        TraceMonitor.read_jsonl(str(path))
    assert isinstance(caught.value.__cause__, json.JSONDecodeError)


@pytest.mark.parametrize("record", [
    "42",
    "null",
    "[1, 2]",
    '{"source": "a", "kind": "state", "details": {}}',
    '{"time": 1.0, "kind": "state"}',
    '{"time": "abc", "source": "a", "kind": "state", "details": {}}',
    '{"time": true, "source": "a", "kind": "state", "details": {}}',
    '{"time": 1.0, "source": 7, "kind": "state", "details": {}}',
    '{"time": 1.0, "source": "a", "kind": ["b"], "details": {}}',
    '{"time": 1.0, "source": "a", "kind": "state", "details": 5}',
    '{"time": 1.0, "source": "a", "kind": "state", "details": [1]}',
    '{"time": 1.0, "source": "a", "kind": "state", "details": {"time": 2}}',
    '{"time": 1.0, "source": "a", "kind": "integrated", '
    '"details": {"slot": "abc", "via": "cold_start"}}',
    '{"time": 1.0, "source": "a", "kind": "integrated", '
    '"details": {"slot": 2, "via": 7}}',
    '{"time": 1.0, "source": "a", "kind": "integrated", '
    '"details": {"slot": true}}',
    '{"time": 1.0, "source": "a", "kind": "activated", '
    '"details": {"round_start": "0.5"}}',
    '{"time": 1.0, "source": "a", "kind": "freeze", '
    '"details": {"was_integrated": 1}}',
    '{"time": 1.0, "source": "a", "kind": "slot_failed", '
    '"details": {"frame_time": 1.5}}',
    '{"time": 1.0, "source": "a", "kind": "slot_failed", '
    '"details": {"frame_members": [1, "x"]}}',
    '{"time": 1.0, "source": "a", "kind": "slot_failed", '
    '"details": {"my_members": 3}}',
    '{"time": 1.0, "source": "node:B", "kind": "integrate", '
    '"details": {"via": "c_state", "slot": 2}}',
    '{"time": 1.0, "source": "node:B", "kind": "integrated", '
    '"details": {"via": "c_state", "slots": 2}}',
], ids=["number", "null", "array", "missing-time", "missing-source",
        "string-time", "bool-time", "number-source", "array-kind",
        "number-details", "array-details", "details-repeat-time",
        "string-int-detail", "number-str-detail", "bool-int-detail",
        "string-float-detail", "int-bool-detail",
        "float-optional-int-detail", "mixed-list-detail",
        "int-list-detail", "unknown-kind", "undeclared-detail"])
def test_read_jsonl_names_the_line_of_a_bad_record(tmp_path, record):
    good = '{"time": 1.0, "source": "a", "kind": "state", "details": {}}'
    path = tmp_path / "events.jsonl"
    path.write_text(f"{good}\n\n{record}\n{good}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"events\.jsonl:3: "):
        TraceMonitor.read_jsonl(str(path))


def test_read_jsonl_accepts_declared_detail_types():
    """JSON cannot keep 1.0 apart from 1, so an int loads as a float
    field; ``None`` and int lists load as their Optional fields."""
    events = TraceMonitor.read_jsonl([
        '{"time": 1, "source": "a", "kind": "activated", '
        '"details": {"round_start": 3}}',
        '{"time": 2, "source": "a", "kind": "slot_failed", "details": '
        '{"frame_time": null, "frame_members": [0, 2], "my_members": []}}',
    ])
    assert [type(event).__name__ for event in events] == [
        "Activated", "SlotFailed"]
    assert events[0].round_start == 3
    assert events[1].frame_members == [0, 2]
    assert events[1].frame_time is None


def test_read_jsonl_accepts_null_details():
    events = TraceMonitor.read_jsonl([
        '{"time": 2.5, "source": "a", "kind": "activated", "details": null}',
    ])
    assert [(event.time, event.kind, event.details) for event in events] == [
        (2.5, "activated", {"round_start": 0.0})]
