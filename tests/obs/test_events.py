"""Tests for the closed event taxonomy and its JSONL round trip."""

import io
import json
import typing

import pytest
from hypothesis import given, strategies as st

from repro.obs.events import (EVENT_TYPES, Event, Freeze, Integrated,
                              event_from_dict, taxonomy_rows)
from repro.sim.monitor import TraceMonitor


def test_taxonomy_is_closed_and_documented():
    rows = taxonomy_rows()
    assert len(rows) == len(EVENT_TYPES)
    assert [kind for kind, _, _ in rows] == sorted(EVENT_TYPES)
    # Every registered class is an Event subclass with a distinct kind.
    for kind, cls in EVENT_TYPES.items():
        assert issubclass(cls, Event)
        assert cls.kind == kind


def test_taxonomy_covers_every_emitting_layer():
    sample = {"state", "freeze", "integrated", "send",  # controller
              "tx_start", "tx_complete",                # channel
              "blocked_by_fault",                       # guardian
              "out_of_slot_replay", "uplink_silenced",  # coupler
              "fault_injected"}                         # injector
    assert sample <= set(EVENT_TYPES)


def test_details_exclude_time_and_source():
    event = Freeze(time=1.0, source="node:A", reason="clique_error",
                   was_integrated=True)
    assert event.details == {"reason": "clique_error", "was_integrated": True}


def test_event_from_dict_rejects_missing_keys():
    with pytest.raises(ValueError):
        event_from_dict({"time": 1.0, "source": "a"})


def test_describe_sorts_detail_fields():
    event = Integrated(0.5, "node:B", via="c_state", slot=2)
    assert event.describe() == "[t=0.500000] node:B: integrated slot=2 via=c_state"


# -- property-based JSONL round trip ------------------------------------------

_SCALARS = {
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(max_size=20),
    int: st.integers(min_value=-(2 ** 31), max_value=2 ** 31),
    bool: st.booleans(),
}


def _strategy_for(hint):
    if hint in _SCALARS:
        return _SCALARS[hint]
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        choices = [st.none() if arg is type(None) else _strategy_for(arg)
                   for arg in typing.get_args(hint)]
        return st.one_of(choices)
    if origin is list:
        return st.lists(_strategy_for(typing.get_args(hint)[0]), max_size=4)
    raise AssertionError(f"unhandled detail field type {hint!r}")


def _typed_event_strategy():
    def build(cls):
        hints = typing.get_type_hints(cls)
        detail_names = [name for name in hints
                        if name not in ("kind", "time", "source")]
        return st.builds(cls, time=_SCALARS[float], source=_SCALARS[str],
                         **{name: _strategy_for(hints[name])
                            for name in detail_names})

    return st.one_of([build(cls) for _, cls in sorted(EVENT_TYPES.items())])


@given(_typed_event_strategy())
def test_typed_event_jsonl_round_trip(event):
    payload = json.loads(json.dumps(event.to_dict()))
    rebuilt = event_from_dict(payload)
    assert type(rebuilt) is type(event)
    assert rebuilt == event


@given(st.lists(_typed_event_strategy(), max_size=12))
def test_monitor_stream_jsonl_round_trip(events):
    monitor = TraceMonitor()
    for event in events:
        monitor.emit(event)
    buffer = io.StringIO()
    assert monitor.export_jsonl(buffer) == len(events)
    buffer.seek(0)
    rebuilt = TraceMonitor.read_jsonl(buffer)
    assert rebuilt == events
