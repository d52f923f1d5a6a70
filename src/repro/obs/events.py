"""The closed event taxonomy of the simulation stack.

Every observable action of the simulator is one of the dataclasses below,
carrying the simulated ``time``, the emitting ``source`` (``node:A``,
``coupler:coupler0``, ``guardian:B``, ``channel:ch0``, ``injector``), and
typed detail fields.  The string ``kind`` of each event is a class
attribute declared *here and only here*: no emitter anywhere else in the
package constructs raw event-kind strings, so the taxonomy below is the
complete vocabulary a consumer (online monitor, conformance checker,
JSONL export) ever has to understand.

Event kinds
-----------

===================== ==================== ===================================
kind                  emitter              meaning
===================== ==================== ===================================
state                 controller           protocol state entered
integrated            controller           joined the cluster (via which frame)
activated             controller           acquired sending rights (grid anchor)
freeze                controller           entered freeze, with the reason
cold_start_grid       controller           proposed a TDMA grid as cold-starter
clique_test           controller           clique-avoidance verdict this round
ack_failure           controller           explicit acknowledgment send fault
slot_failed           controller           judged a slot failed (diagnostics)
send                  controller           scheduled frame transmitted
dmc_latched           controller           latched a mode change from the bus
mode_change           controller           cluster switched operating modes
collision_jam         controller           deliberate overlapping transmission
byzantine_tick        controller           Byzantine clock applied its pattern
sync_round            controller           per-round FTA correction (opt-in)
tx_start              channel              transmission started on a medium
tx_complete           channel              transmission completed (corrupted?)
blocked_by_fault      guardian             block-all guardian fault blocked a send
blocked_out_of_window guardian, coupler    transmit window closed
blocked_semantic      coupler              semantic analysis rejected a frame
uplink_silenced       coupler              silent-coupler fault ate a frame
out_of_slot_replay    coupler              buffered frame replayed out of slot
buffer_occupancy      coupler              whole frame stored (full-shifting)
fault_injected        injector             fault descriptor wired into the spec
decentralized_verdict node monitor         per-node monitor verdict export
task_started          runner               campaign/matrix task attempt began
task_retried          runner               failed task re-queued (with reason)
task_failed           runner               task permanently failed (budget spent)
checkpoint_written    runner               finished task persisted to JSONL
===================== ==================== ===================================

There is no fallback kind: :func:`event_from_dict` rejects a kind that is
not in :data:`EVENT_TYPES`, and a detail the kind does not declare.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, List, Optional, Tuple, Type


@dataclass(init=False, repr=False, eq=False)
class Event:
    """Base of every typed event: when it happened and who emitted it.

    Event kinds declare fields only.  The methods a frozen dataclass
    would generate for each kind -- constructor, ``__eq__``, ``__hash__``,
    ``__repr__`` and the frozen guard -- are written once here, over the
    class's ``_names``; generating them per kind was the largest import
    cost of a simulator command.  Unset details are not stored on the
    instance but read through to the class defaults, exactly as in an
    event built by :func:`fill_event`.
    """

    kind: ClassVar[str] = "event"
    #: Field names in declaration order: time, source, then the details.
    #: Set per kind by ``_register``.  Unannotated, so neither a field nor
    #: a type hint.
    _names = ("time", "source")
    #: The detail field names (``_names`` without time and source), for
    #: :func:`fill_event`'s check.  Set per kind by ``_register``.
    _detail_names = frozenset()

    time: float
    source: str

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        cls = type(self)
        names = self._names
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional "
                            f"arguments but {len(args)} were given")
        values = self.__dict__
        values.update(zip(names, args))
        for name, value in kwargs.items():
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for "
                                f"argument {name!r}")
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword "
                                f"argument {name!r}")
            values[name] = value
        if len(values) < len(names):
            missing = [name for name in names
                       if name not in values and not hasattr(cls, name)]
            if missing:
                raise TypeError(f"{cls.__name__}() missing required "
                                f"argument(s): {', '.join(map(repr, missing))}")

    def _values(self) -> Tuple[Any, ...]:
        return tuple([getattr(self, name) for name in self._names])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._names)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def details(self) -> Dict[str, Any]:
        """The event's detail fields as a plain dict (time/source excluded)."""
        return {name: getattr(self, name) for name in self._names[2:]}

    def describe(self) -> str:
        """Single-line human-readable rendering."""
        detail_text = " ".join(f"{key}={value}"
                               for key, value in sorted(self.details.items()))
        suffix = f" {detail_text}" if detail_text else ""
        return f"[t={self.time:.6f}] {self.source}: {self.kind}{suffix}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping; inverse of :func:`event_from_dict`."""
        return {"time": self.time, "source": self.source, "kind": self.kind,
                "details": self.details}


#: kind string -> event class, populated by ``_register``.
EVENT_TYPES: Dict[str, Type[Event]] = {}


def _register(cls: Type[Event]) -> Type[Event]:
    if cls.kind in EVENT_TYPES:
        raise ValueError(f"duplicate event kind {cls.kind!r}")
    cls._names = tuple(entry.name for entry in fields(cls))
    cls._detail_names = frozenset(cls._names[2:])
    EVENT_TYPES[cls.kind] = cls
    return cls


def fill_event(event_cls: Type[Event], time: float, source: str,
               details: Dict[str, Any]) -> Event:
    """Build a typed event on the DES emit path.

    Cheaper than the constructor: the instance is filled through
    ``object.__new__`` and one ``__dict__`` update, and unset detail
    fields read through to their class defaults.  The detail names are
    still checked against the kind's declared fields, so a misspelled
    detail raises :class:`TypeError` naming it instead of riding along
    as a stray attribute.
    """
    if not event_cls._detail_names.issuperset(details):
        unknown = sorted(set(details) - event_cls._detail_names)
        raise TypeError(f"{event_cls.__name__} has no detail field "
                        f"{unknown[0]!r}")
    event = object.__new__(event_cls)
    values = event.__dict__
    values["time"] = time
    values["source"] = source
    values.update(details)
    return event


# -- controller events -------------------------------------------------------


@_register
@dataclass(init=False, repr=False, eq=False)
class StateChange(Event):
    """The controller entered a protocol state (paper Section 4.3 names)."""

    kind: ClassVar[str] = "state"
    state: str = ""


@_register
@dataclass(init=False, repr=False, eq=False)
class Integrated(Event):
    """The node joined the cluster, via a cold-start or C-state frame."""

    kind: ClassVar[str] = "integrated"
    via: str = ""
    slot: int = 0


@_register
@dataclass(init=False, repr=False, eq=False)
class Activated(Event):
    """The node acquired sending rights; ``round_start`` anchors its grid."""

    kind: ClassVar[str] = "activated"
    round_start: float = 0.0


@_register
@dataclass(init=False, repr=False, eq=False)
class Freeze(Event):
    """The controller entered the freeze state."""

    kind: ClassVar[str] = "freeze"
    reason: str = ""
    was_integrated: bool = False


@_register
@dataclass(init=False, repr=False, eq=False)
class ColdStartGrid(Event):
    """A cold-starter proposed a TDMA grid starting at ``round_start``."""

    kind: ClassVar[str] = "cold_start_grid"
    round_start: float = 0.0


@_register
@dataclass(init=False, repr=False, eq=False)
class CliqueTest(Event):
    """Outcome of the once-per-round clique-avoidance test."""

    kind: ClassVar[str] = "clique_test"
    verdict: str = ""


@_register
@dataclass(init=False, repr=False, eq=False)
class AckFailure(Event):
    """Two successors denied our membership: explicit-ack send fault."""

    kind: ClassVar[str] = "ack_failure"
    slot: int = 0


@_register
@dataclass(init=False, repr=False, eq=False)
class SlotFailed(Event):
    """A judged slot failed; diagnostic snapshot for campaign forensics."""

    kind: ClassVar[str] = "slot_failed"
    slot: int = 0
    expected_time: int = 0
    expected_pos: int = 0
    frame_time: Optional[int] = None
    frame_pos: Optional[int] = None
    frame_members: Optional[List[int]] = None
    my_members: Optional[List[int]] = None


@_register
@dataclass(init=False, repr=False, eq=False)
class FrameSent(Event):
    """A scheduled frame left the controller."""

    kind: ClassVar[str] = "send"
    frame_kind: str = ""
    slot: int = 0


@_register
@dataclass(init=False, repr=False, eq=False)
class DmcLatched(Event):
    """A mode-change request heard on the bus was latched."""

    kind: ClassVar[str] = "dmc_latched"
    mode: int = 0


@_register
@dataclass(init=False, repr=False, eq=False)
class ModeChange(Event):
    """The cluster switched operating modes at a round boundary."""

    kind: ClassVar[str] = "mode_change"
    mode: int = 0


@_register
@dataclass(init=False, repr=False, eq=False)
class CollisionJam(Event):
    """An attacker drove a deliberately overlapping transmission.

    ``targeted`` distinguishes the mid-frame jammer (aimed a fixed offset
    into the next slot of an observed sender's grid) from the blind
    colliding sender (fires on its own tick grid).
    """

    kind: ClassVar[str] = "collision_jam"
    targeted: bool = False


@_register
@dataclass(init=False, repr=False, eq=False)
class ByzantineTick(Event):
    """A Byzantine clock applied its deviation pattern this round."""

    kind: ClassVar[str] = "byzantine_tick"
    mode: str = ""
    offset: float = 0.0


@_register
@dataclass(init=False, repr=False, eq=False)
class SyncRound(Event):
    """Per-round clock-sync verdict: the applied FTA correction.

    Opt-in (``ControllerConfig.emit_sync_rounds``) so default traces --
    including the conformance goldens -- are unchanged.
    """

    kind: ClassVar[str] = "sync_round"
    correction: float = 0.0
    measurements: int = 0


# -- channel events ----------------------------------------------------------


@_register
@dataclass(init=False, repr=False, eq=False)
class TxStart(Event):
    """A transmission started driving a medium."""

    kind: ClassVar[str] = "tx_start"
    sender: str = ""
    frame_kind: str = ""


@_register
@dataclass(init=False, repr=False, eq=False)
class TxComplete(Event):
    """A transmission completed and was delivered to the receivers."""

    kind: ClassVar[str] = "tx_complete"
    sender: str = ""
    frame_kind: str = ""
    corrupted: bool = False


# -- guardian / coupler events -----------------------------------------------


@_register
@dataclass(init=False, repr=False, eq=False)
class BlockedByFault(Event):
    """A block-all guardian fault stopped its node's transmission."""

    kind: ClassVar[str] = "blocked_by_fault"
    sender: str = ""


@_register
@dataclass(init=False, repr=False, eq=False)
class BlockedOutOfWindow(Event):
    """A transmission arrived outside the sender's transmit window."""

    kind: ClassVar[str] = "blocked_out_of_window"
    sender: str = ""


@_register
@dataclass(init=False, repr=False, eq=False)
class BlockedSemantic(Event):
    """Semantic analysis (port or C-state check) rejected a frame."""

    kind: ClassVar[str] = "blocked_semantic"
    sender: str = ""


@_register
@dataclass(init=False, repr=False, eq=False)
class UplinkSilenced(Event):
    """A silent-coupler fault swallowed an uplink transmission."""

    kind: ClassVar[str] = "uplink_silenced"
    sender: str = ""


@_register
@dataclass(init=False, repr=False, eq=False)
class OutOfSlotReplay(Event):
    """A full-shifting coupler replayed its buffered frame out of slot."""

    kind: ClassVar[str] = "out_of_slot_replay"
    sender: str = ""
    frame_kind: str = ""


@_register
@dataclass(init=False, repr=False, eq=False)
class BufferOccupancy(Event):
    """A full-shifting coupler stored a whole frame in its buffer."""

    kind: ClassVar[str] = "buffer_occupancy"
    sender: str = ""
    bits: int = 0


# -- fault-injection events --------------------------------------------------


@_register
@dataclass(init=False, repr=False, eq=False)
class FaultInjected(Event):
    """A fault descriptor was wired into the cluster under simulation."""

    kind: ClassVar[str] = "fault_injected"
    fault_type: str = ""
    target: str = ""


# -- decentralized-monitor events --------------------------------------------


@_register
@dataclass(init=False, repr=False, eq=False)
class DecentralizedVerdict(Event):
    """One node monitor's locally inferred verdict (export stream).

    Constructed by :class:`repro.obs.decentralized.DecentralizedMonitorNetwork`
    when its verdicts are exported (CI artifacts, campaign presets); never
    emitted on a cluster's main event bus.
    """

    kind: ClassVar[str] = "decentralized_verdict"
    node: str = ""
    verdict: str = ""
    detail: str = ""
    sampling_rate: float = 1.0


# -- task-runner events ------------------------------------------------------
#
# Emitted by the resilient execution layer (:mod:`repro.exec`), not the
# simulation: ``time`` is elapsed wall-clock seconds since the runner
# started (measured with ``time.perf_counter``), and ``source`` is
# ``runner``.  They ride the same spine so the online monitors that watch
# cluster health can watch harness health too.


@_register
@dataclass(init=False, repr=False, eq=False)
class TaskStarted(Event):
    """A runner task attempt began (``attempt`` counts from 1)."""

    kind: ClassVar[str] = "task_started"
    index: int = 0
    attempt: int = 0


@_register
@dataclass(init=False, repr=False, eq=False)
class TaskRetried(Event):
    """A failed task attempt was re-queued; ``reason`` is the failure
    class (``exception`` | ``timeout`` | ``worker-crash``)."""

    kind: ClassVar[str] = "task_retried"
    index: int = 0
    attempt: int = 0
    reason: str = ""
    error: str = ""


@_register
@dataclass(init=False, repr=False, eq=False)
class TaskFailed(Event):
    """A task exhausted its retry budget and permanently failed."""

    kind: ClassVar[str] = "task_failed"
    index: int = 0
    attempts: int = 0
    reason: str = ""
    error: str = ""


@_register
@dataclass(init=False, repr=False, eq=False)
class CheckpointWritten(Event):
    """A finished task's result was persisted to the JSONL checkpoint."""

    kind: ClassVar[str] = "checkpoint_written"
    index: int = 0
    path: str = ""


def event_from_dict(payload: Any) -> Event:
    """Rebuild an event from :meth:`Event.to_dict` output (JSONL import).

    Raises :class:`ValueError` for a payload no export produces: not an
    object, a missing or non-numeric ``time``, a non-string ``source`` or
    ``kind``, a kind not in :data:`EVENT_TYPES`, ``details`` that are not
    an object, a detail the kind does not declare (``time``, ``source``
    and ``kind`` included), or a detail whose value does not match the
    field's declared type.  Top-level keys other than the four that
    :meth:`Event.to_dict` writes are ignored.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"event record must be a JSON object, "
                         f"got {type(payload).__name__}: {payload!r}")
    missing = {"time", "source", "kind"} - set(payload)
    if missing:
        raise ValueError(f"event payload missing {sorted(missing)}: {payload!r}")
    time = payload["time"]
    if isinstance(time, bool) or not isinstance(time, (int, float)):
        raise ValueError(f"event time must be a number, got {time!r}")
    for name in ("source", "kind"):
        if not isinstance(payload[name], str):
            raise ValueError(f"event {name} must be a string, "
                             f"got {payload[name]!r}")
    kind = payload["kind"]
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    details = payload.get("details")
    if details is None:
        details = {}
    if not isinstance(details, dict):
        raise ValueError(f"event details must be a JSON object, "
                         f"got {details!r}")
    hints = _detail_hints(cls)
    for name, value in details.items():
        if name not in cls._detail_names:
            raise ValueError(f"{kind} event has no detail {name!r} "
                             f"(declared: {sorted(cls._detail_names)})")
        if not _conforms(value, hints[name]):
            raise ValueError(
                f"{kind} event detail {name!r} must be "
                f"{_hint_text(hints[name])}, got {value!r}")
    return cls(time, payload["source"], **details)


@functools.lru_cache(maxsize=None)
def _detail_hints(cls: Type[Event]) -> Dict[str, Any]:
    """Declared type of each of ``cls``'s fields."""
    return typing.get_type_hints(cls)


def _conforms(value: Any, hint: Any) -> bool:
    """Whether a JSON-decoded ``value`` fits the declared type ``hint``.

    ``bool`` is not accepted as ``int``; an ``int`` is accepted as
    ``float`` (JSON does not keep ``1.0`` apart from ``1``).
    """
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        return any(_conforms(value, arg) for arg in typing.get_args(hint))
    if origin is list:
        (item,) = typing.get_args(hint)
        return (isinstance(value, list)
                and all(_conforms(entry, item) for entry in value))
    if hint is type(None):
        return value is None
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _hint_text(hint: Any) -> str:
    if isinstance(hint, type):
        return hint.__name__
    return str(hint).replace("typing.", "")


def taxonomy_rows() -> List[tuple]:
    """(kind, event class name, detail fields) rows for docs and tests."""
    rows = []
    for kind in sorted(EVENT_TYPES):
        cls = EVENT_TYPES[kind]
        detail_names = [entry.name for entry in dataclasses.fields(cls)
                        if entry.name not in ("time", "source")]
        rows.append((kind, cls.__name__, ", ".join(detail_names)))
    return rows
