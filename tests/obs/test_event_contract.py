"""The behavioural contract of every typed event kind.

Pins what a frozen dataclass event guarantees -- construction, equality,
hashing, ``repr``, immutability and pickling -- for each kind in
``EVENT_TYPES``, independent of how the methods are provided.  It also
pins that an event built the emit-site way (:func:`fill_event`:
``object.__new__`` plus a ``__dict__`` fill that leaves unset details to
the class defaults) is indistinguishable from a constructed one, and
that the fill, like the constructor, refuses a detail the kind does not
declare -- from every emitter that uses it.
"""

import dataclasses
import pickle

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.obs import events as ev
from repro.obs.events import EVENT_TYPES, fill_event

KINDS = sorted(EVENT_TYPES)


def sample_values(cls):
    """One non-default value per field, in declaration order."""
    values = {}
    for index, entry in enumerate(dataclasses.fields(cls)):
        default = entry.default
        if entry.name == "time":
            values[entry.name] = 12.5
        elif entry.name == "source":
            values[entry.name] = f"node:{cls.__name__}"
        elif isinstance(default, bool):
            values[entry.name] = not default
        elif isinstance(default, (int, float)):
            values[entry.name] = default + index + 1
        elif isinstance(default, str):
            values[entry.name] = f"{entry.name}-{index}"
        else:
            values[entry.name] = index + 100
    return values


@pytest.fixture(params=KINDS)
def kind(request):
    return request.param


def test_fields_start_with_time_and_source(kind):
    names = [entry.name for entry in dataclasses.fields(EVENT_TYPES[kind])]
    assert names[:2] == ["time", "source"]
    assert dataclasses.is_dataclass(EVENT_TYPES[kind])


def test_keyword_and_positional_construction_agree(kind):
    cls = EVENT_TYPES[kind]
    values = sample_values(cls)
    by_keyword = cls(**values)
    by_position = cls(*values.values())
    mixed = cls(values["time"], values["source"],
                **{name: value for name, value in values.items()
                   if name not in ("time", "source")})
    assert by_keyword == by_position == mixed
    assert hash(by_keyword) == hash(by_position) == hash(mixed)
    assert hash(by_keyword) == hash(tuple(values.values()))
    for name, value in values.items():
        assert getattr(by_keyword, name) == value


def test_unset_details_take_the_declared_defaults(kind):
    cls = EVENT_TYPES[kind]
    event = cls(1.0, "src")
    for entry in dataclasses.fields(cls)[2:]:
        assert getattr(event, entry.name) == entry.default
    assert event.details == {entry.name: entry.default
                             for entry in dataclasses.fields(cls)[2:]}


def test_equality_is_by_class_and_value(kind):
    cls = EVENT_TYPES[kind]
    values = sample_values(cls)
    event = cls(**values)
    assert event != cls(**dict(values, time=values["time"] + 1))
    assert event != cls(**dict(values, source="elsewhere"))
    assert event != object()
    assert (event == object()) is False
    for other_kind, other_cls in EVENT_TYPES.items():
        if other_kind != kind:
            assert event != other_cls(values["time"], values["source"])


def test_repr_lists_every_field(kind):
    cls = EVENT_TYPES[kind]
    values = sample_values(cls)
    body = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(cls(**values)) == f"{cls.__qualname__}({body})"


def test_events_are_frozen(kind):
    cls = EVENT_TYPES[kind]
    event = cls(**sample_values(cls))
    for name in [entry.name for entry in dataclasses.fields(cls)] + ["extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"cannot assign to field '{name}'"):
            setattr(event, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"cannot delete field '{name}'"):
            delattr(event, name)
    assert event == cls(**sample_values(cls))


def test_pickle_round_trip(kind):
    cls = EVENT_TYPES[kind]
    for event in (cls(**sample_values(cls)), cls(3.0, "src")):
        restored = pickle.loads(pickle.dumps(event))
        assert type(restored) is cls
        assert restored == event
        assert hash(restored) == hash(event)


def test_bad_arguments_raise_type_error(kind):
    cls = EVENT_TYPES[kind]
    values = sample_values(cls)
    with pytest.raises(TypeError):
        cls(**dict(values, no_such_field=1))
    with pytest.raises(TypeError):
        cls(source="src")
    with pytest.raises(TypeError):
        cls(1.0)
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values.values(), "one too many")
    with pytest.raises(TypeError):
        cls(1.0, "src", time=2.0)


def test_emit_site_fill_equals_constructed(kind):
    cls = EVENT_TYPES[kind]
    values = sample_values(cls)
    names = list(values)
    given = {name: values[name] for name in names[:3]}
    event = fill_event(cls, given["time"], given["source"],
                       {name: values[name] for name in names[2:3]})
    constructed = cls(**given)
    assert event == constructed
    assert constructed == event
    assert hash(event) == hash(constructed)
    assert repr(event) == repr(constructed)
    assert event.details == constructed.details
    assert event.to_dict() == constructed.to_dict()
    assert pickle.loads(pickle.dumps(event)) == constructed


def test_fill_rejects_an_undeclared_detail(kind):
    cls = EVENT_TYPES[kind]
    with pytest.raises(TypeError, match="'no_such_detail'"):
        fill_event(cls, 1.0, "src", {"no_such_detail": 1})
    # time and source are not details: a second value for them is refused.
    with pytest.raises(TypeError, match="'time'"):
        fill_event(cls, 1.0, "src", {"time": 2.0})


def star_controller():
    return Cluster(ClusterSpec(topology="star")).controllers["A"]


def star_coupler():
    return Cluster(ClusterSpec(topology="star")).topology.couplers[0]


def bus_guardian():
    return Cluster(ClusterSpec(topology="bus")).topology.guardians["A"][0]


@pytest.mark.parametrize("emitter", [star_controller, star_coupler,
                                     bus_guardian])
def test_emitters_reject_a_misspelled_detail(emitter):
    """``Integrated`` declares ``slot``; ``slots`` must not pass."""
    with pytest.raises(TypeError, match="Integrated has no detail field "
                                        "'slots'"):
        emitter()._emit(ev.Integrated, via="c_state", slots=3)


def test_replace_builds_a_new_event(kind):
    cls = EVENT_TYPES[kind]
    event = cls(**sample_values(cls))
    moved = dataclasses.replace(event, time=99.0)
    assert type(moved) is cls
    assert moved.time == 99.0
    assert moved.details == event.details
