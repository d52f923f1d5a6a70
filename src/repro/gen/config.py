"""Declarative generator config with a canonical JSON round-trip.

A :class:`GenConfig` is the single input of the generator: everything the
materialized cluster depends on is in here, so a config file plus the code
version fully determines the spec (and therefore the run).  The JSON
encoding is canonical -- sorted keys, fixed separators, trailing newline
-- so identical configs are byte-identical on disk and safe to diff.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.sim.rng import RandomStream

#: Distribution kinds :meth:`Dist.draw` understands.
DIST_KINDS = ("constant", "uniform", "gauss", "choice")


@dataclass(frozen=True)
class Dist:
    """A one-dimensional distribution a generated parameter is drawn from.

    ``constant`` ignores the stream entirely, so configs that fix a
    parameter stay draw-free (and the substream layout of everything else
    is untouched when a constant later becomes a distribution).
    """

    kind: str = "constant"
    #: ``constant``: the value.
    value: float = 0.0
    #: ``uniform``: inclusive bounds.
    low: float = 0.0
    high: float = 0.0
    #: ``gauss``: location and scale.
    mu: float = 0.0
    sigma: float = 0.0
    #: ``choice``: the options (uniformly likely).
    options: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in DIST_KINDS:
            raise ValueError(
                f"unknown distribution kind {self.kind!r} "
                f"(expected one of {DIST_KINDS})")
        if self.kind == "uniform" and self.low > self.high:
            raise ValueError(
                f"uniform bounds are inverted: [{self.low}, {self.high}]")
        if self.kind == "gauss" and self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.kind == "choice" and not self.options:
            raise ValueError("choice distribution needs at least one option")

    @classmethod
    def constant(cls, value: float) -> "Dist":
        return cls(kind="constant", value=value)

    @classmethod
    def uniform(cls, low: float, high: float) -> "Dist":
        return cls(kind="uniform", low=low, high=high)

    @classmethod
    def gauss(cls, mu: float, sigma: float) -> "Dist":
        return cls(kind="gauss", mu=mu, sigma=sigma)

    @classmethod
    def choice(cls, options) -> "Dist":
        return cls(kind="choice", options=tuple(options))

    def draw(self, stream: RandomStream) -> float:
        """One sample from this distribution using ``stream``."""
        if self.kind == "constant":
            return self.value
        if self.kind == "uniform":
            return stream.uniform(self.low, self.high)
        if self.kind == "gauss":
            return stream.gauss(self.mu, self.sigma)
        return stream.choice(self.options)

    def to_json(self) -> Dict:
        """Minimal JSON form: only the fields the kind reads."""
        if self.kind == "constant":
            return {"kind": self.kind, "value": self.value}
        if self.kind == "uniform":
            return {"kind": self.kind, "low": self.low, "high": self.high}
        if self.kind == "gauss":
            return {"kind": self.kind, "mu": self.mu, "sigma": self.sigma}
        return {"kind": self.kind, "options": list(self.options)}

    @classmethod
    def from_json(cls, data: Dict) -> "Dist":
        data = dict(data)
        if "options" in data:
            data["options"] = tuple(data["options"])
        return cls(**data)


@dataclass(frozen=True)
class FaultMix:
    """Density-driven fault plan for a generated cluster.

    Node and guardian faults are drawn per node (a Bernoulli trial per
    node through its own substream), coupler faults are named per channel,
    and channel faults are the passive probabilities of the TTP/C fault
    hypothesis.
    """

    #: Fraction of nodes carrying a node fault (0 = benign).
    node_density: float = 0.0
    #: Fault types a faulty node draws from (``FaultType`` values).
    node_types: Tuple[str, ...] = ("sos_signal",)
    #: Fraction of nodes with a faulty local guardian (bus topology only).
    guardian_density: float = 0.0
    guardian_types: Tuple[str, ...] = ("guardian_block_all",)
    #: Per-channel coupler fault names, ``"none"`` for healthy (star
    #: topology only; empty = all channels healthy).
    coupler_faults: Tuple[str, ...] = ()
    #: Passive channel fault probabilities.
    channel_drop: float = 0.0
    channel_corrupt: float = 0.0
    #: Fraction of nodes running an active collision attack.
    collision_density: float = 0.0
    #: Collision attacker types a collision-faulty node draws from.
    collision_types: Tuple[str, ...] = ("colliding_sender",)
    #: Fraction of nodes with a Byzantine clock.
    byzantine_density: float = 0.0
    #: Byzantine patterns a clock-faulty node draws from
    #: (``repro.ttp.clock_sync.BYZANTINE_MODES`` names).
    byzantine_modes: Tuple[str, ...] = ("rush",)
    #: Event sampling rate of the decentralized monitors a sweep attaches
    #: (1.0 = full-rate, draw-free observation; not a fault, so it does
    #: not affect :attr:`benign`).
    monitor_sampling: float = 1.0

    def __post_init__(self) -> None:
        for density_name in ("node_density", "guardian_density",
                             "channel_drop", "channel_corrupt",
                             "collision_density", "byzantine_density"):
            value = getattr(self, density_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{density_name} must be in [0, 1], got {value}")
        if not 0.0 < self.monitor_sampling <= 1.0:
            raise ValueError(f"monitor_sampling must be in (0, 1], "
                             f"got {self.monitor_sampling}")
        if self.node_density > 0 and not self.node_types:
            raise ValueError("node_density > 0 needs node_types to draw from")
        if self.guardian_density > 0 and not self.guardian_types:
            raise ValueError(
                "guardian_density > 0 needs guardian_types to draw from")
        if self.collision_density > 0 and not self.collision_types:
            raise ValueError(
                "collision_density > 0 needs collision_types to draw from")
        if self.byzantine_density > 0 and not self.byzantine_modes:
            raise ValueError(
                "byzantine_density > 0 needs byzantine_modes to draw from")

    @property
    def benign(self) -> bool:
        """No fault of any kind configured."""
        return (self.node_density == 0 and self.guardian_density == 0
                and all(name == "none" for name in self.coupler_faults)
                and self.channel_drop == 0 and self.channel_corrupt == 0
                and self.collision_density == 0
                and self.byzantine_density == 0)

    def to_json(self) -> Dict:
        data = asdict(self)
        data["node_types"] = list(self.node_types)
        data["guardian_types"] = list(self.guardian_types)
        data["coupler_faults"] = list(self.coupler_faults)
        data["collision_types"] = list(self.collision_types)
        data["byzantine_modes"] = list(self.byzantine_modes)
        return data

    @classmethod
    def from_json(cls, data: Dict) -> "FaultMix":
        data = dict(data)
        for tuple_field in ("node_types", "guardian_types", "coupler_faults",
                            "collision_types", "byzantine_modes"):
            if tuple_field in data:
                data[tuple_field] = tuple(data[tuple_field])
        return cls(**data)


#: The JSON type each scalar :class:`GenConfig` field must carry.  A
#: bool is never an int here, and ``float`` also admits ints and None.
_SCALAR_TYPES = {
    "name": str, "topology": str, "authority": str, "node_prefix": str,
    "nodes": int, "seed": int, "modes": int, "payload_frame_bits": int,
    "shuffle_slots": bool, "slot_duration": float,
}


def _has_json_type(value, expected: type) -> bool:
    if isinstance(value, bool):
        return expected is bool
    if expected is float:
        return value is None or isinstance(value, (int, float))
    return isinstance(value, expected)


@dataclass(frozen=True)
class GenConfig:
    """Everything the cluster generator needs, in one declarative value."""

    #: Label; part of the random-stream path, so two configs with
    #: different names draw independently even at the same seed.
    name: str = "generated"
    nodes: int = 4
    topology: str = "star"
    #: Coupler authority (``CouplerAuthority`` value; star topology).
    authority: str = "small_shifting"
    seed: int = 0
    #: Node names are ``prefix + zero-padded index``.
    node_prefix: str = "N"
    #: TDMA slot duration; ``None`` auto-sizes from the widest frame the
    #: schedule always sends (see :func:`repro.gen.schedule.auto_slot_duration`).
    slot_duration: Optional[float] = None
    #: Per-node crystal offset distribution (ppm).
    ppm: Dist = field(default_factory=Dist)
    #: Per-node power-on delay distribution; ``None`` keeps the cluster's
    #: default staggered power-on.
    power_on_delay: Optional[Dist] = None
    #: Per-node receiver tolerance draws; ``None`` keeps the spec values.
    tolerance_threshold: Optional[Dist] = None
    tolerance_window: Optional[Dist] = None
    #: Number of operating modes; mode 0 is the status schedule (I-frame
    #: sized allowance), further modes get ``payload_frame_bits`` slots.
    modes: int = 1
    #: Frame-bits allowance of the payload modes (the 2076-bit maximum
    #: X-frame of paper eq. (9) by default).
    payload_frame_bits: int = 2076
    #: Shuffle the slot order with a seeded draw (slot ids stay 1..N,
    #: node-to-slot assignment is permuted).
    shuffle_slots: bool = False
    #: Fault plan densities.
    faults: FaultMix = field(default_factory=FaultMix)

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.topology not in ("star", "bus"):
            raise ValueError(f"unknown topology {self.topology!r} "
                             f"(expected 'star' or 'bus')")
        if self.modes < 1:
            raise ValueError(f"modes must be >= 1, got {self.modes}")
        if self.slot_duration is not None and self.slot_duration <= 0:
            raise ValueError(
                f"slot_duration must be positive, got {self.slot_duration}")

    def with_nodes(self, nodes: int) -> "GenConfig":
        """Same config at a different cluster size (sweep axis)."""
        return replace(self, nodes=nodes)

    def with_seed(self, seed: int) -> "GenConfig":
        """Same config under a different seed (sweep trials)."""
        return replace(self, seed=seed)

    def root_stream(self) -> RandomStream:
        """The stream every generator draw descends from."""
        return RandomStream(seed=self.seed, path=f"gen/{self.name}")

    # -- canonical JSON ----------------------------------------------------------

    def to_json(self) -> Dict:
        data = asdict(self)
        data["ppm"] = self.ppm.to_json()
        for dist_field in ("power_on_delay", "tolerance_threshold",
                           "tolerance_window"):
            dist = getattr(self, dist_field)
            data[dist_field] = None if dist is None else dist.to_json()
        data["faults"] = self.faults.to_json()
        return data

    @classmethod
    def from_json(cls, data: Dict) -> "GenConfig":
        data = dict(data)
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown config key(s) {unknown}; valid keys "
                             f"are {sorted(cls.__dataclass_fields__)}")
        for key, expected in _SCALAR_TYPES.items():
            if key in data and not _has_json_type(data[key], expected):
                kind = ("a number or null" if expected is float
                        else expected.__name__)
                raise ValueError(f"{key} must be {kind}, got {data[key]!r}")
        if "ppm" in data:
            data["ppm"] = Dist.from_json(data["ppm"])
        for dist_field in ("power_on_delay", "tolerance_threshold",
                           "tolerance_window"):
            if data.get(dist_field) is not None:
                data[dist_field] = Dist.from_json(data[dist_field])
        if "faults" in data:
            data["faults"] = FaultMix.from_json(data["faults"])
        return cls(**data)

    def dumps(self) -> str:
        """Canonical JSON text: identical configs are byte-identical."""
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def loads(cls, text: str) -> "GenConfig":
        return cls.from_json(json.loads(text))

    @classmethod
    def load(cls, path) -> "GenConfig":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read())

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())
