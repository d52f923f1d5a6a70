"""Layer spans recorded from outside the program.

:class:`Tracer` wraps public layer-boundary calls of ``repro`` (class
methods and two module-level functions) while it is installed, and
restores the originals on :meth:`Tracer.uninstall`.  Nothing under
``src/`` is edited: every wrapper lives in this file.

A span has a bucket name (``ttp.tick``, ``network.channel``,
``modelcheck.successor``, ...).  Spans nest through one stack; when a
span ends its duration is added to the enclosing span's child time, so

    self time = span duration - time covered by its child spans

and, per op, the self times of every bucket plus the op span's own self
time (reported as the unattributed remainder) add up to the op's traced
duration exactly.

Engine-dispatched callbacks are attributed by the module that owns them:
the callback handed to ``Simulator.schedule_at``/``Simulator.post`` is
wrapped in a span named after its owner (``repro.ttp.*`` -> ``ttp.tick``,
``repro.network.channel`` -> ``network.channel``, ...).

High-frequency spans (engine callbacks, receives, emits, successor calls)
are folded into per-op sums at the boundary; coarse spans (op, engine
run, model check, pool map, cluster build, materialize, conformance) are
also kept individually -- name, start, end, parent, op id -- in memory and
written out by the caller when the benchmark ends.

Forked pool workers inherit the wrappers but not the recording: the
tracer switches itself off in the child, so pool-worker internals are
covered only by the parent's ``exec.map`` span.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Owner-module prefix -> (bucket, count key) for engine-dispatched
#: callbacks; first match wins, anything else is ``other.callback``.
CALLBACK_OWNERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.ttp", "ttp.tick", "ttp.ticks"),
    ("repro.network.channel", "network.channel", "network.scheduler_wakeups"),
    ("repro.network.star_coupler", "network.coupler", "network.coupler_replays"),
    ("repro.network.guardian", "network.guardian", "network.guardian_callbacks"),
    ("repro.network.topology", "network.send", "network.skewed_drives"),
)
OTHER_CALLBACK = ("other.callback", "other.callbacks")

#: Buckets whose spans are also kept individually.
RECORDED = frozenset({"op", "sim.run", "modelcheck.check", "exec.map",
                      "gen.materialize", "cluster.build",
                      "conformance.replay", "conformance.check"})

#: Buckets whose self time is not any layer's: the op span's own time
#: and callbacks no known module owns.
UNATTRIBUTED = ("op", "other.callback")


class Tracer:
    """Span recorder over the ``repro`` layer boundaries."""

    def __init__(self) -> None:
        #: Recording switch; off outside :meth:`install` and in forked
        #: children, where wrappers pass straight through.
        self.active = False
        self._stack: List[List[Any]] = []
        #: Per-op accumulators (cleared, never rebound: wrappers hold them).
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        #: Individually kept coarse spans, across every op.
        self.spans: List[Dict[str, Any]] = []
        #: One summary per finished op (see :meth:`op`).
        self.op_summaries: List[Dict[str, Any]] = []
        self._epoch = perf_counter()
        self._next_span = 0
        self._op_id: Optional[int] = None
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        self._owner_cache: Dict[str, Tuple[str, str]] = {}
        self._listeners: Dict[Tuple[int, Any], Callable] = {}
        self._couplers: List[Any] = []
        self._guardians: List[Any] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.active = False

    # -- span primitives ---------------------------------------------------------

    def _span(self, bucket: str, count_key: str, function: Callable,
              observe: Optional[Callable[[tuple, Any], None]] = None
              ) -> Callable:
        """``function`` wrapped in a span of ``bucket``; each call adds one
        to ``count_key``; ``observe(args, result)`` reads counts off the
        call after the span closed."""
        tracer = self
        stack = self._stack
        self_s = self.self_s
        total_s = self.total_s
        counts = self.counts
        recorded = bucket in RECORDED

        def spanned(*args, **kwargs):
            if not (tracer.active and stack):
                return function(*args, **kwargs)
            counts[count_key] += 1
            parent = stack[-1][1]
            frame = [0.0, tracer._open_id() if recorded else parent]
            stack.append(frame)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                self_s[bucket] += duration - frame[0]
                total_s[bucket] += duration
                if recorded:
                    tracer._record(bucket, frame[1], parent, start, end)
            if observe is not None:
                observe(args, result)
            return result

        spanned.__wrapped__ = function
        return spanned

    def _open_id(self) -> int:
        span_id = self._next_span
        self._next_span = span_id + 1
        return span_id

    def _record(self, name: str, span_id: int, parent: Optional[int],
                start: float, end: float) -> None:
        self.spans.append({"id": span_id, "name": name, "parent": parent,
                           "op": self._op_id,
                           "start": start - self._epoch,
                           "end": end - self._epoch})

    @contextmanager
    def op(self, op_id: int, name: str) -> Iterator[None]:
        """Root span of one op; appends its summary on exit."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        self._op_id = op_id
        frame = [0.0, self._open_id()]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            self.self_s["op"] += duration - frame[0]
            self.total_s["op"] += duration
            self._record("op", frame[1], None, start, end)
            self._finish_op(op_id, name, duration)

    def _finish_op(self, op_id: int, name: str, duration: float) -> None:
        counts = self.counts
        counts["network.coupler_forwarded"] += sum(
            coupler.stats.forwarded for coupler in self._couplers)
        counts["network.guardian_forwarded"] += sum(
            guardian.stats.forwarded for guardian in self._guardians)
        self.op_summaries.append({
            "op": op_id, "name": name, "seconds": duration,
            "self_s": dict(self.self_s), "total_s": dict(self.total_s),
            "counts": dict(counts),
            "unattributed_s": sum(self.self_s.get(bucket, 0.0)
                                  for bucket in UNATTRIBUTED)})
        self.self_s.clear()
        self.total_s.clear()
        counts.clear()
        self._couplers.clear()
        self._guardians.clear()
        self._listeners.clear()
        self._op_id = None

    # -- callback attribution ------------------------------------------------------

    def _owner(self, callback: Callable) -> Tuple[str, str]:
        target = getattr(callback, "func", callback)  # functools.partial
        module = getattr(target, "__module__", None) or ""
        owner = self._owner_cache.get(module)
        if owner is None:
            owner = OTHER_CALLBACK
            for prefix, bucket, count_key in CALLBACK_OWNERS:
                if module == prefix or module.startswith(prefix + "."):
                    owner = (bucket, count_key)
                    break
            self._owner_cache[module] = owner
        return owner

    def _dispatched(self, callback: Callable) -> Callable:
        bucket, count_key = self._owner(callback)
        return self._span(bucket, count_key, callback)

    # -- installation ----------------------------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        own = name in vars(owner)
        self._patches.append((owner, name, own, vars(owner).get(name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every layer boundary and start recording."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro import conformance
        from repro.cluster import Cluster
        from repro.exec.runner import TaskRunner
        from repro.gen import sweep
        from repro.model.system_model import TTAStartupModel
        from repro.modelcheck.checker import InvariantChecker
        from repro.modelcheck.parallel import ParallelVerifier
        from repro.modelcheck.vector import (FusedSeenSet, SplitSeenSet,
                                             VectorKernel)
        from repro.network.channel import Channel
        from repro.network.guardian import LocalBusGuardian
        from repro.network.star_coupler import StarCoupler
        from repro.network.topology import BusTopology, StarTopology
        from repro.obs.decentralized import DecentralizedMonitorNetwork
        from repro.sim.engine import Simulator
        from repro.sim.monitor import TraceMonitor

        tracer = self
        span = self._span
        counts = self.counts

        # sim: engine run loop, queue pushes, dispatched callbacks.
        timed_run = span("sim.run", "sim.runs", Simulator.run)

        def run(sim, *args, **kwargs):
            before = sim.fired_count
            try:
                return timed_run(sim, *args, **kwargs)
            finally:
                if tracer.active:
                    counts["sim.events"] += sim.fired_count - before

        timed_schedule_at = span("sim.push", "sim.pushes", Simulator.schedule_at)
        timed_post = span("sim.push", "sim.pushes", Simulator.post)
        original_schedule_at = Simulator.schedule_at
        original_post = Simulator.post

        def schedule_at(sim, time, callback, priority=0):
            if not tracer.active:
                return original_schedule_at(sim, time, callback, priority)
            return timed_schedule_at(sim, time, tracer._dispatched(callback),
                                     priority)

        def post(sim, delay, callback, priority=0):
            if not tracer.active:
                return original_post(sim, delay, callback, priority)
            return timed_post(sim, delay, tracer._dispatched(callback), priority)

        self._patch(Simulator, "run", run)
        self._patch(Simulator, "schedule_at", schedule_at)
        self._patch(Simulator, "post", post)

        # ttp: receivers registered on the topology.
        for topology in (BusTopology, StarTopology):
            original_attach = topology.attach_receiver

            def attach_receiver(self_, callback, _original=original_attach):
                return _original(self_, span("ttp.receive", "ttp.receives",
                                             callback))

            self._patch(topology, "attach_receiver", attach_receiver)
            self._patch(topology, "send",
                        span("network.send", "network.sends", topology.send))
            self._patch(topology, "send_skewed",
                        span("network.send", "network.sends",
                             topology.send_skewed))

        # network: channel, coupler, guardian.
        self._patch(Channel, "transmit",
                    span("network.channel", "network.transmits",
                         Channel.transmit))
        self._patch(StarCoupler, "receive_uplink",
                    span("network.coupler", "network.coupler_uplinks",
                         StarCoupler.receive_uplink))
        self._patch(LocalBusGuardian, "transmit",
                    span("network.guardian", "network.guardian_transmits",
                         LocalBusGuardian.transmit))
        for cls, registry in ((StarCoupler, self._couplers),
                              (LocalBusGuardian, self._guardians)):
            original_init = cls.__init__

            def registering_init(self_, *args, _original=original_init,
                                 _registry=registry, **kwargs):
                _original(self_, *args, **kwargs)
                if tracer.active:
                    _registry.append(self_)

            self._patch(cls, "__init__", registering_init)

        # obs: the event bus and its listeners.
        self._patch(TraceMonitor, "emit",
                    span("obs.emit", "obs.emits", TraceMonitor.emit))
        original_subscribe = TraceMonitor.subscribe
        original_unsubscribe = TraceMonitor.unsubscribe

        def subscribe(monitor, listener):
            if not tracer.active:
                return original_subscribe(monitor, listener)
            wrapped = span("obs.listener", "obs.listener_calls", listener)
            tracer._listeners[(id(monitor), listener)] = wrapped
            original_subscribe(monitor, wrapped)
            return listener

        def unsubscribe(monitor, listener):
            wrapped = tracer._listeners.pop((id(monitor), listener), listener)
            original_unsubscribe(monitor, wrapped)

        self._patch(TraceMonitor, "subscribe", subscribe)
        self._patch(TraceMonitor, "unsubscribe", unsubscribe)

        def observe_sampling(args, stats):
            counts["obs.sampled"] += stats["sampled"]
            counts["obs.skipped"] += stats["skipped"]

        self._patch(DecentralizedMonitorNetwork, "sampling_stats",
                    span("obs.sampling", "obs.sampling_reads",
                         DecentralizedMonitorNetwork.sampling_stats,
                         observe=observe_sampling))

        # modelcheck: the checker, successor generation, seen sets.
        def observe_check(args, result):
            counts["modelcheck.states"] += result.states_explored
            counts["modelcheck.transitions"] += result.transitions_explored

        self._patch(InvariantChecker, "check",
                    span("modelcheck.check", "modelcheck.checks",
                         InvariantChecker.check, observe=observe_check))
        self._patch(TTAStartupModel, "packed_successors",
                    span("modelcheck.successor", "modelcheck.successor_calls",
                         TTAStartupModel.packed_successors))
        self._patch(VectorKernel, "successor_level",
                    span("modelcheck.batch", "modelcheck.batch_calls",
                         VectorKernel.successor_level))
        for seen in (FusedSeenSet, SplitSeenSet):
            for name in ("filter_new", "insert"):
                self._patch(seen, name,
                            span("modelcheck.seen", "modelcheck.seen_calls",
                                 getattr(seen, name)))

        # exec: task-level fan-out.
        def observe_run(args, report):
            counts["exec.tasks"] += len(report.results)
            counts["exec.pool_engaged"] += int(report.pool_engaged)
            counts["exec.retries"] += report.retry_count

        def observe_map(args, results):
            counts["exec.tasks"] += len(results)
            counts["exec.pool_engaged"] += int(args[0].pool_engaged)

        self._patch(TaskRunner, "run",
                    span("exec.map", "exec.maps", TaskRunner.run,
                         observe=observe_run))
        self._patch(ParallelVerifier, "map",
                    span("exec.map", "exec.maps", ParallelVerifier.map,
                         observe=observe_map))

        # set-up layers: generation, cluster wiring, conformance.
        self._patch(sweep, "materialize",
                    span("gen.materialize", "gen.materializations",
                         sweep.materialize))
        self._patch(Cluster, "__init__",
                    span("cluster.build", "cluster.builds", Cluster.__init__))
        self._patch(Cluster, "power_on",
                    span("cluster.build", "cluster.power_ons",
                         Cluster.power_on))
        from repro.conformance import ReplayScenario

        self._patch(ReplayScenario, "run",
                    span("conformance.replay", "conformance.replays",
                         ReplayScenario.run))
        self._patch(conformance, "check_conformance",
                    span("conformance.check", "conformance.checks",
                         conformance.check_conformance))
        self.active = True

    def uninstall(self) -> None:
        """Stop recording and restore every wrapped attribute."""
        self.active = False
        for owner, name, own, original in reversed(self._patches):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches.clear()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
