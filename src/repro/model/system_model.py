"""Synchronous composition: the full TTA startup model.

Implements the :class:`repro.modelcheck.TransitionSystem` interface.  One
transition of the system corresponds to one TDMA slot (paper Section 4.2):
within a step,

1. the frames driven by the nodes determine the nominal channel content
   (both channels carry the same nominal content -- nodes send on both);
2. a nondeterministic coupler-fault choice (respecting the single-fault
   hypothesis, the authority level, and the out-of-slot budget) yields the
   actual content of each channel;
3. every node takes one step of its Section 4.3 transition relation given
   the two channel contents;
4. the couplers' frame buffers record the last identifiable frame on their
   channel (full-shifting only).

State layout (see :meth:`TTAStartupModel._build_space`): six variables per
node, plus two buffer variables per coupler and the remaining out-of-slot
budget when the authority level supports frame buffering.  Every variable
declares its finite domain, so the space supports the packed integer
encoding of :mod:`repro.modelcheck.encode`.

Packed fast path
----------------

:meth:`TTAStartupModel.packed_successors` never materialises state tuples.
Because the codec is positional, each node's six variables occupy one
contiguous digit block of the packed integer, and a successor state is the
*sum* of per-node contributions plus a buffers/budget tail -- all small-int
arithmetic over memo tables:

* ``(node, local-code, observation) -> next-local codes`` is the one memo
  of the Section 4.3 node relation (the dominant cost of the tuple path).
  It is keyed by what the step reads of the channels
  (:func:`~repro.model.node_model.node_observation`), not by the channel
  pair, so the many pairs that look alike to a node share one
  :func:`~repro.model.node_model.node_step_observed` call.  Both engines
  reach it through :meth:`TTAStartupModel.node_option_codes`; the scalar
  path keeps its own ``(node, local-code, pair) -> shifted codes`` index
  over it, and the vectorized kernel builds its step tables from it;
* ``(nominal, buffers, budget) -> fault-choice contexts`` caches the
  Section 4.4 coupler fault enumeration.

Whole successor sets are not memoized: a BFS expands every state once.

The packed enumeration preserves the exact successor order of
:meth:`successors`, so a breadth-first search over codes visits states in
the same order as one over tuples and reconstructs identical shortest
counterexamples.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from repro.model.config import FAULT_NONE, FAULT_OUT_OF_SLOT, ModelConfig
from repro.model.coupler_model import (
    KIND_BAD_FRAME,
    KIND_C_STATE,
    KIND_COLD_START,
    KIND_NONE,
    SILENT,
    ChannelContent,
    apply_fault,
    enumerate_fault_choices,
    nominal_content,
    update_buffer,
)
from repro.model.node_model import (
    ST_ACTIVE,
    ST_AWAIT,
    ST_COLD_START,
    ST_FREEZE,
    ST_FREEZE_CLIQUE,
    ST_INIT,
    ST_LISTEN,
    ST_PASSIVE,
    ST_TEST,
    NodeLocal,
    frame_sent,
    initial_local,
    node_observation,
    node_step,
    node_step_observed,
)
from repro.modelcheck.encode import StateCodec
from repro.modelcheck.model import Transition
from repro.modelcheck.state import StateSpace, Variable

#: Sentinel for "unlimited out-of-slot errors".
UNLIMITED = -1

#: Domain of every ``*_state`` variable (all Section 4.3 protocol states).
NODE_STATE_DOMAIN = (ST_FREEZE, ST_FREEZE_CLIQUE, ST_INIT, ST_LISTEN,
                     ST_COLD_START, ST_ACTIVE, ST_PASSIVE, ST_AWAIT, ST_TEST)

#: Domain of the coupler buffer kind variables.
BUFFER_KIND_DOMAIN = (KIND_NONE, KIND_COLD_START, KIND_C_STATE, KIND_BAD_FRAME)

#: Variables per node block (state, slot, big_bang, timeout, agreed, failed).
_VARS_PER_NODE = 6


class TTAStartupModel:
    """The Section 4 model as an explicit transition system."""

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self.space = self._build_space()
        self._node_ids = config.node_ids
        self._has_buffers = config.couplers_can_buffer
        self._codec: Optional[StateCodec] = None
        self._packed_ready = False

    # -- state layout -------------------------------------------------------------

    def _build_space(self) -> StateSpace:
        config = self.config
        slot_domain = tuple(range(config.slots + 1))
        timeout_domain = tuple(range(2 * config.slots + 1))
        counter_domain = tuple(range(config.counter_cap + 1))
        variables: List[Variable] = []
        for name in config.node_names:
            prefix = name.lower()
            variables.append(Variable(f"{prefix}_state", NODE_STATE_DOMAIN))
            variables.append(Variable(f"{prefix}_slot", slot_domain))
            variables.append(Variable(f"{prefix}_big_bang", (False, True)))
            variables.append(Variable(f"{prefix}_timeout", timeout_domain))
            variables.append(Variable(f"{prefix}_agreed", counter_domain))
            variables.append(Variable(f"{prefix}_failed", counter_domain))
        if config.couplers_can_buffer:
            frame_id_domain = tuple(range(config.slots + 1))
            budget = config.out_of_slot_budget
            if budget is None:
                oos_domain: Tuple[int, ...] = (UNLIMITED,)
            else:
                oos_domain = tuple(range(UNLIMITED, budget + 1))
            for index in (0, 1):
                variables.append(Variable(f"c{index}_buf_kind",
                                          BUFFER_KIND_DOMAIN))
                variables.append(Variable(f"c{index}_buf_id", frame_id_domain))
            variables.append(Variable("oos_left", oos_domain))
        return StateSpace(variables)

    @property
    def codec(self) -> StateCodec:
        """Packed-integer codec over the declared domains (built lazily)."""
        if self._codec is None:
            self._codec = StateCodec(self.space)
        return self._codec

    def _pack(self, locals_: List[NodeLocal], buffers: List[ChannelContent],
              oos_left: int) -> tuple:
        values: List = []
        for local in locals_:
            values.extend(local)
        if self._has_buffers:
            for buffered in buffers:
                values.append(buffered.kind)
                values.append(buffered.frame_id)
            values.append(oos_left)
        return tuple(values)

    def _unpack(self, state: tuple) -> Tuple[List[NodeLocal], List[ChannelContent], int]:
        locals_: List[NodeLocal] = []
        position = 0
        for _ in self._node_ids:
            locals_.append(NodeLocal(*state[position:position + _VARS_PER_NODE]))
            position += _VARS_PER_NODE
        if self._has_buffers:
            buffers = [
                ChannelContent(kind=state[position], frame_id=state[position + 1]),
                ChannelContent(kind=state[position + 2], frame_id=state[position + 3]),
            ]
            oos_left = state[position + 4]
        else:
            buffers = [SILENT, SILENT]
            oos_left = 0
        return locals_, buffers, oos_left

    # -- pickling (parallel workers rebuild the memo tables locally) --------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_codec"] = None
        state["_packed_ready"] = False
        for key in list(state):
            if key.startswith("_cache_"):
                del state[key]
        return state

    # -- TransitionSystem interface -----------------------------------------------------

    def initial_states(self) -> Iterator[tuple]:
        budget = self.config.out_of_slot_budget
        oos_left = UNLIMITED if budget is None else budget
        if not self.config.start_running:
            locals_ = [initial_local() for _ in self._node_ids]
            yield self._pack(locals_, [SILENT, SILENT], oos_left)
            return
        # Running cluster: every node but the last is active, at each
        # possible round position (the late node sees an arbitrary phase).
        # Each active node carries the clique counters it would have
        # accumulated since its own last round test: one agreed slot per
        # completed slot whose sender is up (its own send included), none
        # for the down node's silent slot.  Anything less would fabricate
        # round tests on empty counters and freeze healthy nodes.
        slots = self.config.slots
        down_node = slots

        def agreed_since_own_test(node_id: int, current_slot: int) -> int:
            agreed = 0
            slot = node_id
            while slot != current_slot:
                if slot != down_node:
                    agreed += 1
                slot = 1 if slot == slots else slot + 1
            return min(agreed, self.config.counter_cap)

        for slot in range(1, slots + 1):
            locals_ = [
                NodeLocal(ST_ACTIVE, slot, False, 0,
                          agreed_since_own_test(node_id, slot), 0)
                for node_id in self._node_ids[:-1]
            ]
            locals_.append(initial_local())
            yield self._pack(locals_, [SILENT, SILENT], oos_left)

    def successors(self, state: tuple) -> Iterator[Transition]:
        config = self.config
        locals_, buffers, oos_left = self._unpack(state)

        senders = []
        for node_id, local in zip(self._node_ids, locals_):
            kind = frame_sent(local, node_id)
            if kind != "none":
                senders.append((node_id, kind))
        nominal = nominal_content(senders)

        seen: Dict[tuple, None] = {}
        budget_for_choice = 1 if oos_left == UNLIMITED else oos_left
        for fault0, fault1 in enumerate_fault_choices(config, buffers,
                                                      budget_for_choice):
            channel0 = apply_fault(fault0, nominal, buffers[0])
            channel1 = apply_fault(fault1, nominal, buffers[1])
            channels = (channel0, channel1)

            new_buffers = [update_buffer(buffers[0], channel0),
                           update_buffer(buffers[1], channel1)]
            used_out_of_slot = FAULT_OUT_OF_SLOT in (fault0, fault1)
            if oos_left == UNLIMITED:
                new_oos = UNLIMITED
            else:
                new_oos = oos_left - (1 if used_out_of_slot else 0)

            per_node_options = [
                node_step(config, node_id, local, channels)
                for node_id, local in zip(self._node_ids, locals_)
            ]
            label = {
                "fault": self._fault_label(fault0, fault1),
                "ch0": self._content_label(channel0),
                "ch1": self._content_label(channel1),
            }
            for combo in itertools.product(*per_node_options):
                packed = self._pack(list(combo), new_buffers, new_oos)
                if packed in seen:
                    continue
                seen[packed] = None
                yield Transition(target=packed, label=label)

    def successors_batch(self, state: tuple) -> List[tuple]:
        """Successor target tuples without labels or Transition objects.

        The label-free sibling of :meth:`successors` for callers that only
        need the targets (reachability counts, deadlock scans).  Backed by
        the packed fast path.
        """
        codec = self.codec
        unpack = codec.unpack
        return [unpack(code) for code in self.packed_successors(codec.pack(state))]

    # -- packed fast path ---------------------------------------------------------

    #: Bits reserved for the interned channel-pair id inside node-step memo
    #: keys; the distinct (channel0, channel1) pairs of one model are far
    #: fewer than 2**12.
    _PAIR_KEY_BITS = 12

    def _build_packed_tables(self) -> None:
        """Precompute the digit geometry and memo tables (lazy, idempotent)."""
        node_count = len(self._node_ids)
        block_vars = self.space.variables[:_VARS_PER_NODE]
        block_radix = 1
        for variable in block_vars:
            block_radix *= len(variable.domain)
        self._block_radix = block_radix
        self._node_count = node_count
        #: Node block i's contribution scale: block_radix ** i.
        self._node_scale = tuple(block_radix ** index
                                 for index in range(node_count))
        self._tail_scale = block_radix ** node_count
        #: Intra-block packing tables (identical layout for every node).
        self._local_index = tuple(
            {value: index for index, value in enumerate(variable.domain)}
            for variable in block_vars)
        self._local_domains = tuple(tuple(variable.domain)
                                    for variable in block_vars)
        self._local_radices = tuple(len(variable.domain)
                                    for variable in block_vars)
        # Memo tables, all keyed by plain ints so the hot loop hashes
        # machine words only.  Named ``_cache_*`` so pickling drops them
        # wholesale (workers rebuild them locally).
        self._cache_local_of_code: Dict[int, NodeLocal] = {}
        self._cache_sent: Dict[int, str] = {}
        #: (node, local, pair) -> shifted next-local codes (scalar path).
        self._cache_step: Dict[int, Tuple[int, ...]] = {}
        self._cache_fault_ctx: Dict[Tuple[tuple, int], List[tuple]] = {}
        #: Channel pairs interned to small ints for compact memo keys.
        self._cache_pair_key: Dict[Tuple[str, int, str, int], int] = {}
        #: Reverse intern table: pair id -> (channel0, channel1).
        self._cache_pair_list: List[Tuple[ChannelContent, ChannelContent]] = []
        #: The node-step memo: (node, local, observation) -> unshifted
        #: next-local codes (see :meth:`node_option_codes`).
        self._cache_node_step: Dict[tuple, Tuple[int, ...]] = {}
        self._packed_ready = True

    def _encode_local(self, local: NodeLocal) -> int:
        code = 0
        scale = 1
        for value, table, radix in zip(local, self._local_index,
                                       self._local_radices):
            code += table[value] * scale
            scale *= radix
        return code

    def _decode_local(self, code: int) -> NodeLocal:
        local = self._cache_local_of_code.get(code)
        if local is None:
            values = []
            rest = code
            for radix, domain in zip(self._local_radices, self._local_domains):
                rest, digit = divmod(rest, radix)
                values.append(domain[digit])
            local = NodeLocal(*values)
            self._cache_local_of_code[code] = local
        return local

    def _intern_pair(self, channel0: ChannelContent,
                     channel1: ChannelContent) -> int:
        key = (channel0.kind, channel0.frame_id,
               channel1.kind, channel1.frame_id)
        interned = self._cache_pair_key.get(key)
        if interned is None:
            interned = len(self._cache_pair_key)
            if interned >= 1 << self._PAIR_KEY_BITS:  # pragma: no cover
                raise AssertionError("channel-pair intern table overflow")
            self._cache_pair_key[key] = interned
            self._cache_pair_list.append((channel0, channel1))
        return interned

    def _decode_tail(self, tail_code: int) -> Tuple[List[ChannelContent], int]:
        """Decode the buffers + out-of-slot budget digits."""
        if not self._has_buffers:
            return [SILENT, SILENT], 0
        offset = _VARS_PER_NODE * len(self._node_ids)
        variables = self.space.variables[offset:]
        values = []
        rest = tail_code
        for variable in variables:
            rest, digit = divmod(rest, len(variable.domain))
            values.append(variable.domain[digit])
        buffers = [ChannelContent(kind=values[0], frame_id=values[1]),
                   ChannelContent(kind=values[2], frame_id=values[3])]
        return buffers, values[4]

    def _tail_code_of(self, buffers: List[ChannelContent], oos_left: int) -> int:
        if not self._has_buffers:
            return 0
        values = (buffers[0].kind, buffers[0].frame_id,
                  buffers[1].kind, buffers[1].frame_id, oos_left)
        offset = _VARS_PER_NODE * len(self._node_ids)
        code = 0
        scale = 1
        for variable, value in zip(self.space.variables[offset:], values):
            code += variable.domain.index(value) * scale
            scale *= len(variable.domain)
        return code

    def _build_fault_contexts(self, nominal_signature: Tuple[str, int],
                              tail_code: int) -> List[tuple]:
        """All fault choices for one step context, with precomputed pieces.

        The context of a step is fully determined by the nominal channel
        content and the tail digits (buffers + out-of-slot budget), so the
        cache key is just ``(nominal, tail_code)``.  Each entry is
        ``(pair_key, tail_contribution)``: the interned id of the two
        post-fault channel contents (the node relation's input, see
        :meth:`node_option_codes`) and the packed contribution of the
        successor's buffers + budget digits.
        """
        nominal = ChannelContent(kind=nominal_signature[0],
                                 frame_id=nominal_signature[1])
        buffers, oos_left = self._decode_tail(tail_code)
        contexts: List[tuple] = []
        config = self.config
        budget_for_choice = 1 if oos_left == UNLIMITED else oos_left
        for fault0, fault1 in enumerate_fault_choices(config, buffers,
                                                      budget_for_choice):
            channel0 = apply_fault(fault0, nominal, buffers[0])
            channel1 = apply_fault(fault1, nominal, buffers[1])
            new_buffers = [update_buffer(buffers[0], channel0),
                           update_buffer(buffers[1], channel1)]
            used_out_of_slot = FAULT_OUT_OF_SLOT in (fault0, fault1)
            if oos_left == UNLIMITED:
                new_oos = UNLIMITED
            else:
                new_oos = oos_left - (1 if used_out_of_slot else 0)
            tail_contribution = self._tail_code_of(new_buffers, new_oos) * \
                self._tail_scale
            contexts.append((self._intern_pair(channel0, channel1),
                             tail_contribution))
        self._cache_fault_ctx[(nominal_signature, tail_code)] = contexts
        return contexts

    def _build_node_options(self, node_index: int, local_code: int,
                            step_key: int, pair_key: int) -> Tuple[int, ...]:
        """Shifted packed codes of one node's next locals (memo miss path)."""
        scale = self._node_scale[node_index]
        options = tuple(option * scale for option in self.node_option_codes(
            node_index, local_code, pair_key))
        self._cache_step[step_key] = options
        return options

    def packed_initial_states(self) -> List[int]:
        codec = self.codec
        return [codec.pack(state) for state in self.initial_states()]

    def packed_successors(self, code: int) -> Tuple[int, ...]:
        """Packed successor codes, in :meth:`successors` enumeration order.

        Pure integer composition: per fault choice, the successor set is the
        cartesian product of each node's cached next-local contributions,
        realised as sums -- no tuples, no Transition objects, no labels.
        """
        if not self._packed_ready:
            self._build_packed_tables()

        block_radix = self._block_radix
        node_count = self._node_count
        sent_cache = self._cache_sent
        rest = code
        local_codes = []
        senders = []
        for node_index in range(node_count):
            rest, local_code = divmod(rest, block_radix)
            local_codes.append(local_code)
            sent_key = local_code * node_count + node_index
            kind = sent_cache.get(sent_key)
            if kind is None:
                kind = frame_sent(self._decode_local(local_code),
                                  node_index + 1)
                sent_cache[sent_key] = kind
            if kind != "none":
                senders.append((node_index + 1, kind))
        # rest now holds the tail digits (buffers + out-of-slot budget).
        if not senders:
            nominal_signature = (KIND_NONE, 0)
        elif len(senders) > 1:
            nominal_signature = (KIND_BAD_FRAME, 0)
        else:
            node_id, kind = senders[0]
            nominal_signature = (kind, node_id)

        contexts = self._cache_fault_ctx.get((nominal_signature, rest))
        if contexts is None:
            contexts = self._build_fault_contexts(nominal_signature, rest)

        pair_bits = self._PAIR_KEY_BITS
        step_cache = self._cache_step
        seen: Dict[int, None] = {}
        for pair_key, tail_contribution in contexts:
            totals = [tail_contribution]
            for node_index in range(node_count):
                local_code = local_codes[node_index]
                step_key = ((local_code * node_count + node_index)
                            << pair_bits) | pair_key
                options = step_cache.get(step_key)
                if options is None:
                    options = self._build_node_options(node_index, local_code,
                                                       step_key, pair_key)
                if len(options) == 1:
                    option = options[0]
                    totals = [total + option for total in totals]
                else:
                    totals = [total + option
                              for total in totals for option in options]
            for total in totals:
                if total not in seen:
                    seen[total] = None

        return tuple(seen)

    # -- vectorized-engine hooks --------------------------------------------------
    #
    # The batched frontier kernel (repro/modelcheck/vector.py) composes
    # whole-frontier successor arrays from the same three memo families the
    # scalar path uses.  These accessors expose them without the kernel
    # reaching into ``_cache_*`` internals, and fill misses through the
    # identical scalar code so both engines stay bit-for-bit consistent.

    def ensure_packed_tables(self) -> None:
        """Build the packed digit geometry/memos if not built yet."""
        if not self._packed_ready:
            self._build_packed_tables()

    def packed_geometry(self) -> Tuple[int, int, int]:
        """``(block_radix, node_count, tail_scale)`` of the packed layout.

        A packed code splits as ``code = word + tail * tail_scale`` where
        ``word`` holds the node blocks (node ``i`` scaled by
        ``block_radix ** i``) and ``tail`` the buffers + budget digits.
        """
        self.ensure_packed_tables()
        return self._block_radix, self._node_count, self._tail_scale

    def sent_kind(self, node_index: int, local_code: int) -> str:
        """Frame kind ('none'/'c_state'/'cold_start') one node drives."""
        self.ensure_packed_tables()
        sent_key = local_code * self._node_count + node_index
        kind = self._cache_sent.get(sent_key)
        if kind is None:
            kind = frame_sent(self._decode_local(local_code), node_index + 1)
            self._cache_sent[sent_key] = kind
        return kind

    def fault_contexts(self, nominal_signature: Tuple[str, int],
                       tail_code: int) -> List[tuple]:
        """Cached fault contexts for one ``(nominal, tail)`` step context
        (see :meth:`_build_fault_contexts` for the entry layout)."""
        self.ensure_packed_tables()
        contexts = self._cache_fault_ctx.get((nominal_signature, tail_code))
        if contexts is None:
            contexts = self._build_fault_contexts(nominal_signature, tail_code)
        return contexts

    def node_option_codes(self, node_index: int, local_code: int,
                          pair_key: int) -> Tuple[int, ...]:
        """*Unshifted* next-local codes of one node under one channel pair,
        in :func:`~repro.model.node_model.node_step` order.

        Looked up in the node-step memo under what the node observes of
        the pair, so :func:`node_step_observed` runs once per distinct
        ``(node, local, observation)``, however many pairs map onto it.
        Callers apply the ``block_radix ** node_index`` scale themselves
        (:meth:`_build_node_options`, the vectorized kernel's table fill).
        """
        node_id = self._node_ids[node_index]
        local = self._decode_local(local_code)
        observation = node_observation(self.config, node_id, local,
                                       self._cache_pair_list[pair_key])
        key = (node_index, local_code, observation)
        raw = self._cache_node_step.get(key)
        if raw is None:
            raw = tuple(self._encode_local(next_local)
                        for next_local in node_step_observed(
                            self.config, node_id, local, observation))
            self._cache_node_step[key] = raw
        return raw

    # -- labels ------------------------------------------------------------------------

    @staticmethod
    def _fault_label(fault0: str, fault1: str) -> str:
        if fault0 == FAULT_NONE and fault1 == FAULT_NONE:
            return "none"
        if fault0 != FAULT_NONE:
            return f"coupler0:{fault0}"
        return f"coupler1:{fault1}"

    def _content_label(self, content: ChannelContent) -> str:
        if content.frame_id == 0:
            return content.kind
        return f"{content.kind}#{self.config.name_of(content.frame_id)}"

    # -- conveniences -----------------------------------------------------------------------

    def node_view(self, state: tuple, node_id: int) -> NodeLocal:
        """The local state of one node inside a packed state."""
        locals_, _, _ = self._unpack(state)
        return locals_[node_id - 1]
