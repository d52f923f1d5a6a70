"""Vectorized frontier engine: whole-level successor computation.

The scalar packed engine (:meth:`TTAStartupModel.packed_successors`) costs
one Python call per state; at ~75k states/s the interpreter, not the
model, is the bottleneck.  This module moves the BFS inner loop into
NumPy: the frontier is a pair of aligned arrays and one level's worth of
successors is computed with a fixed number of array operations,
independent of the frontier size.

Split code representation
-------------------------

A packed code (:mod:`repro.modelcheck.encode`) can exceed 64 bits (the
full-shifting configuration needs 72), so the engine splits every code at
the node/tail boundary of the packed layout::

    code = word + tail * tail_scale
    word = sum_i local_i * block_radix**i     (node blocks, fits uint64)
    tail = buffers + out-of-slot budget digits (small int)

``word`` carries all per-node digits and stays below ``2**63`` for any
model this repo builds (asserted at kernel construction); ``tail`` is a
small enumeration (<= a few thousand values) kept in ``int64``.

Per-level kernel
----------------

:meth:`VectorKernel.successor_level` computes, for a whole frontier:

1. **digit planes** -- per-node local codes via a ``divmod`` chain by
   ``block_radix`` (one array op per node, node-major: one contiguous
   array per node), then dense local ids:
   ``local_id`` is interned the first time a node-local code appears in
   a frontier, so the tables below cover only the few hundred codes a
   search reaches, not the whole ``block_radix`` local axis;
2. **nominal signatures** -- an ``int8`` sent-kind table indexed
   ``[local_id, node]`` (filled for every node position when the id is
   interned) maps local ids to driven frames; sender counts collapse to a
   small signature id (silence / collision / single sender x kind);
3. **context grouping** -- states sharing ``(signature, tail)`` share the
   same fault-choice contexts; the per-key context lists come from the
   model's scalar cache (:meth:`fault_contexts`) and are flattened into
   arrays, then every state is repeated once per applicable context;
4. **step tables** -- ``counts``/``offsets`` tables indexed
   ``[pair, node, local_id]`` point into one flat ``uint64`` pool of
   pre-scaled next-local codes.  The entries a level gathers unfilled are
   filled in bulk: their flat indices are decoded with array ``divmod``,
   their options come from the model's node-step memo
   (:meth:`node_option_codes`, keyed by what the node observes, shared
   with the packed engine so both stay bit-for-bit consistent), and
   counts and offsets are written with one scatter each while the option
   sets the pool lacks join it as one chunk.  The pool is interned by
   content, ``(node, options)``: equal option sets share one offset, so
   equal offsets mean equal option sets.  Both table dimensions grow by
   doubling;
5. **repeat rows** -- a row whose next tail and per-node offsets equal
   those of an earlier row of the same parent would yield that row's
   successors again, so it is dropped before the expansion.  A parent's
   rows are contiguous and there are at most a few contexts per key, so
   comparing each row with the few rows before it, one column at a time,
   finds them;
6. **cartesian expansion** -- each kept row yields ``prod(counts)``
   successors.  Nodes with a single option in every row add it row-wise;
   each other node repeats every partial successor once per option, in
   node order, so the last node varies fastest as in the scalar product.
   The edges come out in :meth:`TTAStartupModel.packed_successors`
   enumeration order (parent, fault context, then node options with the
   last node fastest).  Rows with different option sets can still reach
   one target twice; :class:`LevelDiscovery` drops those per-parent
   repeats.

Level step
----------

:class:`LevelDiscovery` resolves one level's scalar-order edges against
the visited set with one stable sort by target code: the first edge of
each target's run discovers it, same-parent neighbours in a run are
per-parent repeats.  New states stay in discovery order with their
first parent's row, which is all the checker's exact level loop
(:func:`repro.modelcheck.checker._level_bfs`) needs to reproduce the
scalar packed engine's counts, truncation and counterexample.  Only
when asked (:meth:`LevelDiscovery.branching`, for ``repro statespace``)
are the non-repeat edges counted by parent row with one ``np.bincount``:
each expanded state's transition count, whose maximum is the branching
factor and whose zeros are deadlocks.  Invariant checks never ask, so
``repro verify`` does no extra work.

All sorts are plain ``np.lexsort``/``np.sort`` over integer keys -- the
result order is fully determined by the key values, never by memory
layout or hash seeds.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.modelcheck.encode import StateCodec, require_numpy

#: Frame kinds a node can drive, as small ids for the sent tables.
#: (The string values mirror repro.model.coupler_model.KIND_*; they are
#: redeclared here so the generic modelcheck layer does not import the
#: model package.)
KIND_TO_ID = {"none": 0, "c_state": 1, "cold_start": 2}
ID_TO_KIND = ("none", "c_state", "cold_start")

#: Signature id of the silent slot / of a multi-sender collision.
SIG_SILENT = 0
SIG_COLLISION = 1


def represents(block_radix: int, node_count: int) -> bool:
    """Whether a packed layout's node blocks fit the kernel's ``uint64``
    words: the width guard :class:`VectorKernel` raises ``ValueError``
    on, as a test callers can make before building a kernel."""
    return block_radix ** node_count <= 1 << 63


class VectorKernel:
    """Batched successor computation over one model's packed layout.

    Holds the lazily grown vector-side tables (sent kinds, step tables,
    flattened fault contexts).  All misses are filled through the model's
    scalar accessors, so the kernel never re-implements protocol logic.
    """

    def __init__(self, model) -> None:
        np = require_numpy()
        self.np = np
        self.model = model
        model.ensure_packed_tables()
        block_radix, node_count, tail_scale = model.packed_geometry()
        if block_radix ** node_count > (1 << 63):
            raise ValueError(
                "node blocks exceed 63 bits; the vectorized engine cannot "
                "represent this model's states as uint64 words")
        self.block_radix = block_radix
        self.node_count = node_count
        self.tail_scale = tail_scale
        self.tail_radix = model.codec.size // tail_scale
        #: Whether full codes fit uint64 (fused single-key dedup path).
        self.fused = model.codec.fits_uint64
        self._tail_scale_u64 = np.uint64(tail_scale)
        #: Node block scales: block_radix ** i.
        self._scales = [block_radix ** index for index in range(node_count)]
        #: Interned local codes: code -> dense id (-1 = not seen yet), and
        #: the reverse list (id -> code).
        self._local_id = np.full(block_radix, -1, dtype=np.int64)
        self._local_codes: List[int] = []
        #: Sent-kind id of every interned local id at every node position
        #: (``[id, node]``), filled when the id is interned.
        self._sent = np.empty((0, node_count), dtype=np.int8)
        #: Stacked step tables indexed ``[pair_key, node, local_id]``;
        #: counts of -1 mark unfilled entries, offsets point into the flat
        #: pool.  int64 so gathers feed the index arithmetic without
        #: conversions.  Sized by :meth:`_reserve`.
        self._counts = np.empty((0, node_count, 0), dtype=np.int64)
        self._offsets = np.empty((0, node_count, 0), dtype=np.int64)
        #: Broadcast helpers reused every level (node-major columns).
        self._node_column = np.arange(node_count)[:, None]
        self._sig_base = 2 + 2 * np.arange(node_count, dtype=np.int64)[:, None]
        #: Flat-index helpers, reset by :meth:`_reserve`:
        #: table[pair, node, id] ==
        #: table.ravel()[pair * pair_stride + node * id_capacity + id].
        self._pair_stride = 0
        self._node_stride = np.zeros((node_count, 1), dtype=np.int64)
        self._counts_flat = self._counts.ravel()
        self._offsets_flat = self._offsets.ravel()
        #: Flat pool of pre-scaled option codes the offsets point into.
        self._options = np.empty(0, dtype=np.uint64)
        #: ``(node, option codes)`` -> offset of that option set in the
        #: pool: equal option sets of one node share one offset, so equal
        #: offsets mean equal option sets (-1 is the empty set's offset).
        self._option_offset: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        #: context key -> (pair_keys int64[], next_tails int64[]).
        self._contexts: Dict[int, Tuple["object", "object"]] = {}

    # -- code representation helpers ---------------------------------------------

    def split_codes(self, codes: List[int]) -> Tuple["object", "object"]:
        """Python-int codes -> aligned ``(words uint64, tails int64)``."""
        np = self.np
        scale = self.tail_scale
        words = np.array([code % scale for code in codes], dtype=np.uint64)
        tails = np.array([code // scale for code in codes], dtype=np.int64)
        return words, tails

    def join_codes(self, words, tails) -> List[int]:
        """Aligned split arrays -> Python-int packed codes (exact)."""
        scale = self.tail_scale
        return [int(word) + int(tail) * scale
                for word, tail in zip(words.tolist(), tails.tolist())]

    def fuse(self, words, tails) -> "object":
        """Split arrays -> single uint64 code array (requires
        :attr:`fused`); code order equals ``(tail, word)`` lexicographic
        order, so fused sorts agree with split lexsorts."""
        return words + tails.astype(self.np.uint64) * self._tail_scale_u64

    def local_planes(self, words) -> "object":
        """Per-node local codes: ``(node_count, n)`` int64 digit planes."""
        np = self.np
        planes = np.empty((self.node_count, len(words)), dtype=np.int64)
        rest = words
        radix = np.uint64(self.block_radix)
        for index in range(self.node_count):
            rest, local = np.divmod(rest, radix)
            planes[index] = local
        return planes

    # -- lazy tables --------------------------------------------------------------

    def _intern(self, planes) -> "object":
        """Dense local ids of all nodes x states (interns new codes and
        records their sent kinds at every node position)."""
        np = self.np
        ids = self._local_id.take(planes)
        if (ids < 0).any():
            fresh = np.unique(planes[ids < 0]).tolist()
            first = len(self._local_codes)
            self._local_id[fresh] = np.arange(first, first + len(fresh))
            self._local_codes.extend(fresh)
            sent_kind = self.model.sent_kind
            kinds = np.array([[KIND_TO_ID[sent_kind(node_index, code)]
                               for node_index in range(self.node_count)]
                              for code in fresh], dtype=np.int8)
            self._sent = np.concatenate([self._sent, kinds])
            ids = self._local_id.take(planes)
        return ids

    def _signature_of(self, sig_id: int) -> Tuple[str, int]:
        """Signature id -> the model's ``(kind, node_id)`` nominal tuple."""
        if sig_id == SIG_SILENT:
            return ("none", 0)
        if sig_id == SIG_COLLISION:
            return ("bad_frame", 0)
        node_index, kind_shift = divmod(sig_id - 2, 2)
        return (ID_TO_KIND[kind_shift + 1], node_index + 1)

    def _context_entry(self, key: int) -> Tuple["object", "object"]:
        """Flattened fault contexts of one ``(signature, tail)`` key."""
        np = self.np
        entry = self._contexts.get(key)
        if entry is None:
            sig_id, tail_code = divmod(key, self.tail_radix)
            contexts = self.model.fault_contexts(self._signature_of(sig_id),
                                                 tail_code)
            pair_keys = np.array([pair_key for pair_key, _ in contexts],
                                 dtype=np.int64)
            next_tails = np.array(
                [contribution // self.tail_scale
                 for _, contribution in contexts], dtype=np.int64)
            entry = (pair_keys, next_tails)
            self._contexts[key] = entry
        return entry

    def _reserve(self, pair_count: int) -> None:
        """Grow the step tables, by doubling, to cover ``pair_count``
        pairs and every interned local id."""
        np = self.np
        old_pairs, _, old_ids = self._counts.shape
        id_count = len(self._local_codes)
        if pair_count <= old_pairs and id_count <= old_ids:
            return
        pairs = (old_pairs if pair_count <= old_pairs
                 else max(pair_count, 2 * old_pairs))
        ids = old_ids if id_count <= old_ids else max(id_count, 2 * old_ids)
        shape = (pairs, self.node_count, ids)
        counts = np.full(shape, -1, dtype=np.int64)
        offsets = np.zeros(shape, dtype=np.int64)
        counts[:old_pairs, :, :old_ids] = self._counts
        offsets[:old_pairs, :, :old_ids] = self._offsets
        self._counts, self._offsets = counts, offsets
        self._counts_flat = counts.ravel()
        self._offsets_flat = offsets.ravel()
        self._pair_stride = self.node_count * ids
        self._node_stride = (np.arange(self.node_count) * ids)[:, None]

    def _fill_missing(self, flat_index, counts) -> None:
        """Fill step-table entries for every flat ``(pair, node, id)``
        index gathered as unfilled (count < 0) in this level, from the
        model's node-step memo (:meth:`node_option_codes`), and append
        the option sets the pool does not hold yet as one chunk.

        Options enter the flat pool *pre-scaled* by ``block_radix**node``,
        so the expansion sums gathered pool entries directly.  The pool is
        interned by content: an option set already pooled for its node
        gets the offset it has (the memo's codes determine the pre-scaled
        ones, so they are the key), which :meth:`successor_level` relies
        on to spot repeat rows by their offsets.
        """
        np = self.np
        missing = np.unique(flat_index[counts < 0])
        pair_keys, rest = np.divmod(missing, self._pair_stride)
        node_indices, local_ids = np.divmod(rest, self._counts.shape[2])
        option_codes = self.model.node_option_codes
        local_codes = self._local_codes
        scales = self._scales
        option_offset = self._option_offset
        pool_size = len(self._options)
        lengths = []
        starts = []
        chunk: List[int] = []
        for pair_key, node_index, local_id in zip(
                pair_keys.tolist(), node_indices.tolist(), local_ids.tolist()):
            options = option_codes(node_index, local_codes[local_id], pair_key)
            key = (node_index, options)
            start = option_offset.get(key)
            if start is None:
                start = pool_size + len(chunk) if options else -1
                option_offset[key] = start
                scale = scales[node_index]
                chunk.extend(option * scale for option in options)
            lengths.append(len(options))
            starts.append(start)
        if chunk and max(chunk) >= 1 << 63:
            raise OverflowError("pre-scaled option codes exceed 63 bits")
        self._counts_flat[missing] = lengths
        self._offsets_flat[missing] = starts
        self._options = np.concatenate(
            [self._options, np.array(chunk, dtype=np.uint64)])

    # -- the per-level kernel ------------------------------------------------------

    def successor_level(self, words, tails):
        """Raw successors of a whole frontier, one array op at a time.

        Returns ``(succ_words, succ_tails, parent_index)`` where
        ``parent_index[j]`` is the row of the input frontier that produced
        successor ``j``.  A fault context that gives every node of a
        parent the same options and the same next tail as an earlier one
        adds no edges; contexts that differ can still reach one target
        twice, and :class:`LevelDiscovery` drops the repeats the scalar
        path's per-state dedup never makes.

        Edges come in the enumeration order of
        :meth:`TTAStartupModel.packed_successors`, less those repeat
        contexts: parent-major, and per parent in scalar order.
        """
        np = self.np
        n = len(words)
        empty = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64),
                 np.empty(0, dtype=np.int64))
        if n == 0:
            return empty

        ids = self._intern(self.local_planes(words))

        # Nominal signature of every state, branch-free: each sending node
        # contributes its own signature id, the row sum IS the signature
        # when exactly one node sends, and sender counts patch the silent
        # and collision rows.
        kinds = self._sent[ids, self._node_column].astype(np.int64)
        sending = kinds > 0
        sender_count = sending.sum(axis=0)
        per_node_sig = sending * (self._sig_base + (kinds - 1))
        signatures = np.where(
            sender_count == 1, per_node_sig.sum(axis=0),
            np.where(sender_count == 0, SIG_SILENT, SIG_COLLISION))

        # Group states by (signature, tail) context key and flatten each
        # key's fault contexts into per-row pair/tail arrays.
        keys = signatures * self.tail_radix + tails
        unique_keys, key_of_state = np.unique(keys, return_inverse=True)
        pair_chunks = []
        tail_chunks = []
        context_counts = np.empty(len(unique_keys), dtype=np.int64)
        for position, key in enumerate(unique_keys.tolist()):
            pair_keys, next_tails = self._context_entry(key)
            pair_chunks.append(pair_keys)
            tail_chunks.append(next_tails)
            context_counts[position] = len(pair_keys)
        flat_pairs = np.concatenate(pair_chunks)
        flat_tails = np.concatenate(tail_chunks)
        context_offsets = np.zeros(len(unique_keys), dtype=np.int64)
        if len(unique_keys) > 1:
            context_offsets[1:] = np.cumsum(context_counts)[:-1]

        # One row per (state, applicable fault context).
        contexts_per_state = context_counts[key_of_state]
        row_state = np.repeat(np.arange(n), contexts_per_state)
        row_starts = np.zeros(n, dtype=np.int64)
        if n > 1:
            row_starts[1:] = np.cumsum(contexts_per_state)[:-1]
        within = np.arange(len(row_state)) - row_starts[row_state]
        row_context = context_offsets[key_of_state[row_state]] + within
        row_pair = flat_pairs[row_context]
        row_next_tail = flat_tails[row_context]

        # Per-node, per-row option counts and offsets into the flat pool,
        # node-major so that each node's column is one contiguous array.
        # One flat index array serves both stacked tables (same geometry);
        # entries gathered as -1 are unfilled, triggering a bulk fill +
        # regather.
        self._reserve(int(flat_pairs.max()) + 1)
        flat_index = (row_pair * self._pair_stride
                      + self._node_stride) + ids.take(row_state, axis=1)
        counts = self._counts_flat.take(flat_index)
        if (counts < 0).any():
            self._fill_missing(flat_index, counts)
            counts = self._counts_flat.take(flat_index)
        offsets = self._offsets_flat.take(flat_index)

        # Drop repeat rows: a row whose next tail and per-node option sets
        # (equal offsets, by the pool's interning) equal those of an
        # earlier row of its parent yields exactly that row's successors
        # again.  A parent's rows are contiguous and number at most the
        # largest context count, so the earlier rows are a few lags back.
        # ``rows`` maps what the expansion builds back to its row.
        rows = None
        lags = int(context_counts.max()) - 1
        if lags:
            repeat = np.zeros(len(row_state), dtype=bool)
            for lag in range(1, lags + 1):
                same = row_state[lag:] == row_state[:-lag]
                same &= row_next_tail[lag:] == row_next_tail[:-lag]
                for column in offsets:
                    same &= column[lag:] == column[:-lag]
                repeat[lag:] |= same
            if repeat.any():
                rows = np.flatnonzero(~repeat)

        # Cartesian expansion: each kept row yields prod(counts)
        # successors, the last node's option varying fastest as in the
        # scalar product.  Nodes with one option in every row add their
        # (pre-scaled) option row-wise; each other node repeats every
        # partial successor once per option, in node order, so the output
        # stays parent-major, context-minor and in scalar rank order.  (A
        # dropped row has its twin's counts, so it changes no node's kind.)
        expanding = np.flatnonzero((counts != 1).any(axis=1)).tolist()
        fixed = [node for node in range(self.node_count)
                 if node not in expanding]
        fixed_offsets = offsets[fixed]
        if rows is not None:
            fixed_offsets = fixed_offsets.take(rows, axis=1)
        succ_words = self._options.take(fixed_offsets).sum(
            axis=0, dtype=np.uint64)
        for node in expanding:
            node_counts = counts[node]
            node_offsets = offsets[node]
            if rows is not None:
                node_counts = node_counts.take(rows)
                node_offsets = node_offsets.take(rows)
            partial = np.repeat(np.arange(len(node_counts)), node_counts)
            first = np.cumsum(node_counts) - node_counts
            option = np.arange(len(partial)) - first.take(partial)
            succ_words = succ_words.take(partial) + self._options.take(
                node_offsets.take(partial) + option)
            rows = partial if rows is None else rows.take(partial)
        if rows is None:
            return succ_words, row_next_tail, row_state
        return succ_words, row_next_tail.take(rows), row_state.take(rows)


def model_kernel(model) -> VectorKernel:
    """The model's vector kernel, built on first use and kept on the model
    (so its step tables live and die with that one model)."""
    kernel = getattr(model, "_cache_vector_kernel", None)
    if kernel is None:
        kernel = VectorKernel(model)
        model._cache_vector_kernel = kernel
    return kernel


class LevelDiscovery:
    """One BFS level's edges resolved the way the scalar packed loop walks
    them, with one stable sort by target code.

    The edges ``(succ_words, succ_tails, parents)`` must come in the
    scalar engine's enumeration order: parent-major, and per parent in
    :meth:`TTAStartupModel.packed_successors` order (what
    :meth:`VectorKernel.successor_level` returns).
    Ties of a stable sort keep edge order, so within one target's run of
    edges

    * the first is the edge that discovers the target, and
    * parents never decrease, so an edge whose parent equals its run
      neighbour's repeats a target of its own parent -- an edge the
      per-state ``packed_successors`` dedup would never have produced.
      The kernel already leaves out the contexts that repeat a whole
      earlier context; these are the repeats that remain, where two
      contexts with different option sets reach one target.

    Unvisited targets (``seen.filter_new``) become the level's new states
    in *discovery* order -- the order of their first edges -- with the
    row of their first parent in ``parents`` (int32).  Nothing is
    committed until :meth:`commit`.
    """

    def __init__(self, kernel: VectorKernel, seen: Any, succ_words,
                 succ_tails, parents) -> None:
        np = kernel.np
        edges = len(succ_words)
        head = np.empty(edges, dtype=bool)
        head[:1] = True
        if kernel.fused:
            codes = kernel.fuse(succ_words, succ_tails)
            order = np.argsort(codes, kind="stable")
            codes = codes[order]
            np.not_equal(codes[1:], codes[:-1], out=head[1:])
            codes = codes[head]
            fresh = seen.filter_new(codes)
            self._keys: Tuple[Any, ...] = (codes[fresh],)
        else:
            order = np.lexsort((succ_words, succ_tails))
            words, tails = succ_words[order], succ_tails[order]
            head[1:] = (words[1:] != words[:-1]) | (tails[1:] != tails[:-1])
            words, tails = words[head], tails[head]
            fresh = seen.filter_new(words, tails)
            self._keys = (words[fresh], tails[fresh])
        sorted_parents = parents[order]
        repeat = ~head
        repeat[1:] &= sorted_parents[1:] == sorted_parents[:-1]
        self._order = order
        self._repeat = repeat
        self._sorted_parents = sorted_parents
        #: Edges of the level that are not per-parent repeats.
        self.transitions = edges - int(np.count_nonzero(repeat))
        #: Index of each new state's first edge, in discovery order.
        self.first_edge = np.sort(order[head][fresh])
        self.words = succ_words[self.first_edge]
        self.tails = succ_tails[self.first_edge]
        self.parents = parents[self.first_edge].astype(np.int32)
        self._kernel = kernel

    def __len__(self) -> int:
        return len(self.first_edge)

    def transitions_through(self, rank: int) -> int:
        """Non-repeat edges up to and including the first edge of the new
        state at discovery ``rank`` -- what the scalar loop has counted
        when it reaches that state."""
        np = self._kernel.np
        stop = int(self.first_edge[rank]) + 1
        repeat = np.zeros(len(self._order), dtype=bool)
        repeat[self._order] = self._repeat
        return stop - int(np.count_nonzero(repeat[:stop]))

    def branching(self, parent_count: int):
        """Transitions per parent row (``parent_count`` rows): the level's
        non-repeat edges counted by parent, so a row with no edges is 0."""
        return self._kernel.np.bincount(
            self._sorted_parents[~self._repeat], minlength=parent_count)

    def commit(self, seen: Any, count: int) -> None:
        """Add the first ``count`` new states (discovery order) to the
        visited set."""
        if count == len(self):
            seen.insert(*self._keys)
            return
        kernel = self._kernel
        words, tails = self.words[:count], self.tails[:count]
        if kernel.fused:
            seen.insert(kernel.np.sort(kernel.fuse(words, tails)))
        else:
            seen.insert(*sort_unique_split(kernel.np, words, tails))


def sort_unique_split(np, words, tails) -> Tuple["object", "object"]:
    """Sort by ``(tail, word)`` and drop duplicate states."""
    if len(words) == 0:
        return words, tails
    order = np.lexsort((words, tails))
    words = words[order]
    tails = tails[order]
    keep = np.empty(len(words), dtype=bool)
    keep[0] = True
    keep[1:] = (tails[1:] != tails[:-1]) | (words[1:] != words[:-1])
    return words[keep], tails[keep]


class FusedSeenSet:
    """Visited-state set over fused uint64 codes: one sorted array.

    Membership is one ``np.searchsorted``; insertion is an O(n) sorted
    merge (``np.insert``), never a re-sort.  Inputs must be sorted and
    duplicate-free.
    """

    def __init__(self, np) -> None:
        self.np = np
        self._codes = np.empty(0, dtype=np.uint64)

    def __len__(self) -> int:
        return len(self._codes)

    def filter_new(self, codes):
        """Boolean mask of the rows *not* already in the set."""
        np = self.np
        if len(self._codes) == 0:
            return np.ones(len(codes), dtype=bool)
        position = np.searchsorted(self._codes, codes)
        position = np.minimum(position, len(self._codes) - 1)
        return self._codes[position] != codes

    def insert(self, codes) -> None:
        """Merge new codes (sorted, unique, not yet members)."""
        np = self.np
        if len(codes) == 0:
            return
        self._codes = np.insert(self._codes,
                                np.searchsorted(self._codes, codes), codes)


class SplitSeenSet:
    """Visited-state set over the split representation.

    One sorted ``uint64`` word array per tail value; membership is a
    binary search (``np.searchsorted``) per tail bucket, insertion an
    O(n) sorted merge.  Inputs must be sorted by ``(tail, word)`` and
    duplicate-free (see :func:`sort_unique_split`) so tail groups are
    contiguous slices.
    """

    def __init__(self, np) -> None:
        self.np = np
        self._buckets: Dict[int, "object"] = {}
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def _tail_slices(self, tails):
        """``(tail, start, stop)`` triples of the contiguous tail groups."""
        np = self.np
        boundaries = np.flatnonzero(tails[1:] != tails[:-1]) + 1
        starts = [0] + boundaries.tolist()
        stops = boundaries.tolist() + [len(tails)]
        for start, stop in zip(starts, stops):
            yield int(tails[start]), start, stop

    def filter_new(self, words, tails):
        """Boolean mask of the rows *not* already in the set."""
        np = self.np
        if len(words) == 0:
            return np.empty(0, dtype=bool)
        mask = np.ones(len(words), dtype=bool)
        for tail, start, stop in self._tail_slices(tails):
            bucket = self._buckets.get(tail)
            if bucket is None:
                continue
            segment = words[start:stop]
            position = np.searchsorted(bucket, segment)
            position = np.minimum(position, len(bucket) - 1)
            mask[start:stop] = bucket[position] != segment
        return mask

    def insert(self, words, tails) -> None:
        """Add states (sorted, unique, and not yet members)."""
        np = self.np
        if len(words) == 0:
            return
        for tail, start, stop in self._tail_slices(tails):
            segment = words[start:stop]
            bucket = self._buckets.get(tail)
            if bucket is None:
                self._buckets[tail] = segment.copy()
            else:
                self._buckets[tail] = np.insert(
                    bucket, np.searchsorted(bucket, segment), segment)
            self.count += len(segment)


def compile_batch_invariant(invariant: Callable, codec: StateCodec,
                            tail_scale: int
                            ) -> Callable[["object", "object"], "object"]:
    """Compile an invariant into a violation mask over split-code arrays.

    Fast path: ``forbidden_assignments`` whose digits live entirely inside
    the node word become array digit tests.  Fallback: join each code back
    to a Python int and evaluate the scalar compiled invariant (correct
    for any invariant, slow -- only reached for exotic predicates).
    """
    np = require_numpy()
    forbidden = getattr(invariant, "forbidden_assignments", None)
    if forbidden:
        checks: List[Tuple[int, int, int]] = []
        in_word = True
        for name, value in forbidden:
            multiplier, radix = codec.digit_geometry(name)
            if tail_scale % (multiplier * radix) != 0:
                in_word = False
                break
            checks.append((multiplier, radix, codec.value_digit(name, value)))
        if in_word:
            check_table = [(np.uint64(multiplier), np.uint64(radix),
                            np.uint64(digit))
                           for multiplier, radix, digit in checks]

            def violations(words, tails) -> "object":
                mask = np.zeros(len(words), dtype=bool)
                for multiplier, radix, digit in check_table:
                    mask |= (words // multiplier) % radix == digit
                return mask

            return violations

    from repro.modelcheck.encode import compile_packed_invariant

    scalar = compile_packed_invariant(invariant, codec)

    def violations_scalar(words, tails) -> "object":
        return np.array(
            [not scalar(int(word) + int(tail) * tail_scale)
             for word, tail in zip(words.tolist(), tails.tolist())],
            dtype=bool)

    return violations_scalar
