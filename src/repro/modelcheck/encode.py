"""Packed-state encoding: state tuples as single machine integers.

Explicit-state search spends most of its time hashing states in and out of
the ``seen``/``parent`` dictionaries.  A state tuple of mixed strings,
booleans and small integers hashes element by element; an ``int`` hashes in
one operation and occupies a fraction of the memory.  The
:class:`StateCodec` maps state tuples to integers by *domain-indexed radix
packing*: each declared variable contributes one digit in a mixed-radix
number, the radix being the size of the variable's domain and the first
declared variable occupying the least-significant digit.

Because the packing is positional, a group of adjacent variables (e.g. the
six variables of one node in the TTA model) occupies a contiguous digit
range, so a model can compose successor states by *summing* precomputed
per-group contributions without ever materialising the tuple -- the trick
behind :meth:`repro.model.system_model.TTAStartupModel.packed_successors`.

Decoding is only needed when a counterexample is rebuilt, never on the hot
search path.

numpy is imported on first use, by the first :func:`have_numpy` or
:func:`require_numpy` call, never at module load: the scalar packed engine
and every simulator command run without it, and a process that never takes
a vectorized path never pays for the import.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.modelcheck.state import StateSpace, StateView

#: ``_np`` before the first import attempt; ``None`` means "absent".
_UNTRIED = object()
_np: Any = _UNTRIED

#: Guidance attached to every numpy-gated entry point.
NUMPY_HINT = ("numpy is required for the vectorized frontier engine "
              "(pip install numpy); the scalar packed engine "
              "(--engine packed) works without it")


def _numpy() -> Any:
    """The numpy module, imported on the first call, or ``None``."""
    global _np
    if _np is _UNTRIED:
        try:  # numpy is a core dependency, but the packed engine works without it.
            import numpy
        except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
            numpy = None
        _np = numpy
    return _np


def have_numpy() -> bool:
    """Whether the vectorized (batched) code paths are available."""
    return _numpy() is not None


def require_numpy():
    """The numpy module, or a clear ImportError telling the user what the
    vectorized paths need and which engine works without it."""
    np = _numpy()
    if np is None:
        raise ImportError(NUMPY_HINT)
    return np


class StateCodec:
    """Bijection between state tuples of a :class:`StateSpace` and ints.

    Requires every variable to declare a finite domain; raises
    :class:`ValueError` otherwise (the packing radix is the domain size).
    """

    def __init__(self, space: StateSpace) -> None:
        self.space = space
        radices: List[int] = []
        multipliers: List[int] = []
        value_index: List[Dict[Any, int]] = []
        domains: List[Tuple[Any, ...]] = []
        multiplier = 1
        for variable in space.variables:
            if variable.domain is None:
                raise ValueError(
                    f"variable {variable.name!r} declares no domain; "
                    f"packed encoding needs finite domains for every variable")
            domain = tuple(variable.domain)
            if len(set(domain)) != len(domain):
                raise ValueError(
                    f"variable {variable.name!r} has duplicate domain values")
            domains.append(domain)
            radices.append(len(domain))
            multipliers.append(multiplier)
            value_index.append({value: index for index, value in enumerate(domain)})
            multiplier *= len(domain)
        self._radices = tuple(radices)
        self._multipliers = tuple(multipliers)
        self._value_index = tuple(value_index)
        self._domains = tuple(domains)
        #: Number of distinct codes (= theoretical state-space size).
        self.size = multiplier

    # -- core bijection ----------------------------------------------------------

    def pack(self, state: Sequence[Any]) -> int:
        """Encode one state tuple as an integer code."""
        if len(state) != len(self._radices):
            raise ValueError(
                f"state has {len(state)} entries, expected {len(self._radices)}")
        code = 0
        try:
            for value, table, multiplier in zip(state, self._value_index,
                                                self._multipliers):
                code += table[value] * multiplier
        except KeyError:
            self._raise_domain_error(state)
        return code

    def unpack(self, code: int) -> tuple:
        """Decode an integer code back into the state tuple."""
        if not 0 <= code < self.size:
            raise ValueError(f"code {code} outside [0, {self.size})")
        values: List[Any] = []
        for radix, domain in zip(self._radices, self._domains):
            code, digit = divmod(code, radix)
            values.append(domain[digit])
        return tuple(values)

    # -- batched bijection (vectorized mixed-radix arithmetic) -------------------

    @property
    def fits_uint64(self) -> bool:
        """Whether every code fits a numpy ``uint64`` (batched fast path).

        The comparison is against ``2**63`` rather than ``2**64`` so that
        sums of per-group contributions computed *inside* uint64 kernels
        keep one bit of headroom.
        """
        return self.size <= (1 << 63)

    def _code_dtype(self):
        np = require_numpy()
        return np.uint64 if self.fits_uint64 else object

    def pack_batch(self, states: Sequence[Sequence[Any]]) -> Any:
        """Encode many state tuples at once; returns a numpy code array.

        The per-variable digit lookup is a table map; the mixed-radix
        combination (``digit * multiplier`` accumulation) runs as whole-
        column array arithmetic.  Codes come back as ``uint64`` when the
        space fits (see :attr:`fits_uint64`), as Python ints in an object
        array otherwise -- either way element ``i`` equals
        ``self.pack(states[i])``.
        """
        np = require_numpy()
        rows = [tuple(state) for state in states]
        width = len(self._radices)
        for row in rows:
            if len(row) != width:
                raise ValueError(
                    f"state has {len(row)} entries, expected {width}")
        codes = np.zeros(len(rows), dtype=self._code_dtype())
        for position, (table, multiplier) in enumerate(
                zip(self._value_index, self._multipliers)):
            try:
                column = [table[row[position]] for row in rows]
            except KeyError:
                for row in rows:
                    if row[position] not in table:
                        self._raise_domain_error(row)
                raise  # pragma: no cover - unreachable
            if codes.dtype == object:
                codes += np.asarray([index * multiplier for index in column],
                                    dtype=object)
            else:
                codes += np.asarray(column, dtype=codes.dtype) * \
                    codes.dtype.type(multiplier)
        return codes

    def unpack_digits(self, codes: "Any") -> "Any":
        """Mixed-radix digit extraction over a whole code array.

        Returns an ``(n, variables)`` ``int64`` array where column ``j``
        holds the domain *index* of variable ``j`` in each code -- the
        array-op counterpart of the ``divmod`` chain in :meth:`unpack`:
        ``unpack(codes[i])[j] == domains[j][unpack_digits(codes)[i, j]]``.
        """
        np = require_numpy()
        rest = np.asarray(codes, dtype=self._code_dtype()).copy()
        if len(rest) and not bool((self._compare_codes(rest) >= 0).all()):
            raise ValueError(f"code outside [0, {self.size})")
        digits = np.empty((len(rest), len(self._radices)), dtype=np.int64)
        if rest.dtype == object:
            # Big-int fallback (state space wider than 63 bits): the ufunc
            # has no object loop, so run the divmod chain row by row.
            for index, code in enumerate(rest.tolist()):
                for position, radix in enumerate(self._radices):
                    code, digit = divmod(code, radix)
                    digits[index, position] = digit
            return digits
        for position, radix in enumerate(self._radices):
            rest, digit = np.divmod(rest, rest.dtype.type(radix))
            digits[:, position] = digit.astype(np.int64)
        return digits

    def _compare_codes(self, codes: "Any") -> "Any":
        """Elementwise ``0 <= code < size`` as a signed indicator array."""
        np = require_numpy()
        if codes.dtype == object:
            return np.asarray([0 if 0 <= int(code) < self.size else -1
                               for code in codes], dtype=np.int64)
        inside = codes < codes.dtype.type(min(self.size, (1 << 63)))
        return np.where(inside, 0, -1)

    def unpack_batch(self, codes: "Any") -> List[tuple]:
        """Decode a whole code array back into state tuples (boundary use
        only -- counterexample chains, differential tests)."""
        digits = self.unpack_digits(codes)
        domains = self._domains
        return [tuple(domain[digit] for domain, digit in zip(domains, row))
                for row in digits.tolist()]

    # -- single-variable access (no full decode) ---------------------------------

    def extract(self, code: int, name: str) -> Any:
        """Value of one variable inside a packed code."""
        position = self.space.index[name]
        digit = (code // self._multipliers[position]) % self._radices[position]
        return self._domains[position][digit]

    def digit_geometry(self, name: str) -> Tuple[int, int]:
        """``(multiplier, radix)`` of a variable's digit -- the two constants
        needed to read it with ``(code // multiplier) % radix``."""
        position = self.space.index[name]
        return self._multipliers[position], self._radices[position]

    def value_digit(self, name: str, value: Any) -> int:
        """Domain index of ``value`` in the named variable's digit."""
        position = self.space.index[name]
        try:
            return self._value_index[position][value]
        except KeyError:
            raise ValueError(
                f"value {value!r} not in domain of variable {name!r}") from None

    def view(self, code: int) -> StateView:
        """Named read access to a packed state (decodes once)."""
        return self.space.view(self.unpack(code))

    # -- diagnostics -------------------------------------------------------------

    def _raise_domain_error(self, state: Sequence[Any]) -> None:
        for variable, value, table in zip(self.space.variables, state,
                                          self._value_index):
            if value not in table:
                raise ValueError(
                    f"value {value!r} not in domain of variable "
                    f"{variable.name!r}")
        raise AssertionError("unreachable")  # pragma: no cover


def compile_packed_invariant(invariant: Callable[[StateView], bool],
                             codec: StateCodec) -> Callable[[int], bool]:
    """Turn a :class:`StateView` predicate into a predicate over codes.

    Fast path: invariants that advertise ``forbidden_assignments`` -- a list
    of ``(variable, value)`` pairs meaning "the invariant holds iff no
    listed variable carries its listed value" (how
    :func:`repro.model.properties.no_clique_freeze` is declared) -- compile
    to a handful of integer divisions per state, with no decoding.

    Fallback: decode the state and call the original predicate.
    """
    forbidden = getattr(invariant, "forbidden_assignments", None)
    if forbidden:
        checks: List[Tuple[int, int, int]] = []
        for name, value in forbidden:
            multiplier, radix = codec.digit_geometry(name)
            checks.append((multiplier, radix, codec.value_digit(name, value)))
        checks_tuple = tuple(checks)

        def packed_invariant(code: int) -> bool:
            for multiplier, radix, digit in checks_tuple:
                if (code // multiplier) % radix == digit:
                    return False
            return True

        return packed_invariant

    space = codec.space
    unpack = codec.unpack
    view = space.view

    def decoded_invariant(code: int) -> bool:
        return invariant(view(unpack(code)))

    return decoded_invariant


class PackedSystemAdapter:
    """Generic packed interface over any tuple-based transition system.

    Pack/unpack on every call -- no faster than the tuple path, but it lets
    the packed checker engine (and its differential tests) run against any
    :class:`~repro.modelcheck.model.TransitionSystem` whose variables all
    declare domains.  Models with a native packed path (the TTA startup
    model) bypass this adapter entirely.
    """

    def __init__(self, system: Any, codec: Optional[StateCodec] = None) -> None:
        self.system = system
        self.space = system.space
        self.codec = codec if codec is not None else StateCodec(system.space)

    def packed_initial_states(self) -> List[int]:
        pack = self.codec.pack
        return [pack(state) for state in self.system.initial_states()]

    def packed_successors(self, code: int) -> List[int]:
        pack = self.codec.pack
        seen: Dict[int, None] = {}
        for transition in self.system.successors(self.codec.unpack(code)):
            target = pack(transition.target)
            if target not in seen:
                seen[target] = None
        return list(seen)
