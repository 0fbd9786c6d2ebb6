"""Core data model: super-gates, operator programs and their text format.

Site indices are 1-based everywhere in the public API and in the program
text format.
"""

from __future__ import annotations

import functools
import operator
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union


class ProgramError(ValueError):
    """Invalid gate indices or malformed program text."""


# The most qubits of a program, a GHZ circuit or a random ensemble, checked
# before anything is built: the tableau holds 2N ints of N bits, N^2/4 bytes,
# 25 MB at this limit.
_MAX_QUBITS = 10_000


class _Record:
    """A frozen record of the values named in `_fields`, in constructor order,
    as a frozen dataclass, whose module alone would double the core's import.

    Equal only to a record of its own class with equal values, hashed and
    shown by them, rebuilt through the constructor by pickle and `copy`;
    setting or deleting an attribute raises AttributeError, so a subclass's
    constructor sets its slots with `object.__setattr__`.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        values = ", ".join([f"{k}={getattr(self, k)!r}" for k in self._fields])
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class T(NamedTuple):
    site: int


class Swap(NamedTuple):
    site_a: int
    site_b: int


class C3(NamedTuple):
    """Doubly-targeted controlled-Y super-gate; symmetric in its targets."""

    control: int
    target_1: int
    target_2: int


SuperGate = Union[T, Swap, C3]

# The gate table: each type's name in the program text, and the simulator
# method that applies it, called with the gate's fields in order.
GATES = {T: ("T", "apply_t"), Swap: ("SWAP", "apply_swap"), C3: ("C3", "apply_c3")}


def validate_gate(gate: SuperGate, n_qubits: int) -> None:
    # One rule for every kind in `GATES`: a bool or non-integral site is a
    # TypeError before any range test, by the rule for cut sites, applied to
    # any site that is not a plain int; then the first site out of range in
    # argument order, then a repeated site.
    if type(gate) not in GATES:
        raise TypeError(f"not a super-gate: {gate!r}")
    if not {int}.issuperset(map(type, gate)):
        try:
            site_indices(gate)
        except TypeError:
            raise TypeError(f"gate sites must be integers, got {gate!r}") from None
    for s in gate:
        if not 1 <= s <= n_qubits:
            raise ProgramError(f"site {s} out of range 1..{n_qubits} in {gate!r}")
    if len(set(gate)) != len(gate):
        raise ProgramError(f"repeated index in {gate!r}")


def site_indices(sites: Iterable[int]) -> List[int]:
    """A cut's sites as ints; a bool or non-integral site such as 1.5 is a TypeError."""
    sites = list(sites)
    if bool in map(type, sites):
        raise TypeError(f"cut sites must be integers, got {sites!r}")
    return list(map(operator.index, sites))


class OperatorProgram(_Record):
    """Gate sequence in operator-space application order (index 0 first)."""

    __slots__ = _fields = ("n_qubits", "gates")

    def __init__(self, n_qubits: int, gates: Iterable[SuperGate] = ()):
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        gates = tuple(gates)
        # one check per distinct gate object, in order of first occurrence:
        # the tuple keeps every gate alive, so no two share an id, and equal
        # but distinct gates such as T(1) and T(True) are each checked
        for g in dict(zip(map(id, gates), gates)).values():
            validate_gate(g, n_qubits)
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "gates", gates)

    @classmethod
    def _checked(cls, n_qubits: int, gates: Tuple[SuperGate, ...]) -> OperatorProgram:
        """A program of gates its caller has already checked on `n_qubits`,
        built without the constructor's check; only for speed."""
        program = object.__new__(cls)
        object.__setattr__(program, "n_qubits", n_qubits)
        object.__setattr__(program, "gates", gates)
        return program

    def __len__(self) -> int:
        return len(self.gates)


class GateSimulator:
    """The gate dispatch of the tableau and the oracle: a subclass sets
    `n_qubits` and its `error` class, and defines each method `GATES` names."""

    def _check_site(self, *sites: int) -> None:
        """Raise `error` on the first site out of range, then on a repeated site."""
        for site in sites:
            if not 1 <= site <= self.n_qubits:
                raise self.error(f"site {site} out of range 1..{self.n_qubits}")
        if len(set(sites)) != len(sites):
            kind = "swap" if len(sites) == 2 else "C3"
            raise self.error(f"{kind} sites must be distinct")

    def apply_gate(self, gate: SuperGate) -> None:
        entry = GATES.get(type(gate))
        if entry is None:
            raise TypeError(f"not a super-gate: {gate!r}")
        getattr(self, entry[1])(*gate)

    def apply_program(self, program: OperatorProgram) -> None:
        """Apply the gates in program order (index 0 first)."""
        if program.n_qubits != self.n_qubits:
            raise self.error("program/simulator dimension mismatch")
        method = {kind: getattr(self, name) for kind, (_, name) in GATES.items()}
        for gate in program.gates:
            method[type(gate)](*gate)


def reverse_from_state_space(
    gates: Sequence[SuperGate], n_qubits: int
) -> OperatorProgram:
    """Convert a state-space circuit (first gate first) into operator order.

    Heisenberg evolution applies the final state-space gate first in
    operator space, so the list is simply reversed.
    """
    return OperatorProgram(n_qubits, tuple(reversed(gates)))


def localize_c3(c3: C3, n_qubits: int) -> List[SuperGate]:
    """Rewrite a long-range C3 as nearest-neighbor SWAPs around a local C3.

    The targets are shuttled next to the control with adjacent SWAPs,
    the C3 acts on the contiguous triple, and the SWAPs are undone in
    reverse.  SWAP count is at most 2(|c-t1| + |c-t2|).
    """
    validate_gate(c3, n_qubits)
    c = c3.control
    lo, hi = sorted((c3.target_1, c3.target_2))
    if lo > c:  # both targets above the control
        swaps = _ladder(lo, c + 1) + _ladder(hi, c + 2)
        local = C3(c, c + 1, c + 2)
    elif hi < c:  # both below
        swaps = _ladder(hi, c - 1) + _ladder(lo, c - 2)
        local = C3(c, c - 2, c - 1)
    else:  # one on each side
        swaps = _ladder(lo, c - 1) + _ladder(hi, c + 1)
        local = C3(c, c - 1, c + 1)
    return [*swaps, local, *reversed(swaps)]


def _ladder(src: int, dst: int) -> List[Swap]:
    """The adjacent SWAPs that walk the qubit at `src` to `dst`, in order."""
    if src < dst:
        return list(map(_adjacent_swap, range(src, dst)))
    return list(map(_adjacent_swap, range(src - 1, dst - 1, -1)))


@functools.cache
def _adjacent_swap(p: int) -> Swap:
    """`Swap(p, p + 1)`, one shared object per p."""
    return Swap(p, p + 1)


STATE_SPACE_DIRECTIVE = "@state-space-order"


# from GATES: each type's program line, such as "SWAP %s %s", and each name's type
_LINE_FORMATS = {
    kind: " ".join([name] + ["%s"] * len(kind._fields))
    for kind, (name, _) in GATES.items()
}
_GATE_NAMED = {name: kind for kind, (name, _) in GATES.items()}


def _split_lines(text: str) -> List[str]:
    r"""A line ends only at "\n" or "\r\n", and the last one's break is optional."""
    lines = text.replace("\r\n", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def format_program(program: OperatorProgram) -> str:
    # one line per distinct gate object, formatted once: the tuple keeps
    # every gate alive, so no two share an id
    gates = program.gates
    ids = list(map(id, gates))
    line = {i: _LINE_FORMATS[type(g)] % g for i, g in dict(zip(ids, gates)).items()}
    return "\n".join([f"N {program.n_qubits}", *map(line.__getitem__, ids)]) + "\n"


def parse_program(text: str) -> OperatorProgram:
    """Parse the program text format.

    One gate per line (``T i``, ``SWAP i j``, ``C3 c t1 t2``), header line
    ``N <n_qubits>``, ``#`` comments.  A leading ``@state-space-order``
    directive means the file lists gates in state-space order and the
    result is reversed.
    """
    state_space = False
    n_qubits = None
    gates: List[SuperGate] = []
    # raw gate line -> its gate, stored once it has parsed and passed its
    # check; N is set by then and cannot change, so a repeat is that gate
    parsed: Dict[str, SuperGate] = {}
    for lineno, raw in enumerate(_split_lines(text), start=1):
        gate = parsed.get(raw)
        if gate is not None:
            gates.append(gate)
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == STATE_SPACE_DIRECTIVE:
            if n_qubits is not None or gates:
                raise ProgramError(
                    f"line {lineno}: {STATE_SPACE_DIRECTIVE} must come first"
                )
            state_space = True
            continue
        fields = line.split()
        kind, args = fields[0].upper(), fields[1:]
        try:
            ints = [int(a) for a in args]
        except ValueError:
            raise ProgramError(f"line {lineno}: non-integer argument in {line!r}")
        if kind == "N":
            if n_qubits is not None:
                raise ProgramError(f"line {lineno}: duplicate N header")
            if len(ints) != 1 or ints[0] < 1:
                raise ProgramError(f"line {lineno}: bad N header {line!r}")
            if ints[0] > _MAX_QUBITS:
                raise ProgramError(
                    f"line {lineno}: N {ints[0]} is over the limit of "
                    f"{_MAX_QUBITS} qubits"
                )
            n_qubits = ints[0]
            continue
        if n_qubits is None:
            raise ProgramError(f"line {lineno}: gate before N header")
        gate_type = _GATE_NAMED.get(kind)
        if gate_type is None or len(ints) != len(gate_type._fields):
            raise ProgramError(f"line {lineno}: unrecognized gate line {line!r}")
        gate = gate_type(*ints)
        try:
            validate_gate(gate, n_qubits)
        except ProgramError as e:
            raise ProgramError(f"line {lineno}: {e}")
        gates.append(gate)
        parsed[raw] = gate
    if n_qubits is None:
        raise ProgramError("missing N header")
    if state_space:
        gates.reverse()
    return OperatorProgram._checked(n_qubits, tuple(gates))
