import copy
import itertools
import pickle
import re
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from super_scrambler import model
from super_scrambler.experiments import build_ghz_program
from super_scrambler.model import (
    C3,
    STATE_SPACE_DIRECTIVE,
    OperatorProgram,
    ProgramError,
    Swap,
    T,
    format_program,
    localize_c3,
    parse_program,
    reverse_from_state_space,
    validate_gate,
)
from super_scrambler.tableau import Region, SuperStabilizerTableau


def random_gates(rng, n, count):
    gates = []
    for _ in range(count):
        kind = rng.integers(0, 3)
        if kind == 0:
            gates.append(T(int(rng.integers(1, n + 1))))
        elif kind == 1:
            a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            gates.append(Swap(int(a), int(b)))
        else:
            c, t1, t2 = rng.choice(np.arange(1, n + 1), size=3, replace=False)
            gates.append(C3(int(c), int(t1), int(t2)))
    return gates


@pytest.mark.parametrize(
    "build, message",
    [(lambda: OperatorProgram(0), "n_qubits must be positive")],
    ids=["program-zero-qubits"],
)
def test_bad_size_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


# Each record with its field values and its repr, as the frozen dataclasses
# that these classes replaced gave them.
RECORDS = {
    "program": (
        OperatorProgram(6, (T(1), Swap(2, 3), C3(1, 3, 5))),
        (6, (T(1), Swap(2, 3), C3(1, 3, 5))),
        "OperatorProgram(n_qubits=6, gates=(T(site=1), Swap(site_a=2, site_b=3), "
        "C3(control=1, target_1=3, target_2=5)))",
    ),
    "empty-program": (OperatorProgram(2), (2, ()), "OperatorProgram(n_qubits=2, gates=())"),
    "region": (Region([2, 1]), (frozenset({1, 2}),), "Region(sites=frozenset({1, 2}))"),
    "empty-region": (Region([]), (frozenset(),), "Region(sites=frozenset())"),
}


@pytest.mark.parametrize("record, values, text", RECORDS.values(), ids=RECORDS)
class TestRecords:
    def test_repr(self, record, values, text):
        assert repr(record) == text

    def test_hash_is_the_hash_of_the_field_tuple(self, record, values, text):
        assert hash(record) == hash(values)

    def test_equal_only_within_its_own_class(self, record, values, text):
        kind = type(record)
        subclass = type("Sub", (kind,), {"__slots__": ()})
        assert record == kind(*values) and not record != kind(*values)
        assert record != subclass(*values)
        assert record != values and record.__eq__(values) is NotImplemented

    def test_frozen(self, record, values, text):
        for name in ("n_qubits", "gates", "sites", "lo", "hi", "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, 7)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == text

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))]
    )
    def test_copies_are_rebuilt_through_the_constructor(self, record, values, text, clone):
        copied = clone(record)
        assert type(copied) is type(record) and copied == record
        assert repr(copied) == text
        if isinstance(record, Region):
            assert (copied.lo, copied.hi) == (record.lo, record.hi)


def test_records_construct_by_keyword():
    assert OperatorProgram(n_qubits=2).gates == ()
    assert OperatorProgram(n_qubits=2, gates=[T(1)]).gates == (T(1),)
    assert Region(sites=[2, 1]) == Region([1, 2])


class TestReverseFromStateSpace:
    def test_two_gate_example(self):
        prog = reverse_from_state_space([T(1), C3(1, 2, 3)], 3)
        assert prog.gates == (C3(1, 2, 3), T(1))

    def test_empty(self):
        assert reverse_from_state_space([], 3).gates == ()

    def test_single_gate(self):
        assert reverse_from_state_space([Swap(1, 2)], 2).gates == (Swap(1, 2),)

    def test_involution(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gates = random_gates(rng, 7, 15)
            twice = reverse_from_state_space(
                reverse_from_state_space(gates, 7).gates, 7
            )
            assert list(twice.gates) == gates

    def test_rejects_bad_indices(self):
        with pytest.raises(ProgramError):
            reverse_from_state_space([T(4)], 3)
        with pytest.raises(ProgramError):
            reverse_from_state_space([C3(1, 1, 2)], 3)


class TestValidateGate:
    def test_out_of_range(self):
        with pytest.raises(ProgramError):
            validate_gate(Swap(1, 6), 5)
        with pytest.raises(ProgramError):
            validate_gate(T(0), 5)

    def test_duplicates(self):
        with pytest.raises(ProgramError):
            validate_gate(Swap(2, 2), 5)

    def test_bool_site_is_type_error(self):
        with pytest.raises(TypeError, match=r"^gate sites must be integers, got T\(site=True\)$"):
            validate_gate(T(True), 3)
        with pytest.raises(TypeError, match="gate sites must be integers"):
            OperatorProgram(3, (T(True), C3(1, 2, 3)))
        # a bool is named before a site out of range
        with pytest.raises(TypeError, match="gate sites must be integers"):
            validate_gate(C3(9, 2, False), 3)
        # a non-integral site too, which the tableau would fail on later
        with pytest.raises(TypeError, match=r"^gate sites must be integers, got T\(site=2.5\)$"):
            validate_gate(T(2.5), 3)
        with pytest.raises(TypeError, match="gate sites must be integers"):
            OperatorProgram(3, (T(2.5), Swap(1.0, 2)))
        with pytest.raises(TypeError, match="gate sites must be integers"):
            OperatorProgram(3, (Swap(1.0, 2),))

    def test_numpy_integer_sites_accepted(self):
        validate_gate(C3(np.int64(1), np.int32(2), np.uint8(3)), 3)

    def test_one_rule_for_any_kind_in_the_table(self, monkeypatch):
        # a kind the table gains is checked like the others, whatever its arity
        class Quad(NamedTuple):
            a: int
            b: int
            c: int
            d: int

        monkeypatch.setitem(model.GATES, Quad, ("QUAD", "apply_quad"))
        validate_gate(Quad(1, 2, 3, 4), 4)
        with pytest.raises(ProgramError, match=r"^site 5 out of range 1\.\.4 in Quad\("):
            validate_gate(Quad(1, 2, 3, 5), 4)
        with pytest.raises(ProgramError, match=r"^repeated index in Quad\("):
            validate_gate(Quad(1, 2, 3, 3), 4)


class TestLocalizeC3:
    def test_already_adjacent(self):
        assert localize_c3(C3(1, 2, 3), 5) == [C3(1, 2, 3)]

    def test_structure(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(3, 15))
            c, t1, t2 = (
                int(x) for x in rng.choice(np.arange(1, n + 1), size=3, replace=False)
            )
            seq = localize_c3(C3(c, t1, t2), n)
            c3s = [g for g in seq if isinstance(g, C3)]
            swaps = [g for g in seq if isinstance(g, Swap)]
            assert len(c3s) == 1
            assert len(swaps) % 2 == 0
            assert len(swaps) <= 2 * (abs(c - t1) + abs(c - t2))
            # mirror symmetry about the C3
            mid = seq.index(c3s[0])
            assert seq[:mid] == list(reversed(seq[mid + 1 :]))
            # nearest-neighbor swaps, adjacent C3 triple
            for s in swaps:
                assert s.site_b - s.site_a == 1
            triple = sorted([c3s[0].control, c3s[0].target_1, c3s[0].target_2])
            assert triple[2] - triple[0] == 2

    def test_tableau_equivalence_with_direct_c3(self):
        rng = np.random.default_rng(21)
        for n in range(3, 9):
            sites = [(c, t1, t2) for c in range(1, n + 1) for t1 in range(1, n + 1)
                     for t2 in range(t1 + 1, n + 1) if len({c, t1, t2}) == 3]
            for c, t1, t2 in sites:
                seq = localize_c3(C3(c, t1, t2), n)
                # single-plane inputs: each basis unit vector in turn
                for plane in ("x", "z"):
                    for i in range(n):
                        # every stabilizer carries the unit vector at site i+1
                        unit = [0] * n
                        unit[i] = (1 << n) - 1
                        zero = [0] * n
                        x, z = (unit, zero) if plane == "x" else (zero, unit)
                        direct = SuperStabilizerTableau(n, x, z)
                        routed = SuperStabilizerTableau(n, x, z)
                        direct.apply_c3(c, t1, t2)
                        for g in seq:
                            routed.apply_gate(g)
                        assert direct.dumps() == routed.dumps()

    def test_ghz_style_gate_count_quadratic(self):
        for k in (1, 2, 5, 10, 20):
            n = 3 * k
            total = 0
            for j in range(1, k + 1):
                total += len(localize_c3(C3(j, k + j, 2 * k + j), n))
            assert total <= 6 * n * n

    def test_invalid_indices(self):
        with pytest.raises(ProgramError):
            localize_c3(C3(1, 2, 9), 5)

    def test_adjacent_swaps_are_shared(self):
        # every branch of the ladder, up and down, takes the one Swap(p, p + 1)
        seen = {}
        for sites in itertools.permutations(range(1, 8), 3):
            for g in localize_c3(C3(*sites), 7):
                if type(g) is Swap:
                    assert seen.setdefault(g, g) is g
        assert sorted(seen) == [Swap(p, p + 1) for p in range(1, 7)]


class TestProgramText:
    def test_round_trip(self):
        prog = OperatorProgram(5, (T(1), Swap(2, 5), C3(3, 1, 4)))
        assert parse_program(format_program(prog)) == prog

    def test_comments_and_blank_lines(self):
        text = "# header comment\nN 3\n\nT 1  # inline\nC3 1 2 3\n"
        prog = parse_program(text)
        assert prog.gates == (T(1), C3(1, 2, 3))

    def test_state_space_directive_reverses(self):
        text = "@state-space-order\nN 3\nT 1\nC3 1 2 3\n"
        prog = parse_program(text)
        assert prog.gates == (C3(1, 2, 3), T(1))

    def test_only_newline_ends_a_line(self):
        # "\r\n" is one line break; any other line-break character stays
        # inside its line and fails that line's own check
        assert parse_program("N 2\r\nT 1\r\nT 2").gates == (T(1), T(2))
        for line in ("T 1\x1cT 2", "T 1\rT 2", "T 1\u2028T 2"):
            with pytest.raises(ProgramError) as e:
                parse_program(f"N 2\n{line}\n")
            assert str(e.value) == f"line 2: non-integer argument in {line!r}"

    def test_repeated_index_reports_line(self):
        with pytest.raises(ProgramError, match="line 2.*repeated"):
            parse_program("N 3\nC3 1 1 2\n")

    def test_missing_header(self):
        with pytest.raises(ProgramError, match="N header"):
            parse_program("T 1\n")
        with pytest.raises(ProgramError, match="missing N header"):
            parse_program("# nothing\n")

    def test_malformed_lines(self):
        with pytest.raises(ProgramError, match="line 2"):
            parse_program("N 3\nT x\n")
        with pytest.raises(ProgramError, match="line 2"):
            parse_program("N 3\nCNOT 1 2\n")
        with pytest.raises(ProgramError, match="out of range"):
            parse_program("N 3\nT 4\n")

    def test_n_header_over_the_qubit_limit(self):
        limit = model._MAX_QUBITS
        assert parse_program(f"N {limit}\nT {limit}\n").n_qubits == limit
        # rejected at the header, before the bad line after it is read
        for n in (limit + 1, 2_000_000):
            message = f"^line 2: N {n} is over the limit of {limit} qubits$"
            with pytest.raises(ProgramError, match=message):
                parse_program(f"# huge\nN {n}\nT x\n")


# -- references: `gate_sites`, `validate_gate` and `parse_program` as they read
# before the chained-comparison check and the per-call map of repeated lines


def reference_gate_sites(gate):
    if isinstance(gate, T):
        return (gate.site,)
    if isinstance(gate, Swap):
        return (gate.site_a, gate.site_b)
    if isinstance(gate, C3):
        return (gate.control, gate.target_1, gate.target_2)
    raise TypeError(f"not a super-gate: {gate!r}")


def reference_validate_gate(gate, n_qubits):
    sites = reference_gate_sites(gate)
    if any(isinstance(s, bool) or not isinstance(s, (int, np.integer)) for s in sites):
        raise TypeError(f"gate sites must be integers, got {gate!r}")
    for s in sites:
        if not 1 <= s <= n_qubits:
            raise ProgramError(f"site {s} out of range 1..{n_qubits} in {gate!r}")
    if len(set(sites)) != len(sites):
        raise ProgramError(f"repeated index in {gate!r}")


def reference_lines(text):
    r"""A line ends only at "\n" or "\r\n", and the last one's break is
    optional: "\r", "\x0b", "\x1c", "\x85" and "\u2028" stay inside a line."""
    lines = re.split(r"\r?\n", text)
    if lines[-1] == "":
        lines.pop()
    return lines


def reference_parse_program(text):
    state_space = False
    n_qubits = None
    gates = []
    for lineno, raw in enumerate(reference_lines(text), start=1):
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
            n_qubits = ints[0]
            continue
        if n_qubits is None:
            raise ProgramError(f"line {lineno}: gate before N header")
        if kind == "T" and len(ints) == 1:
            gate = T(ints[0])
        elif kind == "SWAP" and len(ints) == 2:
            gate = Swap(ints[0], ints[1])
        elif kind == "C3" and len(ints) == 3:
            gate = C3(ints[0], ints[1], ints[2])
        else:
            raise ProgramError(f"line {lineno}: unrecognized gate line {line!r}")
        try:
            reference_validate_gate(gate, n_qubits)
        except ProgramError as e:
            raise ProgramError(f"line {lineno}: {e}")
        gates.append(gate)
    if n_qubits is None:
        raise ProgramError("missing N header")
    if state_space:
        return reverse_from_state_space(gates, n_qubits)
    return OperatorProgram(n_qubits, tuple(gates))


# `localize_c3` as it read with a list of single-step moves, each turned
# into a SWAP on its sorted pair of sites


def reference_localize_c3(c3, n_qubits):
    validate_gate(c3, n_qubits)
    c = c3.control
    lo, hi = sorted((c3.target_1, c3.target_2))

    moves = []  # (from, to) single-step shuttles

    def shuttle(src, dst):
        step = 1 if dst > src else -1
        for pos in range(src, dst, step):
            moves.append((pos, pos + step))

    if lo > c:  # both targets above the control
        shuttle(lo, c + 1)
        shuttle(hi, c + 2)
        local = C3(c, c + 1, c + 2)
    elif hi < c:  # both below
        shuttle(hi, c - 1)
        shuttle(lo, c - 2)
        local = C3(c, c - 2, c - 1)
    else:  # one on each side
        shuttle(lo, c - 1)
        shuttle(hi, c + 1)
        local = C3(c, c - 1, c + 1)

    swaps = [Swap(min(a, b), max(a, b)) for a, b in moves]
    return [*swaps, local, *reversed(swaps)]


def outcome(fn, *args):
    """What `fn(*args)` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


SITE_VALUES = st.one_of(
    st.integers(-1, 7), st.sampled_from([True, False, 1.0, 2.5, float("nan")])
)


@st.composite
def any_gates(draw):
    """T, SWAP and C3 at any sites, integral or not, and a few non-gates."""
    kind = draw(st.sampled_from(["T", "SWAP", "C3", "other"]))
    if kind == "other":
        return draw(st.sampled_from([None, 3, "T 1", (1, 2)]))
    cls, arity = {"T": (T, 1), "SWAP": (Swap, 2), "C3": (C3, 3)}[kind]
    return cls(*draw(st.lists(SITE_VALUES, min_size=arity, max_size=arity)))


# Each ends a line for `str.splitlines`, but not in a program.
INLINE_BREAKS = ["\r", "\x0b", "\x1c", "\x85", "\u2028"]
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", *INLINE_BREAKS])


KIND_SPELLINGS = {1: ["T", "t"], 2: ["SWAP", "swap", "Swap"], 3: ["C3", "c3"]}


@st.composite
def gate_lines(draw, n):
    """One line of a program: mostly valid gates in any case and spacing;
    otherwise a gate line with any kind, arity and arguments (bad sites,
    repeated indices, non-integers, unknown kinds), a header, a directive,
    a comment or a blank."""
    shape = draw(st.sampled_from(
        ["valid"] * 10 + ["any sites"] * 3 + ["wild"] * 2
        + ["header", "directive", "comment", "blank"]
    ))
    if shape == "header":
        return draw(st.sampled_from([f"N {n}", f"n {n}", "N 0", "N", f"N {n} 1", "N x"]))
    if shape == "directive":
        return draw(st.sampled_from([STATE_SPACE_DIRECTIVE, f"  {STATE_SPACE_DIRECTIVE} # c"]))
    if shape == "comment":
        return draw(st.sampled_from(["# T 1", "   # note", "#"]))
    if shape == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    if shape == "valid":
        arity = draw(st.integers(1, min(n, 3)))
        kind = draw(st.sampled_from(KIND_SPELLINGS[arity]))
        args = [str(s) for s in draw(st.permutations(range(1, n + 1)))[:arity]]
    elif shape == "any sites":  # out of range or repeated, now and then
        arity = draw(st.integers(1, 3))
        kind = draw(st.sampled_from(KIND_SPELLINGS[arity]))
        args = [str(s) for s in draw(st.lists(st.integers(-1, n + 1), min_size=arity, max_size=arity))]
    else:
        arity = draw(st.integers(0, 4))
        kind = draw(st.sampled_from(KIND_SPELLINGS.get(arity, []) + ["C3", "CNOT", "X"]))
        args = draw(st.lists(
            st.integers(-1, n + 1).map(str) | st.sampled_from(["x", "1.5", "+2", " 0x1"]),
            min_size=arity, max_size=arity,
        ))
    line = draw(SEPARATORS).join([kind, *args])
    lead = draw(st.sampled_from(["", " ", "\t"]))
    return lead + line + draw(st.sampled_from(["", " ", "  # c"]))


@st.composite
def program_texts(draw):
    """A text drawn from a few distinct lines, each used any number of times,
    usually after an optional directive and an N header."""
    n = draw(st.integers(1, 6))
    # now and then two lines run together with an inline break between them
    joined = st.tuples(gate_lines(n), st.sampled_from(INLINE_BREAKS), gate_lines(n))
    pool = draw(st.lists(gate_lines(n) | joined.map("".join), min_size=1, max_size=8))
    body = draw(st.lists(st.sampled_from(pool), max_size=12)) * draw(st.integers(1, 4))
    head = draw(st.sampled_from(
        [[], [f"N {n}"], [f"N {n}"], [f"N {n}"], [STATE_SPACE_DIRECTIVE, f"N {n}"]]
    ))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(head + body) + draw(st.sampled_from(["", ending]))


class TestValidateGateMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(gate=any_gates(), n=st.integers(1, 6))
    def test_same_result_or_error(self, gate, n):
        assert outcome(validate_gate, gate, n) == outcome(reference_validate_gate, gate, n)

    def test_every_small_gate(self):
        sites = range(-1, 6)
        gates = [T(a) for a in sites]
        gates += [Swap(a, b) for a in sites for b in sites]
        gates += [C3(a, b, c) for a in sites for b in sites for c in sites]
        for gate in gates:
            assert outcome(validate_gate, gate, 4) == outcome(reference_validate_gate, gate, 4)

    def test_non_gate_is_type_error(self):
        with pytest.raises(TypeError, match="not a super-gate: 3"):
            validate_gate(3, 4)


def check_in_order(n_qubits, gates):
    """The one-check rule's reference: every gate checked, in program order."""
    for g in gates:
        validate_gate(g, n_qubits)


@st.composite
def gate_tuples_with_repeats(draw):
    """Gates that repeat one object many times, next to equal but distinct
    objects: T(1) and T(True), two separate Swap(1, 2)."""
    pool = draw(st.lists(any_gates(), max_size=5))
    pool += [T(1), T(True), Swap(1, 2), Swap(1, 2)]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=20))
    return tuple(pool[i] for i in picks)


class TestOperatorProgramChecksOnce:
    @settings(max_examples=400, deadline=None)
    @given(gates=gate_tuples_with_repeats(), n=st.integers(1, 6))
    def test_same_result_or_first_error_as_in_order_check(self, gates, n):
        expected = outcome(check_in_order, n, gates)
        got = outcome(OperatorProgram, n, gates)
        if expected is None:
            assert isinstance(got, OperatorProgram) and got.gates == gates
        else:
            assert got == expected

    def test_one_check_per_distinct_object(self, monkeypatch):
        calls = []
        monkeypatch.setattr(model, "validate_gate", lambda g, n: calls.append(g))
        gate = T(1)
        OperatorProgram(3, (gate,) * 1000)
        assert calls == [gate]


class TestParseProgramMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(text=program_texts())
    def test_same_program_or_first_error(self, text):
        assert outcome(parse_program, text) == outcome(reference_parse_program, text)

    def test_first_error_in_line_order(self):
        # an out-of-range site on line 2 wins over a syntax error on line 5
        text = "N 3\nT 9\nT 1\nT 1\nT x\n"
        with pytest.raises(ProgramError) as e:
            parse_program(text)
        assert str(e.value) == "line 2: site 9 out of range 1..3 in T(site=9)"

    def test_repeated_lines_keep_their_order(self):
        text = "N 4\nSWAP 1 2\nT 3\nSWAP 1 2\n  T 3 # again\nSWAP 1 2\n"
        assert parse_program(text).gates == (Swap(1, 2), T(3), Swap(1, 2), T(3), Swap(1, 2))

    def test_bad_line_after_repeats_reports_its_line(self):
        text = "N 3\n" + "SWAP 1 2\n" * 5 + "SWAP 2 2\n"
        with pytest.raises(ProgramError, match="^line 7: repeated index in Swap"):
            parse_program(text)

    def test_repeated_header_and_directive_still_rejected(self):
        with pytest.raises(ProgramError, match="^line 3: duplicate N header$"):
            parse_program("N 3\nT 1\nN 3\n")
        with pytest.raises(ProgramError, match="^line 3: @state-space-order must come first$"):
            parse_program("@state-space-order\nN 3\n@state-space-order\n")

    def test_nothing_kept_between_calls(self):
        # a line valid under one header is checked again under the next
        assert parse_program("N 5\nT 5\nT 5\n").gates == (T(5), T(5))
        with pytest.raises(ProgramError, match="^line 2: site 5 out of range 1..3"):
            parse_program("N 3\nT 5\n")
        for _ in range(2):
            with pytest.raises(ProgramError, match="^line 2: repeated index"):
                parse_program("N 3\nC3 1 1 2\n")


def counted_checks(monkeypatch):
    """The gates `model.validate_gate` is called on from now on; each is
    still checked."""
    calls = []

    def counted(gate, n_qubits):
        calls.append(gate)
        validate_gate(gate, n_qubits)

    monkeypatch.setattr(model, "validate_gate", counted)
    return calls


def ghz_120_text(state_space):
    """The N=120 localized GHZ program as `format_program` writes it, or as
    the directive, its header and its gate lines in reverse."""
    text = format_program(build_ghz_program(120, localized=True))
    if not state_space:
        return text
    header, *lines = text.splitlines()
    return "\n".join([STATE_SPACE_DIRECTIVE, header, *reversed(lines)]) + "\n"


class TestEachProgramCheckedOnce:
    """The parser and the GHZ builder hand their checked gates to
    `OperatorProgram`, which does not check them a second time."""

    def test_ghz_builder_checks_only_its_c3s(self, monkeypatch):
        calls = counted_checks(monkeypatch)
        program = build_ghz_program(120, localized=True)
        # once per `localize_c3`; the constructor's check would add 198
        assert len(calls) == 40 and set(map(type, calls)) == {C3}
        assert len(program) == 9440

    @pytest.mark.parametrize("state_space", [False, True])
    def test_parser_checks_each_distinct_line_once(self, monkeypatch, state_space):
        text = ghz_120_text(state_space)
        calls = counted_checks(monkeypatch)
        program = parse_program(text)
        # 40 T, 40 local C3 and 118 adjacent SWAP lines
        assert len(calls) == len(set(calls)) == 198
        # the state-space text parses to the same program as the forward one
        assert program == build_ghz_program(120, localized=True)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("T 1\nSWAP 1 2\nT 1\nC3 2 3 5\nT 1\n",
             "line 6: site 5 out of range 1..4 in C3(control=2, target_1=3, target_2=5)"),
            ("SWAP 1 2\n" * 3 + "SWAP 3 3\nSWAP 1 2\n",
             "line 6: repeated index in Swap(site_a=3, site_b=3)"),
        ],
    )
    def test_bad_gate_in_state_space_text_reports_its_line(self, body, message):
        with pytest.raises(ProgramError) as e:
            parse_program(f"{STATE_SPACE_DIRECTIVE}\nN 4\n{body}")
        assert str(e.value) == message

    def test_public_paths_keep_their_check(self):
        with pytest.raises(ProgramError) as e:
            reverse_from_state_space([T(1), Swap(2, 4)], 3)
        assert str(e.value) == "site 4 out of range 1..3 in Swap(site_a=2, site_b=4)"
        # pickle rebuilds through the constructor, which checks
        unchecked = pickle.dumps(OperatorProgram._checked(3, (T(4),)))
        with pytest.raises(ProgramError) as e:
            pickle.loads(unchecked)
        assert str(e.value) == "site 4 out of range 1..3 in T(site=4)"


class TestLocalizeC3MatchesReference:
    def test_every_c3_with_distinct_sites(self):
        cases = 0
        branches = set()
        for n in range(3, 10):
            sites = range(1, n + 1)
            for c, t1, t2 in itertools.permutations(sites, 3):
                gate = C3(c, t1, t2)
                assert localize_c3(gate, n) == reference_localize_c3(gate, n), gate
                cases += 1
                branches.add((min(t1, t2) > c, max(t1, t2) < c))
        assert cases == 1260
        assert branches == {(True, False), (False, True), (False, False)}
