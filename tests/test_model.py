import random

import numpy as np
import pytest

from super_scrambler.model import (
    C3,
    OperatorProgram,
    ProgramError,
    SuperPauli,
    Swap,
    T,
    format_program,
    localize_c3,
    parse_program,
    reverse_from_state_space,
    validate_gate,
)
from super_scrambler.tableau import SuperStabilizerTableau


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


class TestSuperPauliLabel:
    def test_round_trip_random_masks(self):
        rng = random.Random(4)
        for n in (1, 2, 7, 64, 65, 120):
            for _ in range(20):
                x, z = rng.getrandbits(n), rng.getrandbits(n)
                sp = SuperPauli(n, x, z)
                label = sp.label()
                assert len(label) == n
                assert all(
                    c == "IXZY"[((x >> i) & 1) + 2 * ((z >> i) & 1)]
                    for i, c in enumerate(label)
                )
                assert SuperPauli.from_label(label) == sp

    def test_bad_character_named(self):
        with pytest.raises(ValueError, match="bad stabilizer character 'a'"):
            SuperPauli.from_label("XZaYq")
        with pytest.raises(ValueError, match="bad stabilizer character ' '"):
            SuperPauli.from_label("X Y")


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
                # single-SuperPauli inputs: each basis unit vector in turn
                for plane in ("x", "z"):
                    for i in range(n):
                        # every stabilizer carries the unit vector at site i+1
                        unit = [0] * n
                        unit[i] = (1 << n) - 1
                        zero = [0] * n
                        x, z = (unit, zero) if plane == "x" else (zero, unit)
                        direct = SuperStabilizerTableau(n, x, z)
                        routed = direct.copy()
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
