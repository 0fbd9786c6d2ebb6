import itertools
import re

import numpy as np
import pytest

from super_scrambler.experiments import build_ghz_program, circuit_stream
from super_scrambler.gf2 import gf2_rank
from super_scrambler.model import C3, OperatorProgram, Swap, T
from super_scrambler.oracle import OperatorWavefunction
from super_scrambler.tableau import (
    Region,
    SuperStabilizerTableau,
    TableauError,
)
from reference import Stabilizer, expected_gate_error, stabilizers


def tableau_from_labels(labels):
    return SuperStabilizerTableau.loads("\n".join(labels) + "\n")


def apply_checked(tab, program):
    """Apply `program` one gate at a time, checking the invariants after each."""
    for gate in program.gates:
        tab.apply_gate(gate)
        tab.check_invariants()


def random_evolved(rng, n, gate_count=60):
    tab = SuperStabilizerTableau.new_all_x(n)
    for _ in range(gate_count):
        kind = rng.integers(0, 3)
        if kind == 0:
            tab.apply_t(int(rng.integers(1, n + 1)))
        elif kind == 1:
            a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            tab.apply_swap(int(a), int(b))
        else:
            c, t1, t2 = rng.choice(np.arange(1, n + 1), size=3, replace=False)
            tab.apply_c3(int(c), int(t1), int(t2))
    return tab


def rank_entropy(tab, sites):
    """S(A) from scratch: gf2_rank of A's own 2|A| columns, minus |A|."""
    cols = [tab.x[s - 1] for s in sites] + [tab.z[s - 1] for s in sites]
    return gf2_rank(cols) - len(sites)


def stabilizer_rows(tab):
    """One row of 2N bits per stabilizer, read off the tableau's columns:
    site j's x and z exponents at bits 2j - 2 and 2j - 1."""
    n = tab.n_qubits
    return [
        sum((tab.x[j] >> a & 1) << 2 * j | (tab.z[j] >> a & 1) << 2 * j + 1 for j in range(n))
        for a in range(n)
    ]


def echelon_ends(rows, highest=True):
    """The site of each pivot after eliminating `rows` by their highest set
    bit (right ends) or their lowest (left ends); dependent rows cancel."""
    pivots = {}
    for row in rows:
        while row:
            bit = row.bit_length() - 1 if highest else (row & -row).bit_length() - 1
            if bit not in pivots:
                pivots[bit] = row
                break
            row ^= pivots[bit]
    return [bit // 2 + 1 for bit in pivots]


def profile_reference(tab):
    """S(p) for p = 0..N from one right-end echelon: the stabilizers on
    sites 1..p span the rows whose right end is at most p, and
    S(p) = p - that dimension."""
    ends = echelon_ends(stabilizer_rows(tab))
    return [p - sum(end <= p for end in ends) for p in range(tab.n_qubits + 1)]


def gauge_end_counts(rows, n):
    """Left ends plus right ends at each site: exactly 2 at every site for a
    pure stabilizer state in the clipped gauge (Nahum, Ruhman, Vijay & Haah,
    PRX 7, 031016, 2017)."""
    counts = [0] * n
    for highest in (True, False):
        for site in echelon_ends(rows, highest):
            counts[site - 1] += 1
    return counts


def assert_chain_bounded(tab):
    """The rank chain holds at most N rows (the smaller side of a cut has at
    most N/2 sites) and N + 1 pivot slots, indexed by bit length with slot 0
    the empty sentinel, and each row is a pivot or dependent."""
    chain, n = tab._chain, tab.n_qubits
    assert len(chain.rows) <= n and len(chain.pivots) <= n + 1
    assert chain.pivots[0] == 0
    assert len(chain.rows) == sum(1 for p in chain.pivots if p) + len(chain.dependent)
    assert chain.dependent == sorted(set(chain.dependent))


class TestNewAllX:
    def test_three_qubits(self):
        tab = SuperStabilizerTableau.new_all_x(3)
        assert tab.dumps() == "ZII\nIZI\nIIZ\n"

    def test_single_qubit(self):
        assert SuperStabilizerTableau.new_all_x(1).dumps() == "Z\n"

    def test_large_product_state_entropy(self):
        tab = SuperStabilizerTableau.new_all_x(120)
        assert stabilizers(tab) == [Stabilizer(120, 0, 1 << i) for i in range(120)]
        assert tab.entropy(Region.prefix(60)) == 0

    def test_zero_qubits_rejected(self):
        with pytest.raises(TableauError):
            SuperStabilizerTableau.new_all_x(0)

    def test_constructor_rejects_bad_columns(self):
        with pytest.raises(TableauError, match="column per site"):
            SuperStabilizerTableau(3, [0, 0], [1, 2, 4])
        with pytest.raises(TableauError, match="out of range"):
            SuperStabilizerTableau(3, [0, 0, 8], [1, 2, 4])


class TestApplyT:
    def test_z_to_x(self):
        tab = tableau_from_labels(["ZII", "IZI", "IIZ"])
        tab.apply_t(1)
        assert tab.dumps().splitlines()[0] == "XII"

    def test_x_to_z(self):
        tab = tableau_from_labels(["XII", "IZI", "IIZ"])
        tab.apply_t(1)
        assert tab.dumps().splitlines()[0] == "ZII"

    def test_double_application_is_identity(self):
        rng = np.random.default_rng(4)
        tab = random_evolved(rng, 9)
        before = tab.dumps()
        tab.apply_t(5)
        tab.apply_t(5)
        assert tab.dumps() == before

    def test_out_of_range(self):
        tab = SuperStabilizerTableau.new_all_x(3)
        with pytest.raises(TableauError):
            tab.apply_t(4)


class TestApplySwap:
    def test_component_exchange(self):
        tab = tableau_from_labels(["XZI", "IZI", "IIZ"])
        tab.apply_swap(1, 2)
        assert tab.dumps().splitlines()[0] == "ZXI"

    def test_untouched_site(self):
        tab = SuperStabilizerTableau.new_all_x(3)
        tab.apply_swap(1, 2)
        assert tab.dumps().splitlines()[2] == "IIZ"

    def test_double_application_is_identity(self):
        rng = np.random.default_rng(8)
        tab = random_evolved(rng, 6)
        before = tab.dumps()
        tab.apply_swap(1, 4)
        tab.apply_swap(1, 4)
        assert tab.dumps() == before

    def test_equal_sites_rejected(self):
        tab = SuperStabilizerTableau.new_all_x(3)
        with pytest.raises(TableauError):
            tab.apply_swap(2, 2)


class TestApplyC3:
    def test_z2_becomes_z1z2(self):
        tab = tableau_from_labels(["IZI", "ZII", "IIZ"])
        tab.apply_c3(1, 2, 3)
        assert tab.dumps().splitlines()[0] == "ZZI"

    def test_x1_image(self):
        tab = tableau_from_labels(["XII", "IZI", "IIZ"])
        tab.apply_c3(1, 2, 3)
        sp = stabilizers(tab)[0]
        assert sp.x_mask == 0b111
        assert sp.z_mask == 0b110
        assert tab.dumps().splitlines()[0] == "XYY"

    def test_involution_on_all_single_site_patterns(self):
        # all 64 (x, z) bit patterns over 3 sites, applied twice
        for pattern in range(64):
            x, z = pattern & 0b111, pattern >> 3
            # stabilizer 0 carries the pattern: bit 0 of each site's column
            tab = SuperStabilizerTableau(
                3,
                [(x >> j) & 1 for j in range(3)],
                [(z >> j) & 1 for j in range(3)],
            )
            before = tab.dumps()
            tab.apply_c3(1, 2, 3)
            tab.apply_c3(1, 2, 3)
            assert stabilizers(tab)[0] == Stabilizer(3, x, z)
            assert tab.dumps() == before

    def test_index_agnostic_roles(self):
        tab = tableau_from_labels(["IIZ", "ZII", "IZI"])
        tab.apply_c3(3, 1, 2)  # control on site 3
        assert tab.dumps().splitlines()[2] == "IZZ"

    def test_repeated_indices_rejected(self):
        tab = SuperStabilizerTableau.new_all_x(3)
        with pytest.raises(TableauError):
            tab.apply_c3(1, 1, 2)


class TestApplyProgram:
    def test_empty_program(self):
        tab = SuperStabilizerTableau.new_all_x(4)
        before = tab.dumps()
        tab.apply_program(OperatorProgram(4, ()))
        assert tab.dumps() == before

    def test_ghz_three_qubits(self):
        tab = SuperStabilizerTableau.new_all_x(3)
        tab.apply_program(OperatorProgram(3, (T(1), C3(1, 2, 3))))
        assert sorted(tab.dumps().splitlines()) == ["XYY", "ZIZ", "ZZI"]

    def test_program_followed_by_reverse_is_identity(self):
        # every gate is a mask-level involution, so the reversed list undoes it
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            tab = SuperStabilizerTableau.new_all_x(n)
            gates = []
            for _ in range(30):
                c, t1, t2 = rng.choice(np.arange(1, n + 1), size=3, replace=False)
                gates.append(C3(int(c), int(t1), int(t2)))
                gates.append(T(int(rng.integers(1, n + 1))))
            tab.apply_program(OperatorProgram(n, tuple(gates)))
            tab.apply_program(OperatorProgram(n, tuple(reversed(gates))))
            assert tab.dumps() == SuperStabilizerTableau.new_all_x(n).dumps()

    def test_dimension_mismatch(self):
        tab = SuperStabilizerTableau.new_all_x(3)
        with pytest.raises(TableauError):
            tab.apply_program(OperatorProgram(4, ()))
        # a program that would touch columns raises with all of them untouched
        tab = random_evolved(np.random.default_rng(3), 3)
        before = (list(tab.x), list(tab.z))
        for program_n in (2, 4, 9):
            program = OperatorProgram(program_n, (T(1), Swap(1, 2)) * 3)
            with pytest.raises(TableauError, match="^program/simulator dimension mismatch$"):
                tab.apply_program(program)
            assert (tab.x, tab.z) == before

    @staticmethod
    def random_program(rng, n, count):
        """`count` gates drawn from a pool of T, adjacent and long-range SWAP,
        and adjacent and non-adjacent C3 objects, each pool gate shared by
        every draw of it; the five gates of every third round have numpy-int
        sites."""
        every = np.arange(1, n + 1)
        pool = []
        for i in range(max(4, n // 2)):
            p = int(rng.integers(1, n - 1))  # a window p, p + 1, p + 2
            a, b = rng.choice(every, 2, replace=False)
            c, t1, t2 = rng.choice(every, 3, replace=False)
            ends = (p, p + 2) if rng.integers(0, 2) else (p + 2, p)
            gates = [T(int(rng.integers(1, n + 1))), Swap(p, p + 1), Swap(a, b),
                     C3(p + 1, *ends), C3(c, t1, t2)]
            cast = np.int64 if i % 3 == 0 else int
            pool += [g._make(map(cast, g)) for g in gates]
        return [pool[k] for k in rng.integers(0, len(pool), count)]

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 12, 40, 120])
    def test_matches_apply_gate(self, n):
        rng = np.random.default_rng(900 + n)
        looped = random_evolved(rng, n, 3 * n)
        gated = SuperStabilizerTableau(n, looped.x, looped.z)
        for count in (0, 1, 2, 9, 300, 0, 5 * n):
            gates = self.random_program(rng, n, count)
            looped.apply_program(OperatorProgram(n, gates))
            for gate in gates:
                gated.apply_gate(gate)
            assert (looped.x, looped.z) == (gated.x, gated.z), (n, count)
        looped.check_invariants()

    def test_random_programs_cover_every_gate_shape(self):
        gates = self.random_program(np.random.default_rng(1), 12, 2000)
        shapes = {
            (type(g).__name__, max(g) - min(g) <= len(g) - 1, isinstance(g[0], np.integer))
            for g in gates
        }
        assert shapes == {(kind, local, numpy_int) for kind in ("T", "Swap", "C3")
                          for local in (True, False) for numpy_int in (True, False)
                          if kind != "T" or local}
        assert len({id(g) for g in gates}) < len(gates) // 10

    @pytest.mark.parametrize("n", [60, 90, 120])
    def test_localized_ghz_matches_apply_gate(self, n):
        program = build_ghz_program(n, localized=True)
        looped = SuperStabilizerTableau.new_all_x(n)
        looped.apply_program(program)
        gated = SuperStabilizerTableau.new_all_x(n)
        for gate in program.gates:
            gated.apply_gate(gate)
        assert (looped.x, looped.z) == (gated.x, gated.z)

    def test_c3_goes_through_apply_c3(self):
        class Recording(SuperStabilizerTableau):
            def apply_c3(self, *sites):
                self.c3s.append(sites)
                super().apply_c3(*sites)

        gates = self.random_program(np.random.default_rng(5), 9, 200)
        tab = Recording.new_all_x(9)
        tab.c3s = []
        tab.apply_program(OperatorProgram(9, gates))
        assert tab.c3s == [tuple(g) for g in gates if type(g) is C3]

    def test_per_gate_invariant_checking(self):
        tab = SuperStabilizerTableau.new_all_x(5)
        apply_checked(tab, OperatorProgram(5, (T(1), C3(1, 2, 3), Swap(4, 5))))
        tab.check_invariants()

    @pytest.mark.parametrize("gate", [None, "T 1", (5,)])
    def test_non_gate_is_type_error(self, gate):
        # a plain tuple equals the NamedTuple T(5) but is still no gate
        tab = SuperStabilizerTableau.new_all_x(5)
        with pytest.raises(TypeError, match="not a super-gate"):
            tab.apply_gate(gate)
        assert tab.dumps() == SuperStabilizerTableau.new_all_x(5).dumps()


class TestEntropy:
    def test_product_state_any_region(self):
        tab = SuperStabilizerTableau.new_all_x(8)
        for region in (Region.prefix(3), Region({2, 5, 7}), Region.prefix(4)):
            assert tab.entropy(region) == 0

    def test_ghz_single_site(self):
        tab = SuperStabilizerTableau.new_all_x(3)
        tab.apply_program(OperatorProgram(3, (T(1), C3(1, 2, 3))))
        assert tab.entropy(Region({1})) == 1

    def test_complement_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(4, 12))
            tab = random_evolved(rng, n, 80)
            size = int(rng.integers(1, n))
            sites = set(
                int(s) for s in rng.choice(np.arange(1, n + 1), size=size, replace=False)
            )
            region = Region(sites)
            complement = Region(set(range(1, n + 1)) - region.sites)
            assert tab.entropy(region) == tab.entropy(complement)

    def test_both_sides_ranked_from_raw_columns(self):
        # entropy ranks only the smaller side, so S(A) = S(A-bar) is checked
        # here with gf2_rank on each side's own 2|A| columns
        rng = np.random.default_rng(43)
        for n in (7, 16, 65, 120):
            tab = random_evolved(rng, n, 8 * n)
            regions = [range(1, p + 1) for p in range(n + 1)]
            for _ in range(20):
                size = int(rng.integers(1, n))
                regions.append(rng.choice(np.arange(1, n + 1), size=size, replace=False))
            for sites in regions:
                sites = {int(s) for s in sites}
                comp = set(range(1, n + 1)) - sites
                s = rank_entropy(tab, sites)
                assert s == rank_entropy(tab, comp), (n, sorted(sites))
                assert tab.entropy(Region(sites)) == s, (n, sorted(sites))

    def test_bounds(self):
        rng = np.random.default_rng(23)
        tab = random_evolved(rng, 10, 120)
        for p in range(11):
            s = tab.entropy(Region.prefix(p))
            assert 0 <= s <= min(p, 10 - p)

    def test_gate_locality_entropy_change(self):
        # T keeps the entropy of every cut, a C3 moves it by at most 1
        rng = np.random.default_rng(29)
        for _ in range(5):
            n = 8
            tab = random_evolved(rng, n, 50)
            cuts = [Region.prefix(p) for p in range(1, n)]
            before = [tab.entropy(c) for c in cuts]
            tab.apply_t(int(rng.integers(1, n + 1)))
            after = [tab.entropy(c) for c in cuts]
            assert after == before
            c, t1, t2 = rng.choice(np.arange(1, n + 1), size=3, replace=False)
            tab.apply_c3(int(c), int(t1), int(t2))
            final = [tab.entropy(cut) for cut in cuts]
            assert all(abs(f - a) <= 1 for f, a in zip(final, after))

    def test_invalid_region(self):
        tab = SuperStabilizerTableau.new_all_x(3)
        with pytest.raises(ValueError):
            tab.entropy(Region({4}))


class TestEntropyChangeRule:
    """The rule by which a realization skips entropies: T never changes any
    S(A), a C3 with all three sites on one side of A keeps S(A), and a C3
    that crosses the cut changes S(A) by at most 1, its operator Schmidt
    rank being 2.  Exact ranks from scratch, on random states up to N=120,
    over prefix and non-prefix regions."""

    def test_t_and_one_sided_c3_keep_s_crossing_c3_moves_it_by_at_most_1(self):
        moves = set()
        for n in (3, 4, 5, 8, 13, 40, 120):
            rng = np.random.default_rng(3100 + n)
            every = np.arange(1, n + 1)
            for trial in range(24):
                tab = random_evolved(rng, n, int(rng.integers(0, 4 * n)))
                regions = [set(range(1, int(rng.integers(1, n)) + 1))]
                regions += [{int(s) for s in rng.choice(every, size=int(rng.integers(1, n)),
                                                        replace=False)} for _ in range(2)]
                before = [rank_entropy(tab, sites) for sites in regions]
                tab.apply_t(int(rng.integers(1, n + 1)))
                assert [rank_entropy(tab, sites) for sites in regions] == before, n
                sites = regions[trial % 3]
                for side in (sorted(sites), sorted(set(every.tolist()) - sites)):
                    if len(side) >= 3:
                        tab.apply_c3(*(int(s) for s in rng.choice(side, size=3, replace=False)))
                        assert rank_entropy(tab, sites) == before[trial % 3], (n, side)
                # one site on each side, the third anywhere, in a random order
                inside = int(rng.choice(sorted(sites)))
                outside = int(rng.choice(sorted(set(every.tolist()) - sites)))
                third = int(rng.choice(sorted(set(every.tolist()) - {inside, outside})))
                tab.apply_c3(*(int(s) for s in rng.permutation([inside, outside, third])))
                moves.add(rank_entropy(tab, sites) - before[trial % 3])
        assert moves == {-1, 0, 1}


class TestApplySteps:
    """`_apply_steps`, the tableau's one-loop T + C3 kernel, against
    `apply_t` then `apply_c3` one step at a time."""

    @staticmethod
    def random_steps(rng, n, count):
        """`count` steps of a T site and three distinct C3 sites, anywhere."""
        every = np.arange(1, n + 1)
        return [
            (int(rng.integers(1, n + 1)), *(int(s) for s in rng.choice(every, 3, replace=False)))
            for _ in range(count)
        ]

    @pytest.mark.parametrize("n", [3, 4, 7, 12, 120])
    def test_matches_apply_t_and_apply_c3(self, n):
        rng = np.random.default_rng(700 + n)
        blocked = random_evolved(rng, n, 3 * n)
        stepped = SuperStabilizerTableau(n, blocked.x, blocked.z)
        for count in (0, 1, 2, 5, 200, 0, 3 * n):
            steps = self.random_steps(rng, n, count)
            blocked._apply_steps(steps)
            for t_site, control, target_1, target_2 in steps:
                stepped.apply_t(t_site)
                stepped.apply_c3(control, target_1, target_2)
            assert (blocked.x, blocked.z) == (stepped.x, stepped.z), (n, count)
        blocked.check_invariants()

    def test_oracle_steps_match_the_tableau(self):
        # the steps on the oracle go through its own checked gates
        rng = np.random.default_rng(77)
        tab = SuperStabilizerTableau.new_all_x(6)
        psi = OperatorWavefunction.new_all_x(6)
        for count in (0, 1, 4, 9):
            steps = self.random_steps(rng, 6, count)
            tab._apply_steps(steps)
            for t_site, control, target_1, target_2 in steps:
                psi.apply_t(t_site)
                psi.apply_c3(control, target_1, target_2)
            for p in range(1, 6):
                assert psi.entropy(range(1, p + 1)) == pytest.approx(
                    tab.entropy(Region.prefix(p)), abs=1e-9
                )


class TestRankChain:
    """`entropy` reads, extends or restarts the tableau's rank chain, keyed by
    the values of its rows; every value must equal a rank from scratch."""

    @staticmethod
    def region_run(rng, n):
        """One run of site sets: nested cuts in some order, a block or an
        arbitrary set with its complement, or the empty and the full region."""
        a, b = sorted(int(v) for v in rng.integers(0, n + 1, size=2))
        lo, hi = sorted(int(v) for v in rng.integers(1, n + 1, size=2))
        size = int(rng.integers(0, n + 1))
        every = set(range(1, n + 1))
        block = set(range(lo, hi + 1))
        arbitrary = {int(s) for s in rng.choice(np.arange(1, n + 1), size=size, replace=False)}
        runs = [
            [set(range(1, p + 1)) for p in range(a, b + 1)],
            [set(range(1, p + 1)) for p in range(b, a - 1, -1)],
            [set(range(p, n + 1)) for p in range(a + 1, b + 2)],
            [set(range(p, n + 1)) for p in range(b + 1, a, -1)],
            [block, every - block],
            [every - block, block],
            [arbitrary, every - arbitrary],
            [set(), every],
        ]
        return runs[int(rng.integers(0, len(runs)))]

    @pytest.mark.parametrize("n", [*range(3, 41), 120])
    def test_calls_match_ranks_from_scratch(self, n):
        rng = np.random.default_rng(1000 + n)
        tab = SuperStabilizerTableau.new_all_x(n)
        # the oracle follows every change, so its entropy is one more reference
        psi = OperatorWavefunction.new_all_x(n) if n <= 8 else None

        def apply_random_gate():
            kind = int(rng.integers(0, 3))
            sites = [int(s) for s in rng.choice(np.arange(1, n + 1), size=kind + 1, replace=False)]
            gate = (T, Swap, C3)[kind](*sites)
            tab.apply_gate(gate)
            if psi is not None:
                psi.apply_gate(gate)

        def check(sites):
            s = tab.entropy(Region(sites))
            assert s == rank_entropy(tab, sites), (n, sorted(sites))
            if psi is not None and 0 < len(sites) < n:
                assert psi.entropy(sites) == pytest.approx(s, abs=1e-9), (n, sorted(sites))
            assert_chain_bounded(tab)

        # from a product state to a saturated one, so cuts change rank often
        for _ in range(int(rng.integers(0, 2 * n))):
            apply_random_gate()
        last = set()
        for _ in range(100):
            for sites in self.region_run(rng, n):
                check(sites)
                last = sites
            action = int(rng.integers(0, 3))
            if action == 0:
                apply_random_gate()
            elif action == 1:
                # a direct write to one column of a site, often one of the
                # last region's, then the cuts that end at that site
                if last and rng.integers(0, 2):
                    j = int(rng.choice(sorted(last))) - 1
                else:
                    j = int(rng.integers(0, n))
                k = int(rng.integers(0, n - 1))
                k += k >= j
                write = int(rng.integers(0, 3))
                if psi is not None:
                    # T by hand, which the oracle can follow
                    tab.x[j], tab.z[j] = tab.z[j], tab.x[j]
                    psi.apply_t(j + 1)
                elif write == 0:
                    tab.x[j] ^= tab.z[j]
                elif write == 1:
                    tab.z[j] ^= tab.x[j]
                else:
                    # CNOT from site j+1 to site k+1: of site j+1's columns
                    # only z changes, the last row of a cut that ends there
                    tab.x[k] ^= tab.x[j]
                    tab.z[j] ^= tab.z[k]
                check(set(range(1, j + 2)))
                check(set(range(j + 1, n + 1)))
            # the same region before and after the change
            check(last)

    @pytest.mark.parametrize("falling", [False, True])
    def test_cuts_pattern_restarts_at_most_twice(self, falling):
        n = 120
        tab = random_evolved(np.random.default_rng(5), n, 8 * n)
        assert tab.entropy(Region.prefix(n // 2)) >= n // 2 - 3
        cuts = range(n - 1, 0, -1) if falling else range(1, n)
        restarts, before = 0, list(tab._chain.rows)
        for p in cuts:
            for sites in (range(1, p + 1), range(p + 1, n + 1)):
                tab.entropy(Region(sites))
                rows = tab._chain.rows
                restarts += rows[: len(before)] != before
                before = list(rows)
                assert_chain_bounded(tab)
        assert restarts <= 2


class TestBlockGather:
    """A block's side, the block or the two runs around it, is gathered by
    list slices: every value must equal a rank from scratch, and a block and
    its complement must hand the rank chain the same rows."""

    @staticmethod
    def check(tab, sites, shared):
        """S(sites) against `rank_entropy`; with `shared`, the chain must
        read off or extend the previous call's rows, not start afresh."""
        before = list(tab._chain.rows)
        assert tab.entropy(Region(sites)) == rank_entropy(tab, sorted(sites)), sorted(sites)
        if shared:
            assert tab._chain.rows[: len(before)] == before, sorted(sites)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_every_block_and_its_complement(self, n):
        rng = np.random.default_rng(3000 + n)
        tab = random_evolved(rng, n, 4 * n)
        every = set(range(1, n + 1))
        blocks = [set()] + [set(range(lo, hi + 1))
                            for lo in range(1, n + 1) for hi in range(lo, n + 1)]
        for written in (False, True):
            if written:
                # a direct write to one column, z ^= x at one site (a phase
                # gate), which keeps the stabilizers commuting and independent
                j = int(rng.integers(0, n))
                tab.z[j] ^= tab.x[j]
            for block in blocks:
                for first, second in ((block, every - block), (every - block, block)):
                    self.check(tab, first, shared=False)
                    self.check(tab, second, shared=True)
            # nested prefixes and suffixes of the smaller side: one elimination
            for p in range(1, (n + 1) // 2):
                self.check(tab, set(range(1, p + 1)), shared=p > 1)
            for p in range(1, (n + 1) // 2):
                self.check(tab, set(range(n - p + 1, n + 1)), shared=p > 1)


class TestEntropyProfile:
    """Every prefix entropy S(p), p = 0..N, against `profile_reference`,
    which shares no code with `entropy` or `gf2`."""

    @staticmethod
    def states():
        """Random-circuit states at depths 0, 5, N and 4N, each layer N steps
        of T + C3, so the deepest are saturated; then the GHZ states."""
        for n in [*range(3, 41), 120]:
            for depth in (0, 5, n, 4 * n):
                tab = SuperStabilizerTableau.new_all_x(n)
                rng = np.random.default_rng((n, depth))
                for t_site, control, target_1, target_2 in circuit_stream(rng, n, depth * n):
                    tab.apply_t(t_site)
                    tab.apply_c3(control, target_1, target_2)
                yield f"random n={n} depth={depth}", tab
        for n in (60, 120):
            for localized in (False, True):
                tab = SuperStabilizerTableau.new_all_x(n)
                tab.apply_program(build_ghz_program(n, localized))
                yield f"GHZ n={n} localized={localized}", tab

    def test_every_prefix_in_either_order_and_after_a_round_trip(self):
        saturated = 0
        for name, tab in self.states():
            n = tab.n_qubits
            want = profile_reference(tab)
            assert want[0] == want[n] == 0, name
            # rising then falling on the state, falling then rising on its
            # round trip: the chain is read, extended and restarted
            copy = SuperStabilizerTableau.loads(tab.dumps())
            for t, order in ((tab, range(n + 1)), (copy, range(n, -1, -1))):
                first = {p: t.entropy(Region.prefix(p)) for p in order}
                second = {p: t.entropy(Region.prefix(p)) for p in reversed(order)}
                assert [first[p] for p in range(n + 1)] == want, name
                assert second == first, name
            saturated += want[n // 2] >= n // 2 - 3
        assert saturated > 40  # most deep random states are near the Page value

    def test_ghz_profile_steps_by_one_per_site_of_the_first_block(self):
        for n in (60, 120):
            tab = SuperStabilizerTableau.new_all_x(n)
            tab.apply_program(build_ghz_program(n, localized=True))
            k = n // 3
            assert profile_reference(tab)[: k + 1] == list(range(k + 1))

    def test_clipped_gauge_has_two_ends_at_every_site(self):
        for name, tab in self.states():
            n = tab.n_qubits
            rows = stabilizer_rows(tab)
            assert gauge_end_counts(rows, n) == [2] * n, name
            # a stabilizer replaced by a copy of another leaves a mixed state
            broken = [rows[1]] + rows[1:]
            assert gauge_end_counts(broken, n) != [2] * n, name


class TestRegion:
    def test_integral_sites_kept(self):
        assert Region([3, np.int64(1)]).sites == frozenset({1, 3})

    @pytest.mark.parametrize("sites", [[1.5, 2], [2.0], ["3"], [None], [True, 2], [False]])
    def test_non_integral_site_rejected(self, sites):
        with pytest.raises(TypeError):
            Region(sites)

    @pytest.mark.parametrize("size", [True, False, 2.5, "3", None])
    def test_prefix_size_that_is_no_integer_rejected(self, size):
        # a bool is no prefix size, though `range` takes it as 0 or 1
        message = f"prefix size must be an integer, got {size!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            Region.prefix(size)

    def test_numpy_integer_prefix_size_kept(self):
        assert Region.prefix(np.int64(3)) == Region.prefix(3) == Region([1, 2, 3])


class TestInvariants:
    def test_hold_after_random_evolution(self):
        rng = np.random.default_rng(31)
        for n in (3, 7, 16, 65):
            tab = random_evolved(rng, n, 100)
            tab.check_invariants()

    def test_commutation_violation_detected(self):
        # stabilizer 0 = X1 and stabilizer 1 = Z1 anticommute
        tab = SuperStabilizerTableau(2, [0b01, 0], [0b10, 0])
        with pytest.raises(TableauError, match="anticommute"):
            tab.check_invariants()


class TestSerialization:
    def test_round_trip_after_evolution(self):
        rng = np.random.default_rng(37)
        tab = random_evolved(rng, 70, 200)
        again = SuperStabilizerTableau.loads(tab.dumps())
        assert again.dumps() == tab.dumps()

    def test_duplicate_lines_rejected(self):
        with pytest.raises(TableauError, match="dependent"):
            SuperStabilizerTableau.loads("ZII\nZII\nIIZ\n")

    def test_bad_character(self):
        with pytest.raises(TableauError, match="line 2"):
            SuperStabilizerTableau.loads("ZII\nIQI\nIIZ\n")

    def test_wrong_line_length(self):
        with pytest.raises(TableauError, match="length"):
            SuperStabilizerTableau.loads("ZII\nIZ\nIIZ\n")

    def test_wrong_line_count(self):
        with pytest.raises(TableauError, match="expected 3 lines"):
            SuperStabilizerTableau.loads("ZII\nIZI\n")

    def test_non_commuting_set_rejected(self):
        with pytest.raises(TableauError, match="anticommute"):
            SuperStabilizerTableau.loads("XII\nZII\nIIZ\n")

    @staticmethod
    def message(call):
        """The message of the `TableauError` that `call()` raises, else None."""
        try:
            call()
        except TableauError as e:
            return str(e)
        return None

    def test_corruptions_fail_as_check_invariants_fails(self):
        # one character of a valid dump changed to another label: `loads`
        # checks the rows it parsed, and must raise exactly when
        # `check_invariants` raises on the same columns, with its message
        rng = np.random.default_rng(41)
        outcomes = {"valid": 0, "anticommute": 0, "dependent": 0}
        for n in [*range(2, 41), 120]:
            for tab in codec_states(n):
                lines = tab.dumps().splitlines()
                for _ in range(12):
                    i, j = (int(v) for v in rng.integers(0, n, size=2))
                    char = "IXZY".replace(lines[i][j], "")[int(rng.integers(0, 3))]
                    broken = list(lines)
                    broken[i] = lines[i][:j] + char + lines[i][j + 1:]
                    text = "\n".join(broken) + "\n"
                    checked = SuperStabilizerTableau(n, *reference_loads(text))
                    expected = self.message(checked.check_invariants)
                    got = self.message(lambda: SuperStabilizerTableau.loads(text))
                    assert got == expected, (n, i, j, char)
                    outcomes["valid" if got is None else
                             "dependent" if "dependent" in got else "anticommute"] += 1
        assert min(outcomes.values()) >= 10, outcomes

    @pytest.mark.parametrize(
        "text, message",
        [("", "empty stabilizer dump"), ("\nXZ", "empty stabilizer line")],
        ids=["no-lines", "empty-first-line"],
    )
    def test_empty_rejected(self, text, message):
        with pytest.raises(TableauError, match=f"^{message}$"):
            SuperStabilizerTableau.loads(text)


def reference_dumps(tab):
    """The dump read off the columns one bit at a time: stabilizer i's
    character at site j + 1 is "IXZY"[x bit + 2 * z bit]."""
    n = tab.n_qubits
    return "".join(
        "".join(["IXZY"[(tab.x[j] >> i & 1) + 2 * (tab.z[j] >> i & 1)] for j in range(n)])
        + "\n"
        for i in range(n)
    )


def reference_loads(text):
    """The columns of a well-formed dump, set one bit at a time: stabilizer
    i's character at site j + 1 gives bit i of x[j] and of z[j]."""
    bits = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
    lines = text.splitlines()
    x, z = [0] * len(lines), [0] * len(lines)
    for i, line in enumerate(lines):
        for j, char in enumerate(line):
            x_bit, z_bit = bits[char]
            x[j] |= x_bit << i
            z[j] |= z_bit << i
    return x, z


def codec_states(n):
    """All-X, a random evolution, and for N a multiple of 3 the direct and
    the localized GHZ states."""
    evolved = SuperStabilizerTableau.new_all_x(n)
    if n >= 3:
        evolved = random_evolved(np.random.default_rng(n), n, 4 * n)
    else:
        evolved.apply_program(OperatorProgram(n, (T(1),) + (Swap(1, 2),) * (n - 1)))
    states = [SuperStabilizerTableau.new_all_x(n), evolved]
    for localized in (False, True) if n % 3 == 0 else ():
        ghz = SuperStabilizerTableau.new_all_x(n)
        ghz.apply_program(build_ghz_program(n, localized))
        states.append(ghz)
    return states


# Malformed dumps and the message of each; with two faults, the first in
# line order wins, and within one line the length is checked before the
# characters.  A line ends only at "\n" or "\r\n": any other line-break
# character, a lone "\r" included, stays inside its line.
MALFORMED_DUMPS = [
    ("", "empty stabilizer dump"),
    ("\n", "empty stabilizer line"),
    ("\nXZ", "empty stabilizer line"),
    ("ZII\nIZI\n", "expected 3 lines of length 3, got 2"),
    ("ZII\nIZI\nIIZ\n\n", "expected 3 lines of length 3, got 4"),
    ("QII\nIZI\n", "expected 3 lines of length 3, got 2"),
    ("ZII\nIZ\nIIZ\n", "line 2: length 2, expected 3"),
    ("ZII\nIZIZ\nIIZ\n", "line 2: length 4, expected 3"),
    ("ZII\nIQI\nIIZ\n", "line 2: bad stabilizer character 'Q'"),
    ("ZII\nIZI\nIIz\n", "line 3: bad stabilizer character 'z'"),
    ("ZII\nI I\nIIZ\n", "line 2: bad stabilizer character ' '"),
    ("ZII\nI\u00e9I\nIIZ\n", "line 2: bad stabilizer character '\u00e9'"),
    ("ZII\nIQ\nIIZ\n", "line 2: length 2, expected 3"),
    ("ZII\nIQI\nIZ\n", "line 2: bad stabilizer character 'Q'"),
    ("ZII\nIZ\nIQI\n", "line 2: length 2, expected 3"),
    ("ZQI\nIZI\nQIZ\n", "line 1: bad stabilizer character 'Q'"),
    ("ZII\nZII\nIIZ\n", "stabilizers are GF(2)-dependent"),
    ("III\nIZI\nIIZ\n", "stabilizers are GF(2)-dependent"),
    ("XII\nZII\nIIZ\n", "stabilizers 0 and 1 anticommute"),
    ("ZIII\nIZII\nIIZQ\nIIZ\n", "line 3: bad stabilizer character 'Q'"),
    ("X\x85\nZX\n", "line 1: bad stabilizer character '\\x85'"),
    ("XI\nI\x0b\n", "line 2: bad stabilizer character '\\x0b'"),
    ("ZI\x1cIZ\n", "expected 5 lines of length 5, got 1"),
    ("ZI\u2028IZ\n", "expected 5 lines of length 5, got 1"),
    ("ZI\r\r\nIZ\n", "expected 3 lines of length 3, got 2"),
    ("XI\r\nIX\r", "line 2: length 3, expected 2"),
]


class TestCodecParity:
    """`dumps` and `loads` against their one-stabilizer-at-a-time definitions."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 65, 120, 300])
    def test_matches_reference(self, n):
        for tab in codec_states(n):
            text = tab.dumps()
            assert text == reference_dumps(tab)
            loaded = SuperStabilizerTableau.loads(text)
            assert (loaded.x, loaded.z) == reference_loads(text) == (tab.x, tab.z)
            assert loaded.dumps() == text

    def test_other_line_breaks_load_alike(self):
        tab = random_evolved(np.random.default_rng(8), 7)
        text = tab.dumps()
        for variant in (text.rstrip("\n"), text.replace("\n", "\r\n")):
            loaded = SuperStabilizerTableau.loads(variant)
            assert (loaded.x, loaded.z) == (tab.x, tab.z)

    @pytest.mark.parametrize("text, message", MALFORMED_DUMPS)
    def test_malformed_dump_message(self, text, message):
        with pytest.raises(TableauError) as caught:
            SuperStabilizerTableau.loads(text)
        assert str(caught.value) == message

    def test_over_the_qubit_limit_rejected_first(self, monkeypatch):
        # the first line's length alone decides: no other line is checked
        # and the invariants never run
        monkeypatch.setattr(SuperStabilizerTableau, "check_invariants", None)
        with pytest.raises(TableauError) as caught:
            SuperStabilizerTableau.loads("Z" * 10_001 + "\nQ\n")
        assert str(caught.value) == "line length 10001 is over the limit of 10000 qubits"


class TestGateContracts:
    """Every rejection names the same site with the same message, and is
    raised before any column is touched."""

    N = 4
    # 0, -1 and n+1 around every valid site, then sites that are no integers
    SITES = (-1, 0, 1, 2, 3, 4, 5, True, False, 2.5)

    @pytest.mark.parametrize(
        "method, arity, distinct_message",
        [
            ("apply_t", 1, None),
            ("apply_swap", 2, "swap sites must be distinct"),
            ("apply_c3", 3, "C3 sites must be distinct"),
        ],
    )
    def test_rejections_leave_state_unchanged(self, method, arity, distinct_message):
        tab = random_evolved(np.random.default_rng(4), self.N)
        before = tab.dumps()
        rejected = 0
        for sites in itertools.product(self.SITES, repeat=arity):
            expected = expected_gate_error(sites, self.N, distinct_message, TableauError)
            if expected is None:
                getattr(SuperStabilizerTableau(self.N, tab.x, tab.z), method)(*sites)
                continue
            error, message = expected
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                getattr(tab, method)(*sites)
            assert tab.dumps() == before, (method, sites)
            rejected += 1
        assert rejected == len(self.SITES) ** arity - {1: 4, 2: 12, 3: 24}[arity]


class DroppedXorTableau(SuperStabilizerTableau):
    """`apply_c3` with its `dropped`-th XOR update left out."""

    dropped = None

    def apply_c3(self, control, target_1, target_2):
        c, t1, t2 = control - 1, target_1 - 1, target_2 - 1
        x, z = self.x, self.z
        v = x[c]
        updates = [
            (z, c, x[t1] ^ z[t1] ^ x[t2] ^ z[t2]),
            (x, t1, v),
            (z, t1, v),
            (x, t2, v),
            (z, t2, v),
        ]
        for k, (plane, j, delta) in enumerate(updates):
            if k != self.dropped:
                plane[j] ^= delta


def random_t_c3_program(seed, n, steps):
    gates = []
    for t_site, control, target_1, target_2 in circuit_stream(
        np.random.default_rng(seed), n, steps
    ):
        gates += [T(t_site), C3(control, target_1, target_2)]
    return OperatorProgram(n, tuple(gates))


class TestGateCheckCatchesMutants:
    PROGRAM = random_t_c3_program(17, 6, 40)

    def test_real_class_passes(self):
        real = SuperStabilizerTableau.new_all_x(6)
        apply_checked(real, self.PROGRAM)
        # with nothing dropped, the mutant's update is the real one
        unmutated = DroppedXorTableau.new_all_x(6)
        apply_checked(unmutated, self.PROGRAM)
        assert unmutated.dumps() == real.dumps()

    @pytest.mark.parametrize("dropped", range(5))
    def test_dropped_xor_dump_is_rejected_by_loads(self, dropped):
        mutant = DroppedXorTableau.new_all_x(6)
        mutant.dropped = dropped
        mutant.apply_program(self.PROGRAM)
        with pytest.raises(TableauError, match="anticommute"):
            SuperStabilizerTableau.loads(mutant.dumps())

    @pytest.mark.parametrize("dropped", range(5))
    def test_dropped_xor_is_caught(self, dropped):
        mutant = DroppedXorTableau.new_all_x(6)
        mutant.dropped = dropped
        with pytest.raises(TableauError, match="anticommute"):
            apply_checked(mutant, self.PROGRAM)
