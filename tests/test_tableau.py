import itertools
import re

import numpy as np
import pytest

from super_scrambler.experiments import build_ghz_program, circuit_stream
from super_scrambler.gf2 import gf2_rank
from super_scrambler.model import C3, OperatorProgram, SuperPauli, Swap, T
from super_scrambler.oracle import OperatorWavefunction
from super_scrambler.tableau import (
    Region,
    SuperStabilizerTableau,
    TableauError,
)


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
    """The rank chain holds at most N pivots and N rows (the smaller side of
    a cut has at most N/2 sites), and each row is a pivot or dependent."""
    chain, n = tab._chain, tab.n_qubits
    assert len(chain.rows) <= n and len(chain.pivots) <= n
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
        assert len(tab.stabilizers) == 120
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
        assert tab.stabilizers[0].label() == "XII"

    def test_x_to_z(self):
        tab = tableau_from_labels(["XII", "IZI", "IIZ"])
        tab.apply_t(1)
        assert tab.stabilizers[0].label() == "ZII"

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
        assert tab.stabilizers[0].label() == "ZXI"

    def test_untouched_site(self):
        tab = SuperStabilizerTableau.new_all_x(3)
        tab.apply_swap(1, 2)
        assert tab.stabilizers[2].label() == "IIZ"

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
        assert tab.stabilizers[0].label() == "ZZI"

    def test_x1_image(self):
        tab = tableau_from_labels(["XII", "IZI", "IIZ"])
        tab.apply_c3(1, 2, 3)
        sp = tab.stabilizers[0]
        assert sp.x_mask == 0b111
        assert sp.z_mask == 0b110
        assert sp.label() == "XYY"

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
            assert tab.stabilizers[0] == SuperPauli(3, x, z)
            assert tab.dumps() == before

    def test_index_agnostic_roles(self):
        tab = tableau_from_labels(["IIZ", "ZII", "IZI"])
        tab.apply_c3(3, 1, 2)  # control on site 3
        assert tab.stabilizers[2].label() == "IZZ"

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
        assert sorted(s.label() for s in tab.stabilizers) == ["XYY", "ZIZ", "ZZI"]

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
        # T moves entropy by at most 1 across any cut, C3 by at most 2
        rng = np.random.default_rng(29)
        for _ in range(5):
            n = 8
            tab = random_evolved(rng, n, 50)
            cuts = [Region.prefix(p) for p in range(1, n)]
            before = [tab.entropy(c) for c in cuts]
            tab.apply_t(int(rng.integers(1, n + 1)))
            after = [tab.entropy(c) for c in cuts]
            assert all(abs(a - b) <= 1 for a, b in zip(after, before))
            c, t1, t2 = rng.choice(np.arange(1, n + 1), size=3, replace=False)
            tab.apply_c3(int(c), int(t1), int(t2))
            final = [tab.entropy(cut) for cut in cuts]
            assert all(abs(f - a) <= 2 for f, a in zip(final, after))

    def test_invalid_region(self):
        tab = SuperStabilizerTableau.new_all_x(3)
        with pytest.raises(ValueError):
            tab.entropy(Region({4}))


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

    @pytest.mark.parametrize(
        "text, message",
        [("", "empty stabilizer dump"), ("\nXZ", "empty stabilizer line")],
        ids=["no-lines", "empty-first-line"],
    )
    def test_empty_rejected(self, text, message):
        with pytest.raises(TableauError, match=f"^{message}$"):
            SuperStabilizerTableau.loads(text)


def expected_gate_error(sites, n, distinct_message):
    """The rejection a gate on `sites` must raise, or None: the first site
    outside 1..n in argument order, then a coincident pair."""
    for s in sites:
        if not 1 <= s <= n:
            return f"site {s} out of range 1..{n}"
    if len(set(sites)) != len(sites):
        return distinct_message
    return None


class TestGateContracts:
    """Every rejection names the same site with the same message, and is
    raised before any column is touched."""

    N = 4
    SITES = (-1, 0, 1, 2, 3, 4, 5)  # 0, -1 and n+1 around every valid site

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
            message = expected_gate_error(sites, self.N, distinct_message)
            if message is None:
                getattr(SuperStabilizerTableau(self.N, tab.x, tab.z), method)(*sites)
                continue
            with pytest.raises(TableauError, match=f"^{re.escape(message)}$"):
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
    def test_dropped_xor_is_caught(self, dropped):
        mutant = DroppedXorTableau.new_all_x(6)
        mutant.dropped = dropped
        with pytest.raises(TableauError, match="anticommute"):
            apply_checked(mutant, self.PROGRAM)
