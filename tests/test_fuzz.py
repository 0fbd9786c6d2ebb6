"""Property-based tests: the tableau against the dense oracle on arbitrary
programs, and the round trips of the program and stabilizer text formats.

`max_examples` keeps the suite to a few seconds; the deadline is off because
an 8-qubit example checks all 254 regions and its time varies with the load.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from super_scrambler.model import (
    C3,
    STATE_SPACE_DIRECTIVE,
    OperatorProgram,
    Swap,
    T,
    format_program,
    localize_c3,
    parse_program,
)
from super_scrambler.oracle import OperatorWavefunction
from super_scrambler.tableau import Region, SuperStabilizerTableau
from test_oracle import check_stabilized_reference, svd_entropy_reference


@st.composite
def program_pairs(draw, min_qubits=1, max_qubits=8, max_gates=30):
    """(direct, localized): T, SWAP and long-range C3 at any sites; in the
    second program some C3 are rewritten by `localize_c3` into
    nearest-neighbour SWAPs around a local C3."""
    n = draw(st.integers(min_qubits, max_qubits))
    kinds = ["T"] + ["SWAP"] * (n >= 2) + ["C3", "localized C3"] * (n >= 3)

    def distinct(k):
        return draw(st.permutations(range(1, n + 1)))[:k]

    direct, localized = [], []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=max_gates)):
        if kind == "T":
            gates = [T(draw(st.integers(1, n)))]
        elif kind == "SWAP":
            gates = [Swap(*distinct(2))]
        else:
            gates = [C3(*distinct(3))]
        direct += gates
        localized += localize_c3(gates[0], n) if kind == "localized C3" else gates
    return OperatorProgram(n, tuple(direct)), OperatorProgram(n, tuple(localized))


# the round trips take programs with every gate kind up to 20 qubits
localized_programs = program_pairs(max_qubits=20).map(lambda pair: pair[1])


@settings(max_examples=150, deadline=None)
@given(program_pairs(min_qubits=2))
def test_tableau_matches_oracle_on_every_region(pair):
    direct, localized = pair
    n = direct.n_qubits
    tableau = SuperStabilizerTableau.new_all_x(n)
    tableau.apply_program(direct)
    rewritten = SuperStabilizerTableau.new_all_x(n)
    rewritten.apply_program(localized)
    assert rewritten.dumps() == tableau.dumps()
    psi = OperatorWavefunction.new_all_x(n)
    psi.apply_program(localized)
    for sp in tableau.stabilizers:
        assert check_stabilized_reference(psi, sp) in ("plus", "minus")
    # every nonempty proper region; its complement is in the loop as well
    for mask in range(1, (1 << n) - 1):
        region = Region(j + 1 for j in range(n) if (mask >> j) & 1)
        s = tableau.entropy(region)
        complement = Region(set(range(1, n + 1)) - region.sites)
        assert s == tableau.entropy(complement), list(region)
        oracle_s = psi.entropy(region)
        assert abs(s - oracle_s) < 1e-6, list(region)
        assert abs(oracle_s - svd_entropy_reference(psi, region)) < 1e-9, list(region)


@settings(max_examples=100, deadline=None)
@given(localized_programs)
def test_program_text_round_trip(program):
    text = format_program(program)
    assert parse_program(text) == program
    reversed_order = parse_program(f"{STATE_SPACE_DIRECTIVE}\n{text}")
    assert reversed_order.gates == program.gates[::-1]
    assert reversed_order.n_qubits == program.n_qubits


@settings(max_examples=100, deadline=None)
@given(localized_programs)
def test_stabilizer_dump_round_trip(program):
    tableau = SuperStabilizerTableau.new_all_x(program.n_qubits)
    tableau.apply_program(program)
    text = tableau.dumps()
    loaded = SuperStabilizerTableau.loads(text)
    assert loaded.dumps() == text
    assert loaded.stabilizers == tableau.stabilizers
