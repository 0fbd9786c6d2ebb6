import itertools
import json
import re

import numpy as np
import pytest

from super_scrambler.model import C3, OperatorProgram, Swap, T, localize_c3
from super_scrambler.oracle import (
    C3_CONJUGATION_TABLE,
    MAX_ORACLE_QUBITS,
    OperatorWavefunction,
    OracleError,
    c3_state_space_matrix,
    verify_gate_tables,
    _T,
    _embed,
    _pauli_string,
)
from super_scrambler.cli import main
from super_scrambler.experiments import (
    ExperimentConfig,
    build_ghz_program,
    circuit_stream,
    run_random_ensemble,
)
from super_scrambler.tableau import Region, SuperStabilizerTableau
from reference import (
    Stabilizer,
    apply_super_pauli_reference,
    check_stabilized_reference,
    expected_gate_error,
    stabilizers,
    svd_entropy_reference,
)


def random_program(rng, n, gate_count=40):
    gates = []
    for _ in range(gate_count):
        kind = rng.integers(0, 3 if n >= 3 else 2)
        if kind == 0:
            gates.append(T(int(rng.integers(1, n + 1))))
        elif kind == 1:
            a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            gates.append(Swap(int(a), int(b)))
        else:
            c, t1, t2 = rng.choice(np.arange(1, n + 1), size=3, replace=False)
            gates.append(C3(int(c), int(t1), int(t2)))
    return OperatorProgram(n, tuple(gates))


_SWAP = np.eye(4)[[0, 2, 1, 3]]


def heisenberg_reference(amps, gate, sites):
    """Amplitudes of U† O U for O = sum_y a_y P_y, with U the state-space
    `gate` embedded on `sites`, expanded back in the X/Y string basis."""
    n = len(amps).bit_length() - 1
    strings = [
        _pauli_string("".join("Y" if (y >> i) & 1 else "X" for i in range(n)))
        for y in range(1 << n)
    ]
    u = _embed(gate, list(sites), n)
    op = sum(a * p for a, p in zip(amps, strings))
    conj = u.conj().T @ op @ u
    return np.array([np.trace(p @ conj) / (1 << n) for p in strings])


def random_amplitudes(rng, n, dtype):
    amps = rng.normal(size=1 << n)
    if dtype is complex:
        amps = amps + 1j * rng.normal(size=1 << n)
    return amps


def reference_embed(mat, qubits, n):
    """The bit-loop `_embed`, kept as the reference: each column's bits on
    `qubits` pick the input of `mat`, each output is written back to them."""
    k = len(qubits)
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    for col in range(1 << n):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub_in = 0
        for q in qubits:
            sub_in = (sub_in << 1) | bits[q - 1]
        for sub_out in range(1 << k):
            amp = mat[sub_out, sub_in]
            if amp == 0:
                continue
            nb = list(bits)
            for j, q in enumerate(qubits):
                nb[q - 1] = (sub_out >> (k - 1 - j)) & 1
            row = 0
            for b in nb:
                row = (row << 1) | b
            full[row, col] += amp
    return full


def reference_apply_t(amps, site):
    """The elementwise `apply_t`, kept as the reference: new X slot
    (a0 + a1)/sqrt(2), new Y slot (a1 - a0)/sqrt(2), in place."""
    halves = amps.reshape(-1, 2, 1 << (site - 1))
    a0, a1 = halves[:, 0], halves[:, 1]  # site slot X, site slot Y
    new_a0 = a0 + a1
    a1 -= a0
    a1 *= 1.0 / np.sqrt(2.0)
    np.multiply(new_a0, 1.0 / np.sqrt(2.0), out=a0)


def reference_apply_c3(amps, control, target_1, target_2):
    """The flip `apply_c3`, kept as the reference: on the half where the
    control slot holds Y, flip both target axes and multiply by the sign of
    each flipped string, in place."""
    n = len(amps).bit_length() - 1
    on = [slice(None)] * n
    on[n - control] = slice(1, 2)
    sub = amps.reshape((2,) * n)[tuple(on)]
    axes = (n - target_1, n - target_2)
    sign = np.array([[-1.0, 1.0], [1.0, -1.0]])  # -1 where the target bits are equal
    sub[...] = np.flip(sub, axes) * sign.reshape([2 if j in axes else 1 for j in range(n)])


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_embed_matches_reference_on_every_ordered_subset(n, dtype):
    rng = np.random.default_rng((4, n))
    for k in range(n + 1):
        for qubits in itertools.permutations(range(1, n + 1), k):
            mat = random_amplitudes(rng, 2 * k, dtype).reshape(1 << k, 1 << k)
            got = _embed(mat, list(qubits), n)
            assert got.dtype == complex
            assert np.array_equal(got, reference_embed(mat, list(qubits), n)), qubits


@pytest.mark.parametrize("dtype", [float])
class TestHeisenbergReference:
    """Each gate against explicit conjugation of the operator it encodes."""

    def check(self, rng, n, dtype, method, gate, sites):
        amps = random_amplitudes(rng, n, dtype)
        psi = OperatorWavefunction(n, amps.copy())
        getattr(psi, method)(*sites)
        expected = heisenberg_reference(amps, gate, sites)
        assert psi.amplitudes.dtype == dtype
        assert np.abs(expected.imag).max() < 1e-12  # X/Y strings map to real combinations
        assert np.abs(psi.amplitudes - expected).max() < 1e-12, sites

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_apply_t_every_site(self, n, dtype):
        rng = np.random.default_rng((1, n))
        for site in range(1, n + 1):
            self.check(rng, n, dtype, "apply_t", _T, (site,))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_apply_swap_every_pair(self, n, dtype):
        rng = np.random.default_rng((2, n))
        for pair in itertools.permutations(range(1, n + 1), 2):
            self.check(rng, n, dtype, "apply_swap", _SWAP, pair)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_apply_c3_every_ordered_triple(self, n, dtype):
        rng = np.random.default_rng((3, n))
        c3 = c3_state_space_matrix()
        for triple in itertools.permutations(range(1, n + 1), 3):
            self.check(rng, n, dtype, "apply_c3", c3, triple)


class TestConstruction:
    def test_all_x_two_qubits(self):
        psi = OperatorWavefunction.new_all_x(2)
        assert np.allclose(psi.amplitudes, [1, 0, 0, 0])

    def test_all_x_one_qubit(self):
        psi = OperatorWavefunction.new_all_x(1)
        assert np.allclose(psi.amplitudes, [1, 0])

    def test_product_state_entropy_zero(self):
        psi = OperatorWavefunction.new_all_x(5)
        for p in range(1, 5):
            assert psi.entropy(range(1, p + 1)) == pytest.approx(0.0, abs=1e-12)

    def test_all_x_is_real(self):
        assert OperatorWavefunction.new_all_x(4).amplitudes.dtype == np.float64

    def test_complex_input_is_rejected(self):
        for amps in (np.array([0, 1j]), np.zeros(2, dtype=np.complex64), [1.0, 0j]):
            with pytest.raises(OracleError, match="^amplitudes must be real$"):
                OperatorWavefunction(1, amps)

    def test_float64_input_is_held_without_a_copy(self):
        amps = np.zeros(4)
        assert OperatorWavefunction(2, amps).amplitudes is amps

    @pytest.mark.parametrize("dtype", [np.float32, np.longdouble, bool])
    def test_other_real_input_becomes_float64(self, dtype):
        amps = np.array([1, 0, 0, 0], dtype=dtype)
        psi = OperatorWavefunction(2, amps)
        assert psi.amplitudes.dtype == np.float64
        assert psi.amplitudes.flags.c_contiguous
        assert psi.amplitudes.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_int_input_becomes_float(self):
        psi = OperatorWavefunction(2, np.array([1, 0, 0, 0]))
        assert psi.amplitudes.dtype == np.float64
        psi.apply_t(1)
        assert np.allclose(psi.amplitudes, [1 / np.sqrt(2), -1 / np.sqrt(2), 0, 0])

    def test_qubit_cap(self):
        with pytest.raises(OracleError):
            OperatorWavefunction.new_all_x(MAX_ORACLE_QUBITS + 1)
        with pytest.raises(OracleError):
            OperatorWavefunction.new_all_x(0)

    def test_amplitude_length_must_match(self):
        with pytest.raises(OracleError, match="^amplitude vector has wrong length$"):
            OperatorWavefunction(3, np.zeros(4))


class TestApplyT:
    def test_x_maps_to_x_minus_y(self):
        psi = OperatorWavefunction.new_all_x(1)
        psi.apply_t(1)
        assert np.allclose(psi.amplitudes, [1 / np.sqrt(2), -1 / np.sqrt(2)])

    def test_y_maps_to_x_plus_y(self):
        psi = OperatorWavefunction(1, np.array([0.0, 1.0]))
        psi.apply_t(1)
        assert np.allclose(psi.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_powers_of_the_single_site_map(self):
        # squared: |X> -> -|Y>; fourth power = -identity; eighth = identity
        psi = OperatorWavefunction.new_all_x(1)
        psi.apply_t(1)
        psi.apply_t(1)
        assert np.allclose(psi.amplitudes, [0, -1])
        rng = np.random.default_rng(2)
        amps = rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        psi = OperatorWavefunction(1, amps.copy())
        for _ in range(4):
            psi.apply_t(1)
        assert np.allclose(psi.amplitudes, -amps)
        for _ in range(4):
            psi.apply_t(1)
        assert np.allclose(psi.amplitudes, amps)


    @pytest.mark.parametrize("dtype", [float])
    def test_matches_the_elementwise_reference_at_every_site(self, dtype):
        # sites 1-5, whose windows span at most 32 reals, take the product on
        # rows of 8 to 32 reals, the others the 2x2 product on the (-1, 2,
        # low) view; a state of fewer than 8 reals takes a smaller block, and
        # at n = 16 the rows product runs in blocks
        rng = np.random.default_rng(9)
        for n in [*range(1, 13), 16]:
            for site in range(1, n + 1):
                amps = random_amplitudes(rng, n, dtype)
                psi = OperatorWavefunction(n, amps.copy())
                psi.apply_t(site)
                reference_apply_t(amps, site)
                assert psi.amplitudes.dtype == dtype
                assert np.abs(psi.amplitudes - amps).max() < 1e-12, (n, site)


class TestApplySwap:
    def test_exchanges_basis_labels(self):
        psi = OperatorWavefunction(2, np.array([0.0, 1.0, 0.0, 0.0]))
        psi.apply_swap(1, 2)  # Y1X2 -> X1Y2
        assert np.allclose(psi.amplitudes, [0, 0, 1, 0])

    def test_symmetric_state_unchanged(self):
        amps = np.array([0.5, 0.5, 0.5, 0.5])
        psi = OperatorWavefunction(2, amps.copy())
        psi.apply_swap(1, 2)
        assert np.allclose(psi.amplitudes, amps)

    def test_double_application(self):
        rng = np.random.default_rng(6)
        amps = rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        psi = OperatorWavefunction(3, amps.copy())
        psi.apply_swap(1, 3)
        psi.apply_swap(1, 3)
        assert np.allclose(psi.amplitudes, amps)


class TestApplyC3:
    def test_y_control_string(self):
        psi = OperatorWavefunction(3, np.zeros(8))
        psi.amplitudes[0b001] = 1.0  # Y at site 1
        psi.apply_c3(1, 2, 3)
        expected = np.zeros(8)
        expected[0b111] = -1.0
        assert np.allclose(psi.amplitudes, expected)

    def test_x_control_string_unchanged(self):
        psi = OperatorWavefunction.new_all_x(3)
        psi.apply_c3(1, 2, 3)
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.allclose(psi.amplitudes, expected)

    def test_all_eight_rows_of_the_conjugation_table(self):
        for string, (sign, image) in C3_CONJUGATION_TABLE.items():
            mask = sum(1 << i for i, c in enumerate(string) if c == "Y")
            out_mask = sum(1 << i for i, c in enumerate(image) if c == "Y")
            psi = OperatorWavefunction(3, np.zeros(8))
            psi.amplitudes[mask] = 1.0
            psi.apply_c3(1, 2, 3)
            expected = np.zeros(8)
            expected[out_mask] = sign
            assert np.allclose(psi.amplitudes, expected), string

    @pytest.mark.parametrize("dtype", [float])
    @pytest.mark.parametrize("n", [*range(3, 13), 16])
    def test_matches_the_flip_reference(self, n, dtype):
        # every ordered triple up to n = 7, where sites that are not adjacent
        # are routed through adjacent SWAPs; then every window of three
        # adjacent sites in all 6 orientations, which takes rows of 8 * low
        # reals in blocks, or the (-1, 8, low) view up to the top of the
        # largest state, and a few long-range triples across the whole state
        rng = np.random.default_rng((11, n))
        if n <= 7:
            triples = itertools.permutations(range(1, n + 1), 3)
        else:
            triples = [
                tuple(base + k for k in order)
                for base in range(1, n - 1)
                for order in itertools.permutations(range(3))
            ]
            triples += [(1, n, n // 2), (n, 1, 2), (n // 2, n, 1), (n, n // 2, 1)]
        for triple in triples:
            amps = random_amplitudes(rng, n, dtype)
            psi = OperatorWavefunction(n, amps.copy())
            psi.apply_c3(*triple)
            reference_apply_c3(amps, *triple)
            assert psi.amplitudes.dtype == dtype
            assert np.array_equal(psi.amplitudes, amps), (n, triple)

    def test_decomposes_into_two_controlled_y_maps(self):
        # each map multiplies by ±i, so they run on a plain complex array;
        # their product is real again
        def apply_cy(amps, control, target):
            bc, bt = 1 << (control - 1), 1 << (target - 1)
            idx = np.arange(len(amps))
            on = idx[(idx & bc) != 0]
            phase = np.where((on & bt) != 0, -1j, 1j)
            new = amps.astype(complex)
            new[on ^ bt] = phase * amps[on]
            return new

        rng = np.random.default_rng(10)
        amps = rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        direct = OperatorWavefunction(4, amps.copy())
        direct.apply_c3(2, 4, 1)
        composed = apply_cy(apply_cy(amps, 2, 4), 2, 1)
        assert np.allclose(direct.amplitudes, composed)


class TestApplySteps:
    """`_apply_steps`, the oracle's T + C3 kernel, against `apply_t` then
    `apply_c3` one step at a time, on the steps of `circuit_stream`."""

    @pytest.mark.parametrize("n", [3, 4, 12, 16])
    def test_matches_apply_t_and_apply_c3(self, n):
        # blocks of several sizes, with T and the C3 window at both ends of
        # the state among their steps: the same window products, bit for bit
        rng = np.random.default_rng((12, n))
        steps = list(circuit_stream(rng, n, 200))
        assert {1, n} <= {t for t, *_ in steps}
        assert {1, n - 2} <= {min(c3) for _, *c3 in steps}
        amps = random_amplitudes(rng, n, float)
        blocked, stepped = OperatorWavefunction(n, amps.copy()), OperatorWavefunction(n, amps)
        start = 0
        for count in (0, 1, 2, 7, 150, 0, 40):
            block = steps[start:start + count]
            start += count
            blocked._apply_steps(block)
            for t_site, control, target_1, target_2 in block:
                stepped.apply_t(t_site)
                stepped.apply_c3(control, target_1, target_2)
            assert np.array_equal(blocked.amplitudes, stepped.amplitudes), (n, count)
        assert start == len(steps)


class TestNormAndEntropy:
    def test_norm_preserved_under_random_programs(self):
        rng = np.random.default_rng(13)
        for n in (2, 4, 6):
            psi = OperatorWavefunction.new_all_x(n)
            psi.apply_program(random_program(rng, n, 80))
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-9

    def test_operator_ghz_entropy(self):
        amps = np.zeros(8)
        amps[0b000] = amps[0b111] = 1 / np.sqrt(2)
        psi = OperatorWavefunction(3, amps)
        assert psi.entropy([1]) == pytest.approx(1.0, abs=1e-12)

    def test_k_fold_ghz_blocks(self):
        for k in (1, 2, 3, 4):
            n = 3 * k
            psi = OperatorWavefunction.new_all_x(n)
            psi.apply_program(build_ghz_program(n))
            assert psi.entropy(range(1, k + 1)) == pytest.approx(float(k), abs=1e-9)

    def test_entropy_complement_symmetric(self):
        rng = np.random.default_rng(19)
        psi = OperatorWavefunction.new_all_x(6)
        psi.apply_program(random_program(rng, 6, 60))
        for region in ([1], [2, 4], [1, 5, 6]):
            comp = [s for s in range(1, 7) if s not in region]
            assert psi.entropy(region) == pytest.approx(psi.entropy(comp), abs=1e-9)

    def test_invalid_region(self):
        psi = OperatorWavefunction.new_all_x(3)
        with pytest.raises(OracleError):
            psi.entropy([])
        with pytest.raises(OracleError):
            psi.entropy([1, 2, 3])

    @pytest.mark.parametrize("n", [3, 4, 12])
    def test_region_site_out_of_range(self, n):
        # the lowest bad site in sorted order is named
        psi = OperatorWavefunction.new_all_x(n)
        regions = [([0], 0), ([n + 1], n + 1), ([2, n + 1], n + 1), ([0, n + 1], 0), ([n + 1, 0], 0)]
        for region, bad in regions:
            with pytest.raises(OracleError, match=f"^site {bad} out of range 1..{n}$"):
                psi.entropy(region)

    def test_non_integral_sites_rejected(self):
        psi = OperatorWavefunction.new_all_x(4)
        with pytest.raises(TypeError):
            psi.entropy([1.5, 2.9])
        for sites in ([True, 2], [False]):  # a bool is not read as site 1 or 0
            with pytest.raises(TypeError):
                psi.entropy(sites)


def cut_regions(n):
    """Every prefix, the odd sites, the sites past the half, and every third
    site from site 2: only a prefix is read without a transpose copy."""
    return [list(range(1, p + 1)) for p in range(1, n)] + [
        list(range(1, n + 1, 2)),
        list(range(n // 2 + 1, n + 1)),
        list(range(2, n + 1, 3)),
    ]


class TestEntropyCertificate:
    """The path `entropy` takes: a circuit-evolved state certifies its flat
    spectrum and never reaches the SVD; any other state takes the SVD and
    gets exactly the reference's value."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        return calls

    def test_circuit_states_certify_without_svd(self, svd_calls):
        rng = np.random.default_rng(61)
        states = {"all-X n=5": OperatorWavefunction.new_all_x(5)}
        for n in (4, 6, 8):
            psi = OperatorWavefunction.new_all_x(n)
            psi.apply_program(random_program(rng, n, 60))
            states[f"T/C3/SWAP n={n}"] = psi
        for n in (6, 9, 12):
            psi = OperatorWavefunction.new_all_x(n)
            psi.apply_program(build_ghz_program(n))
            states[f"GHZ n={n}"] = psi
        largest = 0.0
        for name, psi in states.items():
            for region in cut_regions(psi.n_qubits):
                want = svd_entropy_reference(psi, region)
                svd_calls.clear()
                got = psi.entropy(region)
                assert svd_calls == [], (name, region)
                assert abs(got - want) < 1e-9, (name, region)
                largest = max(largest, want)
        assert largest > 2  # some of the states are far from product states

    def test_other_states_take_the_svd(self, svd_calls):
        rng = np.random.default_rng(67)
        n = 6
        ghz = OperatorWavefunction.new_all_x(n)
        ghz.apply_program(build_ghz_program(n))
        unequal = np.zeros(1 << n)
        unequal[0], unequal[-1] = np.sqrt(0.8), np.sqrt(0.2)  # all-X and all-Y
        states = {
            "gaussian": random_amplitudes(rng, n, float),
            "0.8 all-X + 0.2 all-Y": unequal,
            "unnormalized GHZ": 2 * ghz.amplitudes,
        }
        states["gaussian"] /= np.linalg.norm(states["gaussian"])
        for name, amps in states.items():
            psi = OperatorWavefunction(n, amps)
            for region in cut_regions(n):
                want = svd_entropy_reference(psi, region)
                svd_calls.clear()
                assert psi.entropy(region) == want, (name, region)
                assert len(svd_calls) == 1, (name, region)
        binary = -(0.8 * np.log2(0.8) + 0.2 * np.log2(0.2))
        psi = OperatorWavefunction(n, unequal)
        assert psi.entropy([1]) == pytest.approx(binary, abs=1e-12)

    def test_trace_off_by_1e9_takes_the_svd(self, svd_calls):
        # a flat spectrum whose trace misses 1 by more than 1e-12 is no
        # normalized state: it takes the SVD, whose entropy differs
        n = 6
        ghz = OperatorWavefunction.new_all_x(n)
        ghz.apply_program(build_ghz_program(n))
        psi = OperatorWavefunction(n, ghz.amplitudes * np.sqrt(1 + 1e-9))
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes) - (1 + 1e-9)) < 1e-15
        for region in cut_regions(n):
            want = svd_entropy_reference(psi, region)
            svd_calls.clear()
            assert psi.entropy(region) == want, region
            assert len(svd_calls) == 1, region

    def test_n16_realization_certifies_every_sample(self, svd_calls, oracle_entropies):
        config = ExperimentConfig(16, 300, 1, rng_seed=5)
        tableau = run_random_ensemble(config, oracle_check=True)
        assert svd_calls == []
        assert len(oracle_entropies) == 301
        assert np.abs(np.array(oracle_entropies) - tableau.values[:, 0]).max() < 1e-9
        assert tableau.values.max() >= 5


class TestCheckStabilized:
    def test_all_x_state_stabilized_by_z(self):
        psi = OperatorWavefunction.new_all_x(4)
        assert check_stabilized_reference(psi, Stabilizer(4, 0, 0b0001)) == "plus"

    def test_all_x_state_not_stabilized_by_x(self):
        psi = OperatorWavefunction.new_all_x(4)
        sp = Stabilizer(4, 0b0001, 0)
        assert check_stabilized_reference(psi, sp) == "not_stabilized"

    def test_minus_sign_detected(self):
        amps = np.zeros(2)
        amps[1] = 1.0  # the Y string, Z-eigenvalue -1
        psi = OperatorWavefunction(1, amps)
        assert check_stabilized_reference(psi, Stabilizer(1, 0, 1)) == "minus"

    def test_co_evolution_with_tableau(self):
        rng = np.random.default_rng(41)
        for n in (3, 5, 6):
            prog = random_program(rng, n, 100)
            psi = OperatorWavefunction.new_all_x(n)
            psi.apply_program(prog)
            tab = SuperStabilizerTableau.new_all_x(n)
            tab.apply_program(prog)
            for sp in stabilizers(tab):
                assert check_stabilized_reference(psi, sp) in ("plus", "minus")
            for p in range(1, n):
                assert tab.entropy(Region.prefix(p)) == pytest.approx(
                    psi.entropy(range(1, p + 1)), abs=1e-6
                )
            # every nonempty proper subset that is not a prefix
            for mask in range(1, (1 << n) - 1):
                sites = [j + 1 for j in range(n) if (mask >> j) & 1]
                if sites == list(range(1, len(sites) + 1)):
                    continue
                assert tab.entropy(Region(sites)) == pytest.approx(
                    psi.entropy(sites), abs=1e-6
                ), sites

    def test_anticommuting_flip_turns_the_sign(self):
        rng = np.random.default_rng(47)
        seen = set()
        for n in range(1, 9):
            for _ in range(4):
                prog = random_program(rng, n, 30) if n >= 2 else OperatorProgram(1, ())
                psi = OperatorWavefunction.new_all_x(n)
                psi.apply_program(prog)
                tab = SuperStabilizerTableau.new_all_x(n)
                tab.apply_program(prog)
                for sp in stabilizers(tab):
                    # X or Z at a site where sp acts anticommutes with sp, so
                    # it maps psi to a state that sp stabilizes with the
                    # opposite sign
                    j = (sp.x_mask | sp.z_mask).bit_length() - 1
                    z_j = sp.z_mask >> j & 1
                    flip = Stabilizer(n, z_j << j, (1 - z_j) << j)
                    anti = OperatorWavefunction(
                        n, apply_super_pauli_reference(psi.amplitudes, flip)
                    )
                    want = check_stabilized_reference(psi, sp)
                    assert want in ("plus", "minus")
                    assert check_stabilized_reference(anti, sp) == {
                        "plus": "minus", "minus": "plus"
                    }[want]
                    seen.add(want)
                for _ in range(8):
                    x_mask, z_mask = (int(m) for m in rng.integers(0, 1 << n, size=2))
                    sp = Stabilizer(n, x_mask, z_mask)
                    seen.add(check_stabilized_reference(psi, sp))
                    state = OperatorWavefunction(n, rng.normal(size=1 << n))
                    seen.add(check_stabilized_reference(state, sp))
        assert seen == {"plus", "minus", "not_stabilized"}

    def test_noise_past_the_tolerance_breaks_it(self):
        rng = np.random.default_rng(53)
        n = 6
        prog = random_program(rng, n, 40)
        psi = OperatorWavefunction.new_all_x(n)
        psi.apply_program(prog)
        tab = SuperStabilizerTableau.new_all_x(n)
        tab.apply_program(prog)
        signs = [check_stabilized_reference(psi, sp) for sp in stabilizers(tab)]
        assert set(signs) == {"plus", "minus"}
        # the atol of 1e-9 keeps each sign under 1e-10 noise, none at 1e-9
        for scale in (1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-3):
            noise = scale * rng.normal(size=1 << n)
            noisy = OperatorWavefunction(n, psi.amplitudes + noise)
            got = [check_stabilized_reference(noisy, sp) for sp in stabilizers(tab)]
            assert got == (signs if scale < 1e-9 else ["not_stabilized"] * n), scale


class TestVerifyGateTables:
    def test_all_identities_pass(self):
        report = verify_gate_tables()
        assert report["all_passed"] is True
        # 2 T lines + 1 SWAP line + 8 C3 rows + subspace closure
        assert len(report["checks"]) == 12
        for check in report["checks"]:
            assert check["max_deviation"] < 1e-12, check["name"]

    def test_corrupted_c3_convention_fails_named_rows(self):
        # dropping the T^6 factors breaks the signed rows
        cx = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        cz = np.diag([1, 1, 1, -1]).astype(complex)
        wrong = _embed(cx, [2, 1], 3) @ _embed(cx, [3, 1], 3) @ _embed(cz, [1, 2], 3)
        broken = []
        for string, (sign, image) in C3_CONJUGATION_TABLE.items():
            lhs = wrong.conj().T @ _pauli_string(string) @ wrong
            if np.abs(lhs - sign * _pauli_string(image)).max() > 1e-12:
                broken.append(string)
        assert broken  # the report would name these rows

    def test_report_serializes(self, capsys):
        d = verify_gate_tables()
        assert main(["verify", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == d
        assert d["all_passed"] is True
        assert all("name" in c and "max_deviation" in c for c in d["checks"])

    def test_leaking_c3_fails_json_cleanly(self, monkeypatch, capsys):
        # a C3 with weight off the X/Y strings: every C3 row and the closure
        # check fail, and the document still serializes in its key order
        real = c3_state_space_matrix()
        leaky = real @ (np.eye(8) + 1e-3 * _pauli_string("XII"))
        monkeypatch.setattr("super_scrambler.oracle.c3_state_space_matrix", lambda: leaky)
        assert main(["verify", "--json"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        d = json.loads(out)
        assert list(d) == ["all_passed", "checks", "notes"]
        assert d["all_passed"] is False
        assert len(d["checks"]) == 12
        for check in d["checks"]:
            assert list(check) == ["name", "max_deviation", "tolerance", "passed"]
            assert check["passed"] is (check["max_deviation"] < 1e-12)
        closure = d["checks"][-1]
        assert closure["name"] == "C3 conjugation stays in the X/Y string subspace"
        assert closure["passed"] is False
        assert closure["max_deviation"] > 1e-4

    def test_c3_matrix_is_unitary(self):
        c3 = c3_state_space_matrix()
        assert np.allclose(c3 @ c3.conj().T, np.eye(8), atol=1e-12)


class TestGateContracts:
    """Every rejection names the same site with the same message as the
    tableau's, and is raised before any amplitude is touched."""

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
        rng = np.random.default_rng(6)
        psi = OperatorWavefunction(self.N, random_amplitudes(rng, self.N, float))
        before = psi.amplitudes.copy()
        rejected = 0
        for sites in itertools.product(self.SITES, repeat=arity):
            expected = expected_gate_error(sites, self.N, distinct_message, OracleError)
            if expected is None:
                getattr(OperatorWavefunction(self.N, psi.amplitudes.copy()), method)(*sites)
                continue
            error, message = expected
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                getattr(psi, method)(*sites)
            assert np.array_equal(psi.amplitudes, before), (method, sites)
            rejected += 1
        assert rejected == len(self.SITES) ** arity - {1: 4, 2: 12, 3: 24}[arity]

    @pytest.mark.parametrize("gate", [None, "T 1", (5,)])
    def test_non_gate_is_type_error(self, gate):
        # a plain tuple equals the NamedTuple T(5) but is still no gate
        psi = OperatorWavefunction.new_all_x(5)
        with pytest.raises(TypeError, match="not a super-gate"):
            psi.apply_gate(gate)
        assert np.array_equal(psi.amplitudes, OperatorWavefunction.new_all_x(5).amplitudes)


def simulator_state(sim):
    """The whole state of either simulator, as a value that `==` compares."""
    if isinstance(sim, OperatorWavefunction):
        return sim.amplitudes.tolist()
    return sim.x, sim.z


@pytest.mark.parametrize("simulator", [OperatorWavefunction, SuperStabilizerTableau])
def test_each_public_gate_checks_its_sites_once(simulator, monkeypatch):
    # each public gate calls `_check_site` once, with its sites in argument
    # order; the oracle's entropy tests valid regions inline, and each
    # simulator's `_apply_steps` takes `circuit_stream`'s checked steps
    # unchecked
    def counting_check_site(self, *sites):
        calls.append(sites)
        check_site(self, *sites)

    n, calls, check_site = 4, [], simulator._check_site
    monkeypatch.setattr(simulator, "_check_site", counting_check_site)
    sim, oracle = simulator.new_all_x(n), simulator is OperatorWavefunction
    for method, arity in (("apply_t", 1), ("apply_swap", 2), ("apply_c3", 3)):
        for sites in itertools.permutations(range(1, n + 1), arity):
            calls.clear()
            getattr(sim, method)(*sites)
            want = [sites]
            if oracle and arity == 3 and max(sites) - min(sites) > 2:
                # the oracle routes a C3 that is not local through the public
                # gates of `localize_c3`, each checked once in turn
                want += [tuple(gate) for gate in localize_c3(C3(*sites), n)]
            assert calls == want, (method, sites)
    calls.clear()
    if oracle:
        for k in range(1, n):
            for region in itertools.combinations(range(1, n + 1), k):
                sim.entropy(region)
    sim._apply_steps(list(circuit_stream(np.random.default_rng(1), n, 50)))
    assert calls == []
    with pytest.raises(simulator.error):
        sim.apply_t(n + 1)
    with pytest.raises(TypeError, match="^gate sites must be integers"):
        sim.apply_c3(1, True, 3)
    assert calls == [(n + 1,), (1, True, 3)]


@pytest.mark.parametrize("simulator", [OperatorWavefunction, SuperStabilizerTableau])
def test_numpy_integer_sites_act_as_ints(simulator):
    # each kind of gate, a local C3 and two that the oracle localizes among
    # them, on sites of two numpy integer types and on ints
    n = 6
    gates = [("apply_t", (1,)), ("apply_t", (6,)), ("apply_swap", (2, 5)),
             ("apply_c3", (3, 2, 4)), ("apply_c3", (1, 6, 3)), ("apply_c3", (6, 4, 5))]
    with_ints, with_numpy = simulator.new_all_x(n), simulator.new_all_x(n)
    for k, (method, sites) in enumerate(gates * 2):
        kind = (np.int64, np.int32)[k % 2]
        getattr(with_ints, method)(*sites)
        getattr(with_numpy, method)(*map(kind, sites))
        assert simulator_state(with_numpy) == simulator_state(with_ints), (method, sites)
