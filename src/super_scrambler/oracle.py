"""Dense operator-space oracle: exact evolution for small qubit counts.

The operator wavefunction lives in the 2^N-dimensional space spanned by
X/Y strings; basis index = y_mask with site i at bit i-1.  It is real
(float64) from the all-X start, and the gates act in place on reshaped views
of it.  T, and C3 on three adjacent sites, are one product each with the
gate's real matrix on its window of sites, by one kernel; C3's windows are
read off `C3_CONJUGATION_TABLE`, which `verify_gate_tables` checks, and
`localize_c3` routes any other C3 onto them through adjacent SWAPs.
Each public gate checks its sites once; the random circuit's steps, checked
by `circuit_stream`, run unchecked through `_apply_steps`.  The entropy checks
a region by its ends and reshapes a prefix cut with no transpose or copy.
Exponential cost, capped at 16 qubits; used as ground truth for the tableau.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .model import C3, GateSimulator, localize_c3, site_indices

MAX_ORACLE_QUBITS = 16
_SQRT2 = np.sqrt(2.0)

# Heisenberg action of C3 on 3-site X/Y strings: string -> (sign, image)
C3_CONJUGATION_TABLE: Dict[str, Tuple[int, str]] = {
    "XXX": (1, "XXX"),
    "XXY": (1, "XXY"),
    "XYX": (1, "XYX"),
    "XYY": (1, "XYY"),
    "YXX": (-1, "YYY"),
    "YXY": (1, "YYX"),
    "YYX": (1, "YXY"),
    "YYY": (-1, "YXX"),
}


def _c3_window(control: int, target_1: int, target_2: int) -> np.ndarray:
    """C3 on three adjacent sites as an 8x8 signed permutation: new = M @ old.

    The arguments are the window bits of a string's three slots, so a Y slot
    is a set bit; each row of `C3_CONJUGATION_TABLE` sets M[image, string].
    """
    bits = (control, target_1, target_2)
    m = np.zeros((8, 8))
    for string, (sign, image) in C3_CONJUGATION_TABLE.items():
        out, w = (sum(1 << b for b, c in zip(bits, s) if c == "Y") for s in (image, string))
        m[out, w] = sign
    return m


# each gate's real matrix on its window of adjacent sites, new = M @ old,
# keyed by the gate's sites less the window's lowest: T on the (X, Y) slot
# pair of one site, and C3 in each of its 6 orientations
_WINDOW = {(0,): np.array([[1.0, 1.0], [-1.0, 1.0]]) / _SQRT2}
_WINDOW.update({key: _c3_window(*key) for key in itertools.permutations(range(3))})
# the same maps on rows of at least 8 reals, keyed by (key, low), wherever
# the window spans at most 32 reals: there, products over the (-1, width,
# low) view walk an inner axis too short to be fast
_WINDOW_ROWS = {
    (key, low): np.kron(np.eye(max(1, 8 // (len(m) * low))), np.kron(m.T, np.eye(low)))
    for key, m in _WINDOW.items() for low in (1, 2, 4, 8, 16) if len(m) * low <= 32
}
# the rows product runs in BLAS calls of at most this many reals: a larger
# call can go multithreaded, and on 2 shared cores it then ran 2-5x slower
_BLOCK = 1 << 12


class OracleError(ValueError):
    pass


class OperatorWavefunction(GateSimulator):
    """Dense amplitudes over the X/Y string basis.

    Every gate maps X/Y strings to X/Y strings with real coefficients, so
    the state is one contiguous float64 vector, which the gates update in
    place through reshaped views; axis j of the `(2,)*N` tensor is site N - j.
    """

    error = OracleError
    # bound in this class's own dict, where perfbench's tracer looks it up
    apply_gate = GateSimulator.apply_gate

    def __init__(self, n_qubits: int, amplitudes: np.ndarray):
        if not 1 <= n_qubits <= MAX_ORACLE_QUBITS:
            raise OracleError(f"n_qubits must be in 1..{MAX_ORACLE_QUBITS}")
        if not np.isrealobj(amplitudes):
            raise OracleError("amplitudes must be real")
        amplitudes = np.ascontiguousarray(amplitudes, float)
        if amplitudes.shape != (1 << n_qubits,):
            raise OracleError("amplitude vector has wrong length")
        self.n_qubits = n_qubits
        self.amplitudes = amplitudes

    @classmethod
    def new_all_x(cls, n_qubits: int) -> "OperatorWavefunction":
        """The single string X_1...X_N: amplitude 1 on y_mask = 0."""
        amps = np.zeros(1 << n_qubits)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    def apply_t(self, site: int) -> None:
        """X -> (X - Y)/sqrt(2), Y -> (X + Y)/sqrt(2) at `site`: one matrix product."""
        self._check_site(site)
        self._apply_window(site, (0,))

    def _apply_window(self, base: int, key: Tuple[int, ...]) -> None:
        """Multiply the window of sites from `base` up by `_WINDOW[key]`."""
        amps = self.amplitudes
        low = 1 << (base - 1)  # the amplitudes below the window
        rows_matrix = _WINDOW_ROWS.get((key, low))
        if rows_matrix is not None:
            width = min(len(rows_matrix), amps.size)  # fewer reals: the top-left block
            rows = amps.reshape(-1, min(amps.size, _BLOCK) // width, width)
            rows[...] = rows @ rows_matrix[:width, :width]
        else:
            m = _WINDOW[key]
            window = amps.reshape(-1, len(m), low)
            window[...] = m @ window

    def apply_swap(self, site_a: int, site_b: int) -> None:
        self._check_site(site_a, site_b)
        psi = self.amplitudes.reshape((2,) * self.n_qubits)
        # site s is axis -s; numpy copies an overlapping source before it assigns
        psi[...] = psi.swapaxes(-site_a, -site_b)

    def apply_c3(self, control: int, target_1: int, target_2: int) -> None:
        """Apply Y to both target slots when the control slot holds Y.

        On three adjacent sites this is one product with the window's signed
        permutation, read off `C3_CONJUGATION_TABLE`; other sites are first
        brought together by `localize_c3`'s adjacent SWAPs, and then apart.
        """
        self._check_site(control, target_1, target_2)
        base = min(control, target_1, target_2)
        if max(control, target_1, target_2) - base == 2:
            self._apply_window(base, (control - base, target_1 - base, target_2 - base))
            return
        for gate in localize_c3(C3(control, target_1, target_2), self.n_qubits):
            self.apply_gate(gate)

    def _apply_steps(self, steps: Iterable[Tuple[int, int, int, int]]) -> None:
        """`apply_t(t)` then `apply_c3(c, t1, t2)` for each step `(t, c, t1, t2)`,
        unchecked: `circuit_stream` checks them and puts each C3 on adjacent sites."""
        for t, c, t1, t2 in steps:
            self._apply_window(t, (0,))
            base = min(c, t1, t2)
            self._apply_window(base, (c - base, t1 - base, t2 - base))

    def entropy(self, region: Iterable[int]) -> float:
        """Von Neumann entropy (base 2) across the bipartition `region`."""
        sites = sorted(set(site_indices(region)))
        n = self.n_qubits
        if not sites or len(sites) >= n:
            raise OracleError("region must be a nonempty proper subset")
        if not (1 <= sites[0] and sites[-1] <= n):
            self._check_site(*sites)
        p = len(sites)
        if sites[-1] == p:
            # the prefix 1..p: B then A is the storage order, so no transpose
            m = self.amplitudes.reshape(-1, 1 << p)
        else:
            # B then A, each in axis order, as for a prefix: the order of rows
            # and columns does not change the spectrum
            axes_a, axes_b = _cut_axes(n, sites)
            psi = self.amplitudes.reshape((2,) * n)
            m = psi.transpose(axes_b + axes_a[::-1]).reshape(-1, 1 << p)
        if m.shape[0] > m.shape[1]:
            m = m.T
        rho = m @ m.T
        # A stabilizer state has a flat spectrum. (tr ρ²)² ≤ tr ρ · tr ρ³
        # (Cauchy–Schwarz) is an equality exactly when the nonzero eigenvalues
        # of ρ are equal, and then S = -log2 tr ρ²; any other state takes the SVD.
        # tr ρ is the squared norm, and as ρ is symmetric,
        # tr ρ² = Σ ρ_ij ρ_ij and tr ρ³ = Σ ρ_ij ρ²_ij.
        tr1 = np.vdot(self.amplitudes, self.amplitudes)
        tr2 = np.vdot(rho, rho)
        tr3 = np.vdot(rho, rho @ rho)
        if abs(tr1 - 1.0) <= 1e-12 and tr3 - tr2 * tr2 <= 1e-12 * tr2 * tr2:
            return float(-np.log2(tr2))
        axes_a, axes_b = _cut_axes(n, sites)
        psi = self.amplitudes.reshape((2,) * n).transpose(axes_a + axes_b)
        psi = psi.reshape(1 << p, -1)
        sv = np.linalg.svd(psi, compute_uv=False)
        probs = sv**2
        probs = probs[probs > 1e-15]
        return float(-np.sum(probs * np.log2(probs)))


def _cut_axes(n: int, sites: List[int]) -> Tuple[List[int], List[int]]:
    """The axes of `sites` in the `(2,)*n` tensor, one per site in its order
    (axis j is site n - j), and the other axes in ascending order."""
    axes_a = [n - s for s in sites]
    return axes_a, [j for j in range(n) if j not in axes_a]


# -- gate-algebra verification ---------------------------------------------

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_T = np.diag([1.0, np.exp(1j * np.pi / 4)])

def _kron(*mats: np.ndarray) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def _pauli_string(label: str) -> np.ndarray:
    table = {"I": _I2, "X": _X, "Y": _Y, "Z": _Z}
    return _kron(*(table[c] for c in label))


def _embed(mat: np.ndarray, qubits: List[int], n: int) -> np.ndarray:
    """Embed a k-qubit matrix acting on `qubits` (1-based, qubit 1 = most
    significant slot) into an n-qubit matrix."""
    full = np.kron(mat, np.eye(1 << (n - len(qubits)), dtype=complex))
    # as a (2,)*2n tensor, `full` has out bits then in bits, each ordered as
    # `qubits` followed by the other qubits in increasing order
    order = list(qubits) + [q for q in range(1, n + 1) if q not in qubits]
    axes = np.argsort(order)
    full = full.reshape((2,) * (2 * n)).transpose([*axes, *(axes + n)])
    return full.reshape(1 << n, 1 << n)


def c3_state_space_matrix() -> np.ndarray:
    """8x8 matrix of the three-qubit gate CX_21 CX_31 CZ_12 T1^6 T2^6.

    The product is read left to right as ordinary matrix multiplication;
    the factors commute well enough that the right-to-left reading gives
    the same conjugation table.
    """
    cx = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    t6 = np.linalg.matrix_power(_T, 6)
    return (
        _embed(cx, [2, 1], 3)
        @ _embed(cx, [3, 1], 3)
        @ _embed(cz, [1, 2], 3)
        @ _embed(t6, [1], 3)
        @ _embed(t6, [2], 3)
    )


def verify_gate_tables() -> dict:
    """Verify the state-space gate algebra that underpins the super-gate set.

    Checks the T-gate conjugation of X and Y, the SWAP string exchange,
    and all 8 signed rows of the C3 conjugation table built from the
    CX/CZ/T factorization; also confirms C3 conjugation never leaves the
    X/Y string subspace.  Each deviation must be below 1e-12.  Returns the
    `verify --json` document, in plain Python values.
    """
    tolerance = 1e-12
    deviations = []  # (name, max deviation), one per check in order

    def check(name: str, lhs: np.ndarray, rhs: np.ndarray) -> None:
        deviations.append((name, float(np.abs(lhs - rhs).max())))

    check("T† X T = (X - Y)/√2", _T.conj().T @ _X @ _T, (_X - _Y) / _SQRT2)
    check("T† Y T = (X + Y)/√2", _T.conj().T @ _Y @ _T, (_X + _Y) / _SQRT2)

    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    check(
        "SWAP† X₁Y₂ SWAP = Y₁X₂",
        swap.conj().T @ _pauli_string("XY") @ swap,
        _pauli_string("YX"),
    )

    c3 = c3_state_space_matrix()
    for string, (sign, image) in C3_CONJUGATION_TABLE.items():
        check(
            f"C3† {string} C3 = {'-' if sign < 0 else '+'}{image}",
            c3.conj().T @ _pauli_string(string) @ c3,
            sign * _pauli_string(image),
        )

    # Subspace closure: expand each conjugated X/Y string in the Pauli basis
    # and confirm no weight outside X/Y strings.
    labels = ["".join(p) for p in itertools.product("IXYZ", repeat=3)]
    leak = 0.0
    for string in C3_CONJUGATION_TABLE:
        conj = c3.conj().T @ _pauli_string(string) @ c3
        for label in labels:
            coeff = np.trace(_pauli_string(label).conj().T @ conj) / 8
            if abs(coeff) > tolerance and any(c in "IZ" for c in label):
                leak = max(leak, abs(coeff))
    deviations.append(("C3 conjugation stays in the X/Y string subspace", float(leak)))
    checks = [{"name": name, "max_deviation": dev, "tolerance": tolerance,
               "passed": dev < tolerance} for name, dev in deviations]
    return {
        "all_passed": all(c["passed"] for c in checks),
        "checks": checks,
        "notes": [
            "C3 factorization read as a left-to-right matrix product; the "
            "reversed reading yields the same conjugation table."
        ],
    }
