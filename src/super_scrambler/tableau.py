"""Super-stabilizer tableau: polynomial-cost simulation of X/Y-string scrambling.

The state is N mutually commuting, independent super-Paulis (the columns of
the 2N x N binary matrix of stabilizer vectors).  It is stored column-major,
one N-bit int per site for the x plane and one for the z plane: bit i of
``x[j]`` is the X-type exponent of stabilizer i at site j+1.  Every
super-gate is then a few swaps and XORs of whole columns.  Signs are not
tracked; they do not affect entanglement.

The entropy of a cut is a GF(2) rank, and the tableau keeps the last
elimination, keyed by the values of its rows.  So the first cut of a state
costs one elimination, and the nested prefix or suffix cuts after it, in
either order, cost about one row pair each; any other cut, or any cut after
a gate or a write to `x` or `z` that changes its rows, starts afresh.  Every
value is the same as a rank from scratch.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from .gf2 import _RankChain, gf2_rank
from .model import (_MAX_QUBITS, GateSimulator, OperatorProgram, Swap, T, _Record,
                    _split_lines, site_indices)


class TableauError(ValueError):
    pass


class Region(_Record):
    """A subset of site indices (1-based).

    `lo` and `hi` hold its lowest and highest site (1 and 0 when it is
    empty); they are slots outside `_fields`, so equality, hash and repr
    see only `sites`.
    """

    __slots__ = ("sites", "lo", "hi")
    _fields = ("sites",)

    def __init__(self, sites: Iterable[int]):
        sites = frozenset(site_indices(sites))
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "lo", min(sites, default=1))
        object.__setattr__(self, "hi", max(sites, default=0))

    @classmethod
    def prefix(cls, p: int) -> "Region":
        if p < 0:
            raise ValueError("prefix size must be non-negative")
        return cls(range(1, p + 1))

    def validate(self, n_qubits: int) -> None:
        """Raise on the lowest site out of 1..n_qubits, if any."""
        if not (1 <= self.lo and self.hi <= n_qubits):
            s = min(s for s in self.sites if not 1 <= s <= n_qubits)
            raise ValueError(f"region site {s} out of range 1..{n_qubits}")

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self) -> Iterator[int]:
        """The sites in increasing order."""
        return iter(sorted(self.sites))


def _transpose(rows: Sequence[int], n: int) -> List[int]:
    """Transpose an n x n bit matrix: bit j of rows[i] becomes bit i of out[j]."""
    # row n-1 first, each row most significant bit first: every n-th char
    # from offset n-1-j is then column j, most significant bit first
    bits = "".join([format(r, f"0{n}b") for r in reversed(rows)])
    return [int(bits[k::n], 2) for k in range(n - 1, -1, -1)]


# The text format of `dumps` and `loads`: label characters by octal digit
# x + 2z, and the per-plane bits of each character
_LABEL_CHAR = str.maketrans("0123", "IXZY")
_DROP_LABEL_CHARS = str.maketrans("", "", "IXZY")
_X_BIT = str.maketrans("IXZY", "0101")
_Z_BIT = str.maketrans("IXZY", "0011")


class SuperStabilizerTableau(GateSimulator):
    """N super-stabilizers evolving under the {T, SWAP, C3} super-gate set."""

    error = TableauError

    def __init__(self, n_qubits: int, x: Sequence[int], z: Sequence[int]):
        """`x[j]`, `z[j]`: the exponents at site j+1, bit i for stabilizer i."""
        if n_qubits < 1:
            raise TableauError("n_qubits must be positive")
        if len(x) != n_qubits or len(z) != n_qubits:
            raise TableauError("expected one x and one z column per site")
        top = 1 << n_qubits
        if not all(0 <= c < top for c in (*x, *z)):
            raise TableauError(f"column out of range for {n_qubits} stabilizers")
        self.n_qubits = n_qubits
        self.x = list(x)
        self.z = list(z)
        self._chain = _RankChain()

    @classmethod
    def new_all_x(cls, n_qubits: int) -> "SuperStabilizerTableau":
        """Tableau for the unentangled all-X string: stabilizer alpha is Z_alpha."""
        return cls(n_qubits, [0] * n_qubits, [1 << j for j in range(n_qubits)])

    # -- gate updates ------------------------------------------------------

    def apply_t(self, site: int) -> None:
        """Exchange the x and z exponents at `site` in every stabilizer."""
        if not 1 <= site <= self.n_qubits:
            self._check_site(site)
        j = site - 1
        self.x[j], self.z[j] = self.z[j], self.x[j]

    def apply_swap(self, site_a: int, site_b: int) -> None:
        """Exchange the (x, z) exponent pairs of two sites."""
        n = self.n_qubits
        if not (1 <= site_a <= n and 1 <= site_b <= n and site_a != site_b):
            self._check_site(site_a, site_b)
        a, b = site_a - 1, site_b - 1
        x, z = self.x, self.z
        x[a], x[b] = x[b], x[a]
        z[a], z[b] = z[b], z[a]

    def apply_c3(self, control: int, target_1: int, target_2: int) -> None:
        """Controlled-Y-pair update of every stabilizer vector, mod 2."""
        n = self.n_qubits
        if not (
            1 <= control <= n and 1 <= target_1 <= n and 1 <= target_2 <= n
            and control != target_1 and control != target_2 and target_1 != target_2
        ):
            self._check_site(control, target_1, target_2)
        c, t1, t2 = control - 1, target_1 - 1, target_2 - 1
        x, z = self.x, self.z
        # the update of `_apply_steps`, line for line
        v = x[c]
        x1, z1 = x[t1], z[t1]
        x2, z2 = x[t2], z[t2]
        z[c] ^= x1 ^ z1 ^ x2 ^ z2
        x[t1] = x1 ^ v
        z[t1] = z1 ^ v
        x[t2] = x2 ^ v
        z[t2] = z2 ^ v

    def apply_program(self, program: OperatorProgram) -> None:
        """Apply the gates in program order (index 0 first).  `OperatorProgram`
        checked each gate's type and sites, so SWAPs and Ts exchange columns
        here unchecked, with no method call; each C3 goes through `apply_c3`."""
        if program.n_qubits != self.n_qubits:
            raise self.error("program/simulator dimension mismatch")
        x, z = self.x, self.z
        for gate in program.gates:
            if type(gate) is Swap:
                a, b = gate[0] - 1, gate[1] - 1
                x[a], x[b] = x[b], x[a]
                z[a], z[b] = z[b], z[a]
            elif type(gate) is T:
                j = gate[0] - 1
                x[j], z[j] = z[j], x[j]
            else:
                self.apply_c3(*gate)

    def _apply_steps(self, steps: Iterable[Tuple[int, int, int, int]]) -> None:
        """`apply_t(t)` then `apply_c3(c, t1, t2)` for each step `(t, c, t1, t2)`,
        unchecked: the steps come from `circuit_stream`, which checks them."""
        x, z = self.x, self.z
        for t, c, t1, t2 in steps:
            t -= 1
            x[t], z[t] = z[t], x[t]
            c -= 1
            t1 -= 1
            t2 -= 1
            # each target column read once: faster than four `^=`
            v = x[c]
            x1, z1 = x[t1], z[t1]
            x2, z2 = x[t2], z[t2]
            z[c] ^= x1 ^ z1 ^ x2 ^ z2
            x[t1] = x1 ^ v
            z[t1] = z1 ^ v
            x[t2] = x2 ^ v
            z[t2] = z2 ^ v

    # -- entropy -----------------------------------------------------------

    def entropy(self, region: Region) -> int:
        """Operator entanglement across `region`: GF(2) rank of the
        region-restricted stabilizer matrix minus the region size.

        The rank is taken over the 2|A| site columns of the smaller side (a
        matrix and its transpose have the same rank).  S(A) = S(A-bar) holds
        for any tableau that passes `check_invariants` (N independent,
        commuting stabilizers: a pure state); `loads` and `new_all_x`
        establish that condition and every gate keeps it.

        The columns go to the tableau's one `_RankChain` site by site (x_j,
        then z_j) from the side's outer end: from site N down when it holds
        site N but not site 1, else from its lowest site up.  So nested
        prefix or suffix cuts of one state share one elimination.  For a
        region that is a block, the side (the block, or the runs below and
        above it) is gathered by list slices; for any other region, site by
        site.
        """
        n = self.n_qubits
        region.validate(n)
        sites, lo, hi = region.sites, region.lo, region.hi
        x, z = self.x, self.z
        # the smaller side (of two halves, the one with site 1, so both calls
        # of a pair rank the same rows)
        small = 2 * len(sites) < n or (2 * len(sites) == n and lo == 1)
        if hi - lo + 1 != len(sites):
            cols = sorted([s - 1 for s in sites]) if small else [
                j for j in range(n) if j + 1 not in sites]
            if cols and cols[0] and cols[-1] == n - 1:
                cols.reverse()
            xs, zs = [x[j] for j in cols], [z[j] for j in cols]
        elif small or lo == 1:
            # one run of 0-based columns [a, b): the block, or the complement
            # of a prefix; from site N down when it holds N but not site 1
            a, b = (lo - 1, hi) if small else (hi, n)
            run = slice(b - 1, a - 1, -1) if a and b == n else slice(a, b)
            xs, zs = x[run], z[run]
        else:
            # the complement of a block: the sites below it, then those above
            xs, zs = x[:lo - 1] + x[hi:], z[:lo - 1] + z[hi:]
        rows = [0] * (2 * len(xs))
        rows[::2] = xs
        rows[1::2] = zs
        return self._chain.rank(rows) - len(xs)

    # -- invariants --------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert mutual commutation and GF(2) independence of the stabilizers."""
        n = self.n_qubits
        # the rows: those `loads` parsed, handed over for this one call, else
        # the columns transposed
        parsed = self.__dict__.pop("_rows", None)
        xs, zs = parsed or (_transpose(self.x, n), _transpose(self.z, n))
        rows = [x | (z << n) for x, z in zip(xs, zs)]
        flipped = [z | (x << n) for x, z in zip(xs, zs)]
        for a, row in enumerate(rows):
            # the symplectic product x_a.z_b + z_a.x_b in one AND and popcount
            for b in range(a + 1, n):
                if (row & flipped[b]).bit_count() & 1:
                    raise TableauError(
                        f"stabilizers {a} and {b} anticommute"
                    )
        if gf2_rank(rows) != n:
            raise TableauError("stabilizers are GF(2)-dependent")

    # -- serialization -----------------------------------------------------

    def dumps(self) -> str:
        """One stabilizer per line over {I, X, Z, Y}, final newline included."""
        # octal digit j*n + i of x + 2z is the label of stabilizer i at site j+1
        n = self.n_qubits
        x, z = (int("".join([format(c, f"0{n}b")[::-1] for c in cols]), 8)
                for cols in (self.x, self.z))
        digits = format(x + 2 * z, f"0{n * n}o").translate(_LABEL_CHAR)
        rows = [digits[i::n] for i in range(n)]
        del digits  # so at most two N^2-char strings are held at once
        return "\n".join(rows + [""])

    @classmethod
    def loads(cls, text: str) -> "SuperStabilizerTableau":
        lines = _split_lines(text)
        if not lines:
            raise TableauError("empty stabilizer dump")
        n = len(lines[0])
        if n == 0:
            raise TableauError("empty stabilizer line")
        if n > _MAX_QUBITS:
            raise TableauError(f"line length {n} is over the limit of {_MAX_QUBITS} qubits")
        if len(lines) != n:
            raise TableauError(f"expected {n} lines of length {n}, got {len(lines)}")
        for i, line in enumerate(lines):
            if len(line) != n:
                raise TableauError(f"line {i + 1}: length {len(line)}, expected {n}")
            bad = line.translate(_DROP_LABEL_CHARS)
            if bad:
                raise TableauError(f"line {i + 1}: bad stabilizer character {bad[0]!r}")
        # reversed, char j*n + k is stabilizer n-1-j at site n-k: every n-th
        # char from n-1-j is then column j, and the n chars from j*n are row
        # n-1-j, each most significant bit first
        labels = "".join(lines)[::-1]
        planes = labels.translate(_X_BIT), labels.translate(_Z_BIT)
        x, z = ([int(plane[n - 1 - j::n], 2) for j in range(n)] for plane in planes)
        tab = cls(n, x, z)
        tab._rows = [[int(plane[k:k + n], 2) for k in range(n * n - n, -1, -n)]
                     for plane in planes]
        del lines, labels, planes  # the check holds no copy of the text
        tab.check_invariants()
        return tab
