import numpy as np

from super_scrambler.gf2 import _RankChain, gf2_rank


def pack_bit_matrix(matrix):
    """Pack a 2D 0/1 array into one int per row, column j at bit j."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("expected a 2D bit matrix")
    rows = []
    for r in matrix:
        row = 0
        for j, v in enumerate(r):
            if v & 1:
                row |= 1 << j
        rows.append(row)
    return rows


def rank_of_bit_matrix(matrix):
    return gf2_rank(pack_bit_matrix(matrix))


def naive_rank(matrix):
    """Per-bit Gaussian elimination, the independent oracle."""
    m = np.array(matrix, dtype=np.uint8) % 2
    rows, cols = m.shape
    rank = 0
    row = 0
    for col in range(cols):
        pivot = None
        for r in range(row, rows):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[row, pivot]] = m[[pivot, row]]
        for r in range(rows):
            if r != row and m[r, col]:
                m[r] ^= m[row]
        rank += 1
        row += 1
        if row == rows:
            break
    return rank


def test_identity_rank():
    n = 37
    assert rank_of_bit_matrix(np.eye(n, dtype=int)) == n


def test_zero_rank():
    assert rank_of_bit_matrix(np.zeros((10, 20), dtype=int)) == 0


def test_random_matches_naive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.integers(0, 2, size=(64, 64))
        assert rank_of_bit_matrix(m) == naive_rank(m)


def unpack_rows(rows):
    """0/1 matrix of integer rows, as wide as the widest row."""
    width = max(rows, default=0).bit_length()
    return np.array([[(r >> j) & 1 for j in range(width)] for r in rows], dtype=int)


def test_edge_inputs_match_naive_oracle():
    assert gf2_rank([]) == 0
    assert gf2_rank(iter([])) == 0
    assert gf2_rank([0, 0, 0]) == 0
    rng = np.random.default_rng(13)
    for _ in range(20):
        # rows of unequal widths, up to well past 64 bits, some all-zero
        widths = rng.integers(0, 200, size=int(rng.integers(1, 40)))
        rows = [int("0" + "".join(map(str, rng.integers(0, 2, size=w))), 2) for w in widths]
        rows += [0, rows[0] ^ rows[-1]]
        want = naive_rank(unpack_rows(rows))
        assert gf2_rank(rows) == want
        assert gf2_rank(r for r in rows) == want
    wide = [1 << 150, (1 << 150) | 1, 1]
    assert gf2_rank(wide) == naive_rank(unpack_rows(wide)) == 2


def test_rectangular_and_dependent_rows():
    rng = np.random.default_rng(5)
    m = rng.integers(0, 2, size=(10, 30))
    m[7] = m[2] ^ m[4]
    m[9] = m[0]
    assert rank_of_bit_matrix(m) == naive_rank(m)


def test_pack_bit_matrix_roundtrip():
    m = np.array([[1, 0, 1], [0, 1, 1]])
    assert pack_bit_matrix(m) == [0b101, 0b110]
    assert gf2_rank([0b101, 0b110]) == 2


def test_chain_extended_by_wider_rows_matches_naive_oracle():
    # one chain fed ever longer prefixes whose new rows are wider each call,
    # so its pivot list grows mid-chain; zero rows lead and sit between calls
    rng = np.random.default_rng(17)
    for _ in range(10):
        chain, rows = _RankChain(), [0]
        assert chain.rank(rows) == 0
        for width in (3, 8, 40, 64, 65, 130):
            rows.append(0)
            for _ in range(int(rng.integers(1, 12))):
                bits = rng.integers(0, 2, size=width - 1)
                rows.append(int("1" + "".join(map(str, bits)), 2))
                if rng.integers(0, 4) == 0:
                    rows.append(rows[int(rng.integers(0, len(rows)))] ^ rows[-1])
            assert chain.rank(list(rows)) == naive_rank(unpack_rows(rows))
            assert len(chain.pivots) == width + 1 and chain.pivots[0] == 0
