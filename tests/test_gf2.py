import numpy as np

from super_scrambler.gf2 import gf2_rank


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
