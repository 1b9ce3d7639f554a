import itertools
import random
from fractions import Fraction

import pytest

from gspinlab.gaussian import (
    QI,
    GaussianMatrix,
    _qi,
    format_qi,
    gauss_jordan,
    nullspace,
    parse_qi,
    qi_nullspace,
    sorted_matrices,
)

# a prime above the Hadamard bound of every minor of the matrices below, so
# ranks over F_P and over Q(i) agree
P = 2**31 - 1


def _modp_inverse(x):
    return pow(x, P - 2, P)


def _modp_reduce(row):
    return [x % P for x in row]


def _random_low_rank(rng, m, n):
    # product of m x r and r x n factors with entries in [-2, 2]: rank <= r
    r = rng.randint(0, min(m, n))
    left = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(m)]
    right = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
    return [[sum(left[i][t] * right[t][j] for t in range(r)) for j in range(n)] for i in range(m)]


def test_parse_format_roundtrip():
    for s in ["0", "1", "-1", "i", "-i", "3i", "1/2", "-2/3", "1/2+1/2i", "2-3i", "-1/2-1/2i"]:
        z = parse_qi(s)
        assert parse_qi(format_qi(z)) == z


def test_parse_values():
    assert parse_qi("1/2+1/2i") == QI(Fraction(1, 2), Fraction(1, 2))
    assert parse_qi("-i") == QI(0, -1)
    assert parse_qi("2-3i") == QI(2, -3)
    with pytest.raises(ValueError):
        parse_qi("ii")


def test_arithmetic():
    z = QI(1, 1)
    assert z * z == QI(0, 2)
    assert (z * z.inverse()) == QI(1)
    assert QI(0, 1) * QI(0, 1) == QI(-1)
    assert QI(3, 4) * QI(3, -4) == QI(25)


def test_sqrt_examples():
    assert QI(-1).sqrt() == QI(0, 1)
    assert QI(0, 2).sqrt() in (QI(1, 1), QI(-1, -1))
    assert QI(Fraction(9, 4)).sqrt() == QI(Fraction(3, 2))
    assert QI(3).sqrt() is None
    assert QI(-5, 12).sqrt() in (QI(2, 3), QI(-2, -3))
    assert QI(1, 1).sqrt() is None  # norm 2 is not a rational square


def test_sqrt_random_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        w = QI(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
               Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        z = w * w
        r = z.sqrt()
        assert r is not None
        assert r * r == z


def test_matrix_inverse_and_det():
    m = GaussianMatrix.from_strings([["i", "1"], ["0", "-i"]])
    assert m.det() == QI(1)
    assert m * m.inverse() == GaussianMatrix.identity(2)
    sing = GaussianMatrix.from_strings([["1", "1"], ["1", "1"]])
    assert sing.det() == QI(0)
    with pytest.raises(ZeroDivisionError):
        sing.inverse()
    with pytest.raises(ValueError, match="^GaussianMatrix must be at least 1x1, got a 0x0 matrix$"):
        GaussianMatrix.from_strings([])
    with pytest.raises(ValueError, match="^GaussianMatrix must be square$"):
        GaussianMatrix.from_strings([[]])


def test_block_diagonal_products_and_order():
    a = GaussianMatrix.from_strings([["i", "0"], ["0", "-i"]])
    b = GaussianMatrix.from_strings([["0", "1"], ["-1", "0"]])
    i2 = GaussianMatrix.identity(2)
    d = GaussianMatrix.block_diagonal
    assert d(a) is a
    assert d(a, b).to_strings() == [
        ["i", "0", "0", "0"],
        ["0", "-i", "0", "0"],
        ["0", "0", "0", "1"],
        ["0", "0", "-1", "0"],
    ]
    assert d(i2, i2, i2) == GaussianMatrix.identity(6)
    pairs = [(x, y) for x in (a, b, i2, a * b) for y in (a, b, i2.scale(QI(-1)))]
    for (x, y), (u, v) in itertools.product(pairs, repeat=2):
        assert d(x, y) * d(u, v) == d(x * u, y * v)
        assert (d(x, y) == d(u, v)) == ((x, y) == (u, v))
    # sorted as the tuples of their blocks, key by key
    tuple_order = sorted(pairs, key=lambda p: (p[0].sort_key(1), p[1].sort_key(1)))
    assert [d(*p) for p in tuple_order] == sorted_matrices(d(*p) for p in pairs)


def test_nullspace():
    rows = [[QI(1), QI(1)], [QI(2), QI(2)]]
    basis = qi_nullspace(rows, 2)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == QI(0)
    # full-rank system has no kernel
    assert qi_nullspace([[QI(1), QI(0)], [QI(0), QI(1)]], 2) == []


def test_elimination_agrees_over_fp_and_qi():
    rng = random.Random(20151008)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = _random_low_rank(rng, m, n)
        qrows = [[QI(x) for x in row] for row in mat]
        _, qpivots = gauss_jordan(qrows, n, QI.inverse)
        _, ppivots = gauss_jordan(mat, n, _modp_inverse, _modp_reduce)
        qnull = qi_nullspace(qrows, n)
        pnull = nullspace(mat, n, _modp_inverse, 1, _modp_reduce)
        assert len(qpivots) == len(ppivots)
        assert len(qnull) == len(pnull)
        assert len(qpivots) + len(qnull) == n
        for v in qnull:
            for row in qrows:
                acc = QI(0)
                for a, x in zip(row, v):
                    acc = acc + a * x
                assert not acc
        for v in pnull:
            assert all(x == x % P for x in v)
            for row in mat:
                assert sum(a * x for a, x in zip(row, v)) % P == 0


def test_elimination_solves_coordinates_mod_p():
    # the eigen-split reads coordinates off [basis^T | targets^T]
    rng = random.Random(1510)
    for _ in range(40):
        k = rng.randint(1, 6)
        while True:
            basis = [[rng.randrange(P) for _ in range(k)] for _ in range(rng.randint(1, k))]
            _, piv = gauss_jordan([list(c) for c in zip(*basis)], len(basis), _modp_inverse, _modp_reduce)
            if len(piv) == len(basis):
                break
        dim = len(basis)
        coords = [[rng.randrange(P) for _ in range(dim)] for _ in range(3)]
        targets = [[sum(c[b] * basis[b][t] for b in range(dim)) % P for t in range(k)] for c in coords]
        aug = [[vec[t] for vec in basis] + [tg[t] for tg in targets] for t in range(k)]
        red, pivots = gauss_jordan(aug, dim, _modp_inverse, _modp_reduce)
        assert pivots == list(range(dim))
        for j, c in enumerate(coords):
            assert [red[b][dim + j] for b in range(dim)] == c
        # rows past the basis rank carry no leftover: the targets lie in the span
        assert all(not any(row) for row in red[dim:])


def test_matrix_product_matches_entrywise_sums():
    # the product sums on integers over a common denominator; the reference
    # sums QI products one at a time
    rng = random.Random(404)
    for _ in range(40):
        n = rng.randint(1, 4)

        def entry():
            return QI(Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 6])),
                      Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 4])))

        x = GaussianMatrix([[entry() for _ in range(n)] for _ in range(n)])
        y = GaussianMatrix([[entry() for _ in range(n)] for _ in range(n)])
        want = []
        for i in range(n):
            row = []
            for j in range(n):
                s = QI(0)
                for k in range(n):
                    s = s + x.entry(i, k) * y.entry(k, j)
                row.append(s)
            want.append(row)
        assert x * y == GaussianMatrix(want)
        if x.det():
            assert x * x.inverse() == GaussianMatrix.identity(n)
        half = GaussianMatrix.scalar(n, QI(Fraction(1, 2)))
        assert half != GaussianMatrix.identity(n)
        assert half * GaussianMatrix.scalar(n, QI(2)) == GaussianMatrix.identity(n)


# The determinant by Gaussian elimination over Q(i) that Bareiss elimination
# replaced, kept verbatim as the oracle.
def elimination_det(self) -> QI:
    """det(N / d) = det(N) / d^n, eliminating on the numerators N."""
    n = self.n
    nums = [QI(x, y) for x, y in zip(self.a, self.b)]
    a = [nums[k : k + n] for k in range(0, n * n, n)]
    out = QI(1)
    for k in range(n):
        piv = -1
        for i in range(k, n):
            if a[i][k]:
                piv = i
                break
        if piv < 0:
            return QI(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            out = -out
        out = out * a[k][k]
        inv = a[k][k].inverse()
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                for j in range(k, n):
                    a[i][j] = a[i][j] - f * a[k][j]
    return _qi(out.a, out.b, out.d * self.d**n)


def _det_cell(rng):
    """A numerator: zero and units, as in the package's matrices, force row swaps."""
    r = rng.random()
    if r < 0.4:
        return 0, 0
    if r < 0.6:
        return rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
    return rng.randint(-5, 5), rng.randint(-5, 5)


def test_bareiss_det_matches_elimination_over_q_i():
    rng = random.Random(2029)
    zeros = 0
    for _ in range(20000):
        n, d = rng.randint(1, 5), rng.choice((1, 2, 3, 4))
        cells = [_det_cell(rng) for _ in range(n * n)]
        if n > 1 and rng.random() < 0.2:  # a repeated row
            i, j = rng.sample(range(n), 2)
            cells[j * n : j * n + n] = cells[i * n : i * n + n]
        rows = [cells[k : k + n] for k in range(0, n * n, n)]
        m = GaussianMatrix([[QI(Fraction(x, d), Fraction(y, d)) for x, y in row] for row in rows])
        got, want = m.det(), elimination_det(m)
        assert (got.a, got.b, got.d) == (want.a, want.b, want.d), (cells, d)
        zeros += not got
    assert 4000 < zeros < 16000
