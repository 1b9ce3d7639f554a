"""``GaussianMatrix`` against an oracle that keeps a matrix as rows of ``QI``:
products, determinants, equality, hashing and sort order."""
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from gspinlab.gaussian import QI, GaussianMatrix, sorted_matrices

# zeros often, as in monomial and block-diagonal group elements
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
)
ENTRIES = st.builds(QI, RATIONALS, RATIONALS)


def rows_of(n):
    return st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def matrix_rows(draw, n):
    """Rows of QI: dense, or block-diagonal with zeros off the blocks."""
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        top, bottom = draw(rows_of(k)), draw(rows_of(n - k))
        zero = QI(0)
        return [row + [zero] * (n - k) for row in top] + [[zero] * k + row for row in bottom]
    return draw(rows_of(n))


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(1, 4))
    return draw(matrix_rows(n)), draw(matrix_rows(n))


def oracle_product(x, y):
    n = len(x)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            s = QI(0)
            for k in range(n):
                s = s + x[i][k] * y[k][j]
            row.append(s)
        out.append(row)
    return out


def oracle_det(rows):
    """Leibniz's sum over permutations, on QI entries."""
    total = QI(0)
    for perm in permutations(range(len(rows))):
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        term = QI(sign)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def oracle_key(rows):
    """Entries as (re, im) Fractions, row by row: the order matrices sort in."""
    return tuple((Fraction(z.a, z.d), Fraction(z.b, z.d)) for row in rows for z in row)


def entries(m):
    return [[m.entry(i, j) for j in range(m.n)] for i in range(m.n)]


def normalized(m):
    return m.d > 0 and gcd(m.d, *m.a, *m.b) == 1


@settings(derandomize=True, deadline=None, max_examples=150)
@given(matrix_pairs())
def test_product_equality_and_hash_match_entrywise_oracle(pair):
    x_rows, y_rows = pair
    x, y = GaussianMatrix(x_rows), GaussianMatrix(y_rows)
    assert normalized(x) and normalized(y)
    assert entries(x) == x_rows and entries(y) == y_rows
    want = oracle_product(x_rows, y_rows)
    got = x * y
    assert normalized(got)
    assert entries(got) == want
    # the same value built two ways: equal fields, equal hashes
    rebuilt = GaussianMatrix(want)
    assert got == rebuilt and hash(got) == hash(rebuilt)
    assert (x == y) == (x_rows == y_rows)
    assert x.det() == oracle_det(x_rows)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(matrix_rows(n), min_size=1, max_size=6)))
def test_sort_order_matches_entrywise_oracle(rows_list):
    ms = [GaussianMatrix(rows) for rows in rows_list]
    want = sorted(ms, key=lambda m: oracle_key(entries(m)))
    assert sorted_matrices(ms) == want


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(matrix_rows(2), min_size=2, max_size=2), st.lists(matrix_rows(2), min_size=2, max_size=2))
def test_block_diagonal_matches_its_blocks(xs, ys):
    # products and order of diag(x1, x2) follow its blocks
    x1, x2 = (GaussianMatrix(r) for r in xs)
    y1, y2 = (GaussianMatrix(r) for r in ys)
    d = GaussianMatrix.block_diagonal
    assert normalized(d(x1, x2))
    assert d(x1, x2) * d(y1, y2) == d(x1 * y1, x2 * y2)
    by_blocks = sorted([(x1, x2), (y1, y2)], key=lambda p: oracle_key(entries(p[0]) + entries(p[1])))
    assert sorted_matrices([d(x1, x2), d(y1, y2)]) == [d(*p) for p in by_blocks]
