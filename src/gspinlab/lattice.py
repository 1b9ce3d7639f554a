"""Exact integer-matrix algebra and finitely generated abelian groups.

Everything runs on Python's arbitrary-precision integers; there is no
floating point anywhere. The Smith normal form is the single engine behind
the lattice computations used by the rest of the package: cokernels give
centers and component groups, saturated kernels give sublattices such as
orthogonal complements of a similitude character.

Pivoting is deterministic (smallest absolute value, ties broken by lowest
row then lowest column index) so that golden tests are reproducible. The
pivot search stops at the first entry of absolute value 1, which that rule
always picks, and a unit pivot skips the divisibility scan. The reduction
runs on one augmented matrix: each row of m is extended by its row of the
identity, which becomes U, and the rows of an identity stacked below
become V. A row operation rewrites a whole row, so it carries U along; a
column operation runs down the column, so it carries V along. Pivot
search and divisibility scan read m's block only. U and V are not unique,
and kernel bases and solutions are read from them, so the sequence of row
and column operations is part of the contract (``tests/test_lattice.py``
pins its output).

Each ``IntMatrix`` stores its reduction when first asked for it: one
stored reduction per matrix shared by kernel, solve, cokernel and rank.
Cokernel and rank read only the diagonal, which is unique: they read the
stored triple when there is one, and otherwise run the same elimination
with U and V left out, storing nothing.

The constructor keeps a row whose entries are all exact ``int`` as given
and passes any other entry through ``int()``. The library's own results
(the Smith triple, identities, products, transposes and kernel bases) are
tuples of exact ints already, so they are built by ``_trusted``, which
sets the slots without checking them.
"""
from __future__ import annotations

from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple

Vector = Tuple[int, ...]

_EXACT_INT = frozenset((int,))


class IntMatrix:
    """Immutable dense integer matrix, row-major."""

    __slots__ = ("rows", "cols", "_data", "_snf")

    def __init__(self, data: Sequence[Sequence[int]], cols: Optional[int] = None):
        nrows = len(data)
        if nrows:
            width = len(data[0]) if cols is None else cols
        elif cols is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        else:
            width = cols
        cells = []
        for row in data:
            if len(row) != width:
                raise ValueError("ragged rows in matrix data")
            if _EXACT_INT.issuperset(map(type, row)):
                cells.append(tuple(row))
            else:
                cells.append(tuple(int(x) for x in row))
        object.__setattr__(self, "rows", nrows)
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_data", tuple(cells))

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return _trusted(tuple(map(tuple, _unit_rows(n))), n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        if columns:
            nrows = len(columns[0])
        elif rows is None:
            raise ValueError("a matrix with no columns needs an explicit row count")
        else:
            nrows = rows
        return cls([[col[i] for col in columns] for i in range(nrows)], cols=len(columns))

    def entry(self, i: int, j: int) -> int:
        return self._data[i][j]

    def row(self, i: int) -> Vector:
        return self._data[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self._data)

    def iter_rows(self) -> Iterable[Vector]:
        return iter(self._data)

    def to_rows(self) -> List[List[int]]:
        return [list(r) for r in self._data]

    def columns(self) -> List[Vector]:
        if not self.rows:
            return [()] * self.cols
        return list(zip(*self._data))

    def transpose(self) -> "IntMatrix":
        return _trusted(tuple(self.columns()), self.rows)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        ocols = other.columns()
        return _trusted(
            tuple([tuple([sum(map(mul, row, col)) for col in ocols]) for row in self._data]),
            other.cols,
        )

    def apply(self, vec: Sequence[int]) -> Vector:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(sum(map(mul, row, vec)) for row in self._data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_rows()!r})"

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


_new = object.__new__
_set_rows = IntMatrix.rows.__set__
_set_cols = IntMatrix.cols.__set__
_set_data = IntMatrix._data.__set__


def _trusted(data: Tuple[Vector, ...], cols: int) -> IntMatrix:
    """An IntMatrix on rows the library made: a tuple of ``cols``-long tuples of ints.

    Nothing is checked, so only the library's own results come here; data
    from outside goes through ``IntMatrix(...)``.
    """
    m = _new(IntMatrix)
    _set_rows(m, len(data))
    _set_cols(m, cols)
    _set_data(m, data)
    return m


def _unit_rows(n: int) -> List[List[int]]:
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        rows.append(row)
    return rows


def smith_normal_form(m: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U*m*V = D, U and V unimodular, D diagonal.

    The diagonal entries are nonnegative and satisfy d1 | d2 | ... . Each
    matrix is reduced once; later calls on the same object return the
    stored triple.
    """
    snf = getattr(m, "_snf", None)
    if snf is None:
        snf = _smith(m)
        object.__setattr__(m, "_snf", snf)
    return snf


def _smith(
    m: IntMatrix, track: bool = True
) -> Tuple[Optional[IntMatrix], IntMatrix, Optional[IntMatrix]]:
    """The reduction behind ``smith_normal_form``; U and V are None unless track."""
    nr, nc = m.rows, m.cols
    a = m.to_rows()
    if track:
        # [m | I] over [I]: row operations carry U, column operations carry V
        a = [row + unit for row, unit in zip(a, _unit_rows(nr))] + _unit_rows(nc)
    # Rows above t are zero from column t on, so column operations skip them.
    t = 0
    lim = min(nr, nc)
    while t < lim:
        # deterministic pivot: smallest |entry|, ties by lowest row then
        # column; nothing beats an entry of absolute value 1
        bi = bj = -1
        bv = 0
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                x = row[j]
                if x and (bi < 0 or abs(x) < bv):
                    bi, bj, bv = i, j, abs(x)
                    if bv == 1:
                        break
            if bv == 1:
                break
        if bi < 0:
            break
        a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for r in a[t:]:
                r[t], r[bj] = r[bj], r[t]
        while True:
            dirty = False
            for i in range(t + 1, nr):
                x = a[i][t]
                if x:
                    q = x // a[t][t]
                    if q:
                        a[i] = [y - q * z for y, z in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, nc):
                x = a[t][j]
                if x:
                    q = x // a[t][t]
                    if q:
                        for r in a[t:]:
                            r[j] -= q * r[t]
                    if a[t][j]:
                        for r in a[t:]:
                            r[t], r[j] = r[j], r[t]
                        dirty = True
            # a clean round leaves row t and column t zero off the pivot
            if not dirty:
                break
        # the pivot must divide the remaining block (a unit always does)
        p = a[t][t]
        if p != 1 and p != -1:
            offender = next(
                (i for i in range(t + 1, nr) if any(x % p for x in a[i][t + 1 : nc])), -1
            )
            if offender >= 0:
                a[t] = [y + z for y, z in zip(a[t], a[offender])]
                continue
        if p < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    if not track:
        return None, _trusted(tuple(map(tuple, a)), nc), None
    top = a[:nr]
    return (
        _trusted(tuple([tuple(row[nc:]) for row in top]), nr),
        _trusted(tuple([tuple(row[:nc]) for row in top]), nc),
        _trusted(tuple(map(tuple, a[nr:])), nc),
    )


def diagonal_of(d: IntMatrix) -> List[int]:
    return [d.entry(i, i) for i in range(min(d.rows, d.cols))]


def _invariants(m: IntMatrix) -> List[int]:
    """The Smith diagonal of m: the stored triple's, else a reduction without U and V."""
    snf = getattr(m, "_snf", None)
    return diagonal_of((snf or _smith(m, False))[1])


def matrix_rank(m: IntMatrix) -> int:
    return sum(1 for x in _invariants(m) if x != 0)


class AbelianGroupStructure:
    """Isomorphism class of a finitely generated abelian group.

    ``torsion`` lists invariant factors d1 | d2 | ..., each >= 2; a factor
    below 2 is refused, so that equality is a canonical-form test.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Iterable[int] = ()):
        if free_rank < 0:
            raise ValueError("negative free rank")
        tor = tuple(map(int, torsion))
        for d in tor:
            if d < 2:
                raise ValueError("torsion invariant factors must be >= 2")
        for a, b in zip(tor, tor[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", tor)

    def __setattr__(self, name, value):
        raise AttributeError("AbelianGroupStructure is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AbelianGroupStructure)
            and self.free_rank == other.free_rank
            and self.torsion == other.torsion
        )

    def __hash__(self) -> int:
        return hash((self.free_rank, self.torsion))

    def torsion_order(self) -> int:
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def two_torsion(self) -> "AbelianGroupStructure":
        """The subgroup of elements x with 2x = 0 (of the torsion part)."""
        return AbelianGroupStructure(0, tuple(2 for d in self.torsion if d % 2 == 0))

    def is_elementary_two_group(self) -> bool:
        return self.free_rank == 0 and all(d == 2 for d in self.torsion)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "1"


def cokernel_structure(m: IntMatrix) -> AbelianGroupStructure:
    """Isomorphism class of Z^rows / (column span of m)."""
    diag = [x for x in _invariants(m) if x != 0]
    return AbelianGroupStructure(m.rows - len(diag), tuple(x for x in diag if x > 1))


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a saturated basis of the integral kernel {v : m v = 0}."""
    _, d, v = smith_normal_form(m)
    r = sum(1 for x in diagonal_of(d) if x != 0)
    return _trusted(tuple([row[r:] for row in v.iter_rows()]), m.cols - r)


def solve_integral(m: IntMatrix, b: Sequence[int]) -> Optional[Vector]:
    """One integral solution x of m x = b, or None when none exists."""
    if len(b) != m.rows:
        raise ValueError("dimension mismatch in solve")
    u, d, v = smith_normal_form(m)
    c = u.apply(b)
    diag = diagonal_of(d)
    r = sum(1 for x in diag if x != 0)
    y = [0] * m.cols
    for j in range(min(m.rows, m.cols)):
        if j < r:
            if c[j] % diag[j]:
                return None
            y[j] = c[j] // diag[j]
        elif c[j]:
            return None
    for j in range(min(m.rows, m.cols), m.rows):
        if c[j]:
            return None
    return v.apply(y)

