"""Exact arithmetic over the Gaussian rationals Q(i), and square matrices.

Each entry is a normalized integer triple (a, b, d) for (a + b*i)/d, with
d > 0 and gcd(a, b, d) = 1, so arithmetic, equality and hashing run on
ints; ``re`` and ``im`` give the components as ``fractions.Fraction`` for
parsing, printing, square roots and sort keys. A matrix product sums each
entry on integers over a common denominator and reduces it once. This field
is enough for every group the package touches (subgroups of SL2(C)^2 and
SL4(C) generated by monomial and diagonal matrices with fourth-root-of-unity
entries), and for the character values of groups of exponent dividing 4.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, List, Optional, Sequence, Tuple


def _frac_sqrt(x: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


class QI:
    """A Gaussian rational (a + b*i)/d held as a normalized integer triple.

    ``d > 0`` and ``gcd(a, b, d) == 1``, so equal values have equal fields;
    the package's entries are mostly 0 and fourth roots of unity, where
    ``d == 1`` and no gcd is taken. ``re`` and ``im`` give the components as ``Fraction``.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, re=0, im=0):
        if type(re) is int and type(im) is int:
            return _qi(re, im, 1)
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        return _qi(re.numerator * q, im.numerator * p, p * q)

    def __setattr__(self, name, value):
        raise AttributeError("QI is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other: "QI") -> "QI":
        d, e = self.d, other.d
        if d == e:
            return _qi(self.a + other.a, self.b + other.b, d)
        return _qi(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other: "QI") -> "QI":
        d, e = self.d, other.d
        if d == e:
            return _qi(self.a - other.a, self.b - other.b, d)
        return _qi(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __mul__(self, other: "QI") -> "QI":
        a, b, c, e = self.a, self.b, other.a, other.b
        return _qi(a * c - b * e, a * e + b * c, self.d * other.d)

    def __neg__(self) -> "QI":
        return _qi(-self.a, -self.b, self.d)

    def inverse(self) -> "QI":
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _qi(d * a, -d * b, n)

    def conj(self) -> "QI":
        return _qi(self.a, -self.b, self.d)

    def norm2(self) -> Fraction:
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QI)
            and self.a == other.a
            and self.b == other.b
            and self.d == other.d
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def sort_key(self) -> tuple:
        """(re, im), ordered lexicographically; plain ints when d == 1."""
        if self.d == 1:
            return (self.a, self.b)
        return (self.re, self.im)

    def sqrt(self) -> Optional["QI"]:
        """A square root in Q(i) when one exists, sign-normalized."""
        a, b = self.re, self.im
        if b == 0:
            r = _frac_sqrt(a)
            if r is not None:
                return QI(r)
            r = _frac_sqrt(-a)
            if r is not None:
                return QI(0, r)
            return None
        n = _frac_sqrt(a * a + b * b)
        if n is None:
            return None
        x = _frac_sqrt((a + n) / 2)
        if x is None or x == 0:
            return None
        y = b / (2 * x)
        root = QI(x, y)
        return root if root.sort_key() > (-root).sort_key() else -root

    def __repr__(self) -> str:
        return f"QI({format_qi(self)!r})"


_set_a, _set_b, _set_d = QI.a.__set__, QI.b.__set__, QI.d.__set__


def _qi(a: int, b: int, d: int) -> QI:
    """The QI (a + b*i)/d for d > 0, reduced by the common gcd."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    z = object.__new__(QI)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


FOURTH_ROOTS = (QI(1), QI(0, 1), QI(-1), QI(0, -1))


def parse_qi(s: str) -> QI:
    """Parse strings like '1', '-i', '3/2i', '1/2+1/2i', '2-3i'."""
    t = s.strip().replace(" ", "")
    if not t:
        raise ValueError("empty Gaussian rational literal")
    if "i" not in t:
        return QI(Fraction(t))
    body = t[: t.rindex("i")]
    tail = t[t.rindex("i") + 1 :]
    if tail:
        raise ValueError(f"bad Gaussian rational literal {s!r}")
    # split real and imaginary parts on the last +/- that is not leading
    split = -1
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/":
            split = k
            break
    if split < 0:
        re_part, im_part = "0", body
    else:
        re_part, im_part = body[:split], body[split:]
    if im_part in ("", "+"):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = Fraction(im_part)
    return QI(Fraction(re_part) if re_part else Fraction(0), im)


def format_qi(z: QI) -> str:
    if z.im == 0:
        return str(z.re)
    if z.re == 0:
        if z.im == 1:
            return "i"
        if z.im == -1:
            return "-i"
        return f"{z.im}i"
    sign = "+" if z.im > 0 else "-"
    mag = abs(z.im)
    istr = "i" if mag == 1 else f"{mag}i"
    return f"{z.re}{sign}{istr}"


class GaussianMatrix:
    """Immutable square matrix over Q(i)."""

    __slots__ = ("n", "_data")

    def __init__(self, data: Sequence[Sequence[QI]]):
        n = len(data)
        cells = []
        for row in data:
            if len(row) != n:
                raise ValueError("GaussianMatrix must be square")
            cells.append(tuple(row))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_data", tuple(cells))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "GaussianMatrix":
        return cls([[QI(1) if i == j else QI(0) for j in range(n)] for i in range(n)])

    @classmethod
    def scalar(cls, n: int, z: QI) -> "GaussianMatrix":
        return cls([[z if i == j else QI(0) for j in range(n)] for i in range(n)])

    @classmethod
    def block_diagonal(cls, *blocks: "GaussianMatrix") -> "GaussianMatrix":
        """diag(*blocks), as SL2 x SL2 sits in SL4; one block is returned as it is.

        The zeros sit at the same places for the same block sizes, so
        ``sort_key`` orders such matrices as the tuples of their blocks."""
        if len(blocks) == 1:
            return blocks[0]
        n, left, rows = sum(b.n for b in blocks), 0, []
        for b in blocks:
            rows += [(QI(0),) * left + row + (QI(0),) * (n - left - b.n) for row in b._data]
            left += b.n
        return cls(rows)

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence[str]]) -> "GaussianMatrix":
        return cls([[parse_qi(x) for x in row] for row in rows])

    def to_strings(self) -> List[List[str]]:
        return [[format_qi(x) for x in row] for row in self._data]

    def entry(self, i: int, j: int) -> QI:
        return self._data[i][j]

    def row(self, i: int) -> Tuple[QI, ...]:
        return self._data[i]

    def __mul__(self, other: "GaussianMatrix") -> "GaussianMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        cols = tuple(zip(*other._data))
        return GaussianMatrix([[_dot(row, col) for col in cols] for row in self._data])

    def scale(self, z: QI) -> "GaussianMatrix":
        return GaussianMatrix([[z * x for x in row] for row in self._data])

    def __neg__(self) -> "GaussianMatrix":
        return self.scale(QI(-1))

    def det(self) -> QI:
        n = self.n
        a = [list(row) for row in self._data]
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
        return out

    def inverse(self) -> "GaussianMatrix":
        n = self.n
        aug = [list(row) + [QI(1) if i == j else QI(0) for j in range(n)] for i, row in enumerate(self._data)]
        a, pivots = gauss_jordan(aug, n, QI.inverse)
        if len(pivots) < n:
            raise ZeroDivisionError("singular matrix")
        return GaussianMatrix([row[n:] for row in a])

    def is_identity(self) -> bool:
        for i, row in enumerate(self._data):
            for j, x in enumerate(row):
                if x.b or x.a != (x.d if i == j else 0):
                    return False
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GaussianMatrix)
            and self.n == other.n
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.n, self._data))

    def sort_key(self):
        return tuple(x.sort_key() for row in self._data for x in row)

    def __repr__(self) -> str:
        return f"GaussianMatrix({self.to_strings()!r})"


def _dot(xs: Sequence[QI], ys: Sequence[QI]) -> QI:
    """Sum of x*y over Q(i), accumulated on integers and reduced once."""
    re = im = 0
    den = 1
    for x, y in zip(xs, ys):
        a, b, c, e = x.a, x.b, y.a, y.b
        if (a or b) and (c or e):
            p, q, d = a * c - b * e, a * e + b * c, x.d * y.d
            if d == den:
                re += p
                im += q
            else:
                re, im, den = re * d + p * den, im * d + q * den, den * d
    return _qi(re, im, den)


def gauss_jordan(
    rows: Sequence[Sequence], width: int, inverse: Callable, reduce: Optional[Callable] = None
) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form over a field, pivoting on the first ``width`` columns.

    ``inverse`` inverts a nonzero entry; entries test as zero by truth value.
    ``reduce``, when given, maps a row to canonical representatives (residues
    mod p) and is applied to the input and after every row operation; Q(i)
    needs none. Columns past ``width`` ride along, so augmented matrices give
    inverses and coordinates. Returns the reduced rows and the pivot columns.
    """
    a = [reduce(r) if reduce else list(r) for r in rows]
    m = len(a)
    pivots: List[int] = []
    for c in range(width):
        r = len(pivots)
        if r == m:
            break
        for piv in range(r, m):
            if a[piv][c]:
                break
        else:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = inverse(a[r][c])
        a[r] = [x * inv for x in a[r]]
        if reduce:
            a[r] = reduce(a[r])
        for i in range(m):
            f = a[i][c]
            if i != r and f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                if reduce:
                    a[i] = reduce(a[i])
        pivots.append(c)
    return a, pivots


def nullspace(
    rows: Sequence[Sequence], width: int, inverse: Callable, one, reduce: Optional[Callable] = None
) -> List[list]:
    """Basis of the right nullspace over the field given by ``inverse``, ``one``, ``reduce``.

    Each basis vector has entry ``one`` at its free column and zeros at the
    other free columns; the list is ordered by that column.
    """
    a, pivots = gauss_jordan(rows, width, inverse, reduce)
    zero = one - one
    basis = []
    for fc in range(width):
        if fc in pivots:
            continue
        vec = [zero] * width
        vec[fc] = one
        for prow, pc in enumerate(pivots):
            vec[pc] = -a[prow][fc]
        basis.append(reduce(vec) if reduce else vec)
    return basis


def qi_nullspace(rows: List[List[QI]], width: int) -> List[List[QI]]:
    """Basis of the right nullspace of a Q(i) matrix given as rows (see ``nullspace``)."""
    return nullspace(rows, width, QI.inverse, QI(1))
