"""Exact arithmetic over the Gaussian rationals Q(i), and square matrices.

A scalar ``QI`` is a normalized integer triple (a, b, d) for (a + b*i)/d,
and a ``GaussianMatrix`` is its real and imaginary numerators, two flat
row-major int tuples, over one denominator d; both keep d > 0 and the gcd
of all their ints 1, so equal values have equal fields. Arithmetic,
equality, hashing, sort keys, square roots, parsing and printing all run on
ints: the package never loads ``fractions``. A matrix product skips the
zero entries, so a block-diagonal product costs about what its blocks do,
and reduces once. This field is enough for every group the package touches
(subgroups of SL2(C)^2 and SL4(C) generated by monomial and diagonal
matrices with fourth-root-of-unity entries, and the binary tetrahedral
group with its entries (+-1 +- i)/2), and for the character values of
groups of exponent dividing 4.
"""
from __future__ import annotations

import re
from math import gcd, isqrt, lcm
from typing import Callable, Iterable, List, Optional, Sequence, Tuple


class QI:
    """A Gaussian rational (a + b*i)/d held as a normalized integer triple.

    ``d > 0`` and ``gcd(a, b, d) == 1``, so equal values have equal fields;
    the package's entries are mostly 0 and fourth roots of unity, where
    ``d == 1`` and no gcd is taken. ``QI(re, im)`` takes ints or any
    rationals with ``numerator`` and ``denominator``, such as ``Fraction``.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, re=0, im=0):
        if type(re) is int and type(im) is int:
            return _qi(re, im, 1)
        p, q = re.denominator, im.denominator
        return _qi(re.numerator * q, im.numerator * p, p * q)

    def __setattr__(self, name, value):
        raise AttributeError("QI is immutable")

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

    def sqrt(self) -> Optional["QI"]:
        """A square root in Q(i) when one exists: the one with re > 0, or re = 0 and im >= 0.

        sqrt((a + b*i)/d) = sqrt(a*d + b*d*i)/d, and a Gaussian integer that
        is a square in Q(i) is the square of some x + y*i in Z[i], with
        x^2 = (A + N)/2 and y^2 = (N - A)/2 for A + B*i = a*d + b*d*i and
        N = |A + B*i|.
        """
        d = self.d
        p, q = self.a * d, self.b * d
        n2 = p * p + q * q
        n = isqrt(n2)
        if n * n != n2 or (p + n) % 2:
            return None
        x2, y2 = (n + p) // 2, (n - p) // 2
        x, y = isqrt(x2), isqrt(y2)
        if x * x != x2 or y * y != y2:
            return None
        return _qi(x, -y if q < 0 else y, d)

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

# the literal grammar of ``fractions.Fraction``, quirks included (its
# decimal part also matches a run of the letter d, which int() then
# refuses): sign, digits with single underscores, then a denominator, or a
# decimal part and an exponent. ``re`` compiles it on first use and caches
# it, so importing the module does not.
_RATIONAL = r"""
    \A\s*(?P<sign>[-+]?)(?=\d|\.\d)
    (?P<num>\d*|\d+(_\d+)*)
    (?:
        (?:/(?P<den>\d+(_\d+)*))?
    |
        (?:\.(?P<dec>d*|\d+(_\d+)*))?
        (?:E(?P<exp>[-+]?\d+(_\d+)*))?
    )
    \s*\Z
"""


def _parse_rational(s: str) -> Tuple[int, int]:
    """(numerator, denominator > 0) of a rational literal, as ``Fraction(s)`` reads it."""
    digits = s[1:] if s[:1] in ("+", "-") else s
    if digits.isascii() and digits.isdigit():  # an integer: no regex needed
        return int(s), 1
    m = re.match(_RATIONAL, s, re.VERBOSE | re.IGNORECASE)
    if m is None:  # the messages are Fraction's
        raise ValueError(f"Invalid literal for Fraction: {s!r}")
    num, den = int(m["num"] or "0"), m["den"]
    if den:
        den = int(den)
        if den == 0:
            raise ZeroDivisionError(f"Fraction({-num if m['sign'] == '-' else num}, 0)")
    else:
        den = 1
        if m["dec"]:
            dec = m["dec"].replace("_", "")
            den = 10 ** len(dec)
            num = num * den + int(dec)
        if m["exp"]:
            exp = int(m["exp"])
            if exp >= 0:
                num *= 10**exp
            else:
                den *= 10**-exp
    return (-num if m["sign"] == "-" else num), den


def parse_qi(s: str) -> QI:
    """Parse strings like '1', '-i', '3/2i', '1/2+1/2i', '2-3i'.

    Each part is a ``Fraction`` literal (decimals and exponents too); a bad
    literal raises ValueError, a zero denominator ZeroDivisionError, and
    anything but a string TypeError.
    """
    if not isinstance(s, str):
        raise TypeError(f"Gaussian rational literal must be a string, not {type(s).__name__}")
    t = s.strip().replace(" ", "")
    if not t:
        raise ValueError("empty Gaussian rational literal")
    if "i" not in t:
        a, d = _parse_rational(t)
        return _qi(a, 0, d)
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
        b, e = 1, 1
    elif im_part == "-":
        b, e = -1, 1
    else:
        b, e = _parse_rational(im_part)
    a, d = _parse_rational(re_part) if re_part else (0, 1)
    return _qi(a * e, b * d, d * e)


def _format_rational(a: int, d: int) -> str:
    g = gcd(a, d)
    a, d = a // g, d // g
    return str(a) if d == 1 else f"{a}/{d}"


def format_qi(z: QI) -> str:
    a, b, d = z.a, z.b, z.d
    if not b:
        return _format_rational(a, d)
    mag = "i" if abs(b) == d else _format_rational(abs(b), d) + "i"
    if not a:
        return "-" + mag if b < 0 else mag
    return _format_rational(a, d) + ("-" if b < 0 else "+") + mag


class GaussianMatrix:
    """Immutable square matrix over Q(i): Z[i] numerators over one denominator.

    ``a`` and ``b`` are the real and imaginary numerators, flat row-major
    int tuples of length n*n, over the denominator ``d``; ``d > 0`` and
    ``gcd(d, *a, *b) == 1``, so equal matrices have equal fields and
    ``==`` and ``hash`` compare int tuples. ``entry`` and ``row`` build
    ``QI`` only when asked.
    """

    __slots__ = ("n", "a", "b", "d")

    def __new__(cls, data: Sequence[Sequence[QI]]):
        n = len(data)
        if not n:
            raise ValueError("GaussianMatrix must be at least 1x1, got a 0x0 matrix")
        if any(len(row) != n for row in data):
            raise ValueError("GaussianMatrix must be square")
        cells = [x for row in data for x in row]
        d = lcm(*(x.d for x in cells))
        scaled = [(x.a * (d // x.d), x.b * (d // x.d)) for x in cells]
        return _matrix(n, tuple(x for x, _ in scaled), tuple(y for _, y in scaled), d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "GaussianMatrix":
        return cls.scalar(n, QI(1))

    @classmethod
    def scalar(cls, n: int, z: QI) -> "GaussianMatrix":
        on = range(0, n * n, n + 1)
        return _matrix(
            n,
            tuple(z.a if k in on else 0 for k in range(n * n)),
            tuple(z.b if k in on else 0 for k in range(n * n)),
            z.d,
        )

    @classmethod
    def block_diagonal(cls, *blocks: "GaussianMatrix") -> "GaussianMatrix":
        """diag(*blocks), as SL2 x SL2 sits in SL4; one block is returned as it is.

        The zeros sit at the same places for the same block sizes, so
        ``sort_key`` orders such matrices as the tuples of their blocks."""
        if len(blocks) == 1:
            return blocks[0]
        n = sum(b.n for b in blocks)
        d = lcm(*(b.d for b in blocks))
        real, imag, left = [], [], 0
        for blk in blocks:
            m, s = blk.n, d // blk.d
            before, after = [0] * left, [0] * (n - left - m)
            for k in range(0, m * m, m):
                real += before + [x * s for x in blk.a[k : k + m]] + after
                imag += before + [x * s for x in blk.b[k : k + m]] + after
            left += m
        return _matrix(n, tuple(real), tuple(imag), d)

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence[str]]) -> "GaussianMatrix":
        return cls([[parse_qi(x) for x in row] for row in rows])

    def to_strings(self) -> List[List[str]]:
        return [[format_qi(x) for x in self.row(i)] for i in range(self.n)]

    def entry(self, i: int, j: int) -> QI:
        k = i * self.n + j
        return _qi(self.a[k], self.b[k], self.d)

    def row(self, i: int) -> Tuple[QI, ...]:
        return tuple(self.entry(i, j) for j in range(self.n))

    def __mul__(self, other: "GaussianMatrix") -> "GaussianMatrix":
        n = self.n
        if other.n != n:
            raise ValueError("dimension mismatch")
        xa, xb, ya, yb = self.a, self.b, other.a, other.b
        nn = n * n
        real, imag = [0] * nn, [0] * nn
        for i in range(0, nn, n):
            for k in range(n):
                p, q = xa[i + k], xb[i + k]
                if p or q:
                    kn = k * n
                    for j in range(n):
                        c, e = ya[kn + j], yb[kn + j]
                        if c or e:
                            real[i + j] += p * c - q * e
                            imag[i + j] += p * e + q * c
        return _matrix(n, tuple(real), tuple(imag), self.d * other.d)

    def scale(self, z: QI) -> "GaussianMatrix":
        p, q = z.a, z.b
        return _matrix(
            self.n,
            tuple(p * x - q * y for x, y in zip(self.a, self.b)),
            tuple(p * y + q * x for x, y in zip(self.a, self.b)),
            self.d * z.d,
        )

    def det(self) -> QI:
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

    def inverse(self) -> "GaussianMatrix":
        n = self.n
        aug = [list(self.row(i)) + [QI(1) if i == j else QI(0) for j in range(n)] for i in range(n)]
        a, pivots = gauss_jordan(aug, n, QI.inverse)
        if len(pivots) < n:
            raise ZeroDivisionError("singular matrix")
        return GaussianMatrix([row[n:] for row in a])

    def is_identity(self) -> bool:
        return self == GaussianMatrix.identity(self.n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GaussianMatrix)
            and self.a == other.a
            and self.b == other.b
            and self.d == other.d
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def sort_key(self, den: int) -> Tuple[int, ...]:
        """The numerators over ``den``, a multiple of ``d``, as re, im of each entry in turn.

        Keys over one common ``den`` order matrices exactly as the tuples
        of their entries' (re, im); ``sorted_matrices`` sorts that way."""
        s = den // self.d
        return tuple(v * s for pair in zip(self.a, self.b) for v in pair)

    def __repr__(self) -> str:
        return f"GaussianMatrix({self.to_strings()!r})"


_set_n, _set_ma, _set_mb, _set_md = (
    getattr(GaussianMatrix, f).__set__ for f in GaussianMatrix.__slots__
)


def _matrix(n: int, a: Tuple[int, ...], b: Tuple[int, ...], d: int) -> GaussianMatrix:
    """The matrix with numerators a, b over d > 0, reduced by the common gcd."""
    if d != 1:
        g = gcd(d, *a, *b)
        if g != 1:
            a, b, d = tuple(x // g for x in a), tuple(x // g for x in b), d // g
    m = object.__new__(GaussianMatrix)
    _set_n(m, n)
    _set_ma(m, a)
    _set_mb(m, b)
    _set_md(m, d)
    return m


def sorted_matrices(matrices: Iterable[GaussianMatrix]) -> List[GaussianMatrix]:
    """The matrices in their entries' (re, im) order: keys over the lcm of the denominators."""
    matrices = list(matrices)
    den = lcm(*(m.d for m in matrices))
    return sorted(matrices, key=lambda m: m.sort_key(den))


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
        a[r] = [x * inv if x else x for x in a[r]]
        if reduce:
            a[r] = reduce(a[r])
        for i in range(m):
            f = a[i][c]
            if i != r and f:
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[r])]
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
