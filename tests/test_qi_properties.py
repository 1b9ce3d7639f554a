"""``QI`` against an oracle that keeps a Gaussian rational as two Fractions."""
from fractions import Fraction
from math import gcd, isqrt

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from gspinlab.gaussian import QI, format_qi, parse_qi

RATIONALS = st.one_of(
    st.integers(-6, 6).map(Fraction),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
)
PAIRS = st.tuples(RATIONALS, RATIONALS)


class Pair:
    """re + im*i with Fraction components: the reference arithmetic."""

    def __init__(self, re, im):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return Pair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Pair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return Pair(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __neg__(self):
        return Pair(-self.re, -self.im)

    def conj(self):
        return Pair(self.re, -self.im)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return Pair(self.re / n, -self.im / n)

    def key(self):
        return (self.re, self.im)


def same(z, p):
    """z equals the oracle value and its triple is normalized."""
    assert z.d > 0 and gcd(z.a, z.b, z.d) == 1
    return (Fraction(z.a, z.d), Fraction(z.b, z.d)) == p.key()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(PAIRS, PAIRS)
def test_qi_matches_fraction_pairs(x, y):
    px, py = Pair(*x), Pair(*y)
    zx, zy = QI(*x), QI(*y)
    assert same(zx, px) and same(zy, py)
    assert same(zx + zy, px + py)
    assert same(zx - zy, px - py)
    assert same(zx * zy, px * py)
    assert same(-zx, -px)
    assert same(QI(x[0], -x[1]), px.conj())
    assert zx * QI(x[0], -x[1]) == QI(px.re**2 + px.im**2)
    assert bool(zx) == (px.key() != (0, 0))
    if zx:
        assert same(zx.inverse(), px.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            zx.inverse()
    assert (zx == zy) == (px.key() == py.key())
    # the same value reached by arithmetic and by construction: equal, same hash
    s = zx + zy
    t = QI(*(px + py).key())
    assert s == t and hash(s) == hash(t)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(PAIRS)
def test_qi_sqrt_and_text_roundtrip(w):
    pw = Pair(*w)
    z = QI(*(pw * pw).key())
    r = z.sqrt()
    assert r is not None and r * r == z
    # sign-normalized: the root with the larger (re, im) of the two
    assert same(r, max(pw, -pw, key=Pair.key))
    assert parse_qi(format_qi(z)) == z
    assert parse_qi(format_qi(QI(*w))) == QI(*w)
    other = QI(*w).sqrt()
    if other is not None:
        assert other * other == QI(*w)


# ---------------------------------------------------------------------------
# parsing, printing and square roots against Fraction-based oracles


def fraction_parse_qi(s):
    """``parse_qi`` as written on Fraction: the split, then Fraction(part)."""
    t = s.strip().replace(" ", "")
    if not t:
        raise ValueError("empty Gaussian rational literal")
    if "i" not in t:
        return QI(Fraction(t))
    body, tail = t[: t.rindex("i")], t[t.rindex("i") + 1 :]
    if tail:
        raise ValueError(f"bad Gaussian rational literal {s!r}")
    split = -1
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/":
            split = k
            break
    re_part, im_part = ("0", body) if split < 0 else (body[:split], body[split:])
    if im_part in ("", "+"):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = Fraction(im_part)
    return QI(Fraction(re_part) if re_part else Fraction(0), im)


def outcome(parse, s):
    try:
        return parse(s)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


DIGITS = st.builds(
    lambda n, tail: str(n) + tail,
    st.integers(0, 999),
    st.sampled_from(["", "_0", "_5", "_25"]),
)
# Fraction literals with small exponents; 'd' is the decimal-part quirk
RATIONAL_LITERALS = st.builds(
    lambda pad, sign, num, tail, end: pad + sign + num + tail + end,
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["", "+", "-"]),
    st.one_of(DIGITS, st.just("")),
    st.one_of(
        st.just(""),
        DIGITS.map(lambda d: "/" + d),
        st.builds(
            lambda dec, exp: dec + exp,
            st.one_of(st.just(""), st.just("."), st.just(".d"), DIGITS.map(lambda d: "." + d)),
            st.one_of(
                st.just(""),
                st.builds("{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), st.integers(0, 99)),
            ),
        ),
    ),
    st.sampled_from(["", " ", "\n"]),
)
GAUSSIAN_LITERALS = st.one_of(
    RATIONAL_LITERALS,
    st.builds(lambda x: x + "i", RATIONAL_LITERALS),
    st.builds(lambda x, s, y: x + s + y + "i", RATIONAL_LITERALS, st.sampled_from("+-"), RATIONAL_LITERALS),
    # anything over the grammar's alphabet, without exponents; a digit int()
    # reads (Arabic-Indic three) and one it does not (superscript two)
    st.text(alphabet="0123456789+-/._i \t\u0663\u00b2", max_size=10),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(GAUSSIAN_LITERALS)
def test_parse_qi_matches_fraction(s):
    assert outcome(parse_qi, s) == outcome(fraction_parse_qi, s)


def fraction_sqrt(z):
    """``QI.sqrt`` as written on Fraction components."""
    def root(x):
        if x < 0:
            return None
        n, d = isqrt(x.numerator), isqrt(x.denominator)
        return Fraction(n, d) if n * n == x.numerator and d * d == x.denominator else None

    a, b = Fraction(z.a, z.d), Fraction(z.b, z.d)
    if b == 0:
        r = root(a)
        if r is not None:
            return QI(r)
        r = root(-a)
        return None if r is None else QI(0, r)
    n = root(a * a + b * b)
    if n is None:
        return None
    x = root((a + n) / 2)
    if x is None or x == 0:
        return None
    return QI(x, b / (2 * x))


def fraction_format_qi(z):
    """``format_qi`` as written on Fraction components."""
    re, im = Fraction(z.a, z.d), Fraction(z.b, z.d)
    if im == 0:
        return str(re)
    if re == 0:
        return "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    mag = abs(im)
    return f"{re}{'+' if im > 0 else '-'}{'i' if mag == 1 else f'{mag}i'}"


@settings(derandomize=True, deadline=None, max_examples=300)
@given(PAIRS, st.booleans())
def test_sqrt_and_format_match_fraction(w, square):
    z = QI(*w)
    if square:
        z = z * z
    assert z.sqrt() == fraction_sqrt(z)
    assert format_qi(z) == fraction_format_qi(z)
