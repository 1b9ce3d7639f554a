"""``QI`` against an oracle that keeps a Gaussian rational as two Fractions."""
from fractions import Fraction
from math import gcd

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
    return (z.re, z.im) == p.key()


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
    assert same(zx.conj(), px.conj())
    assert zx.norm2() == px.re**2 + px.im**2
    assert bool(zx) == (px.key() != (0, 0))
    if zx:
        assert same(zx.inverse(), px.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            zx.inverse()
    assert (zx == zy) == (px.key() == py.key())
    assert (zx.sort_key() < zy.sort_key()) == (px.key() < py.key())
    assert (zx.sort_key() == zy.sort_key()) == (px.key() == py.key())
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
