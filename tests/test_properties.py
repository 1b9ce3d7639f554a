"""Property tests on seeded random monomial GSO4 and GSO6 parameter images."""
import pytest

pytest.importorskip("hypothesis")

from itertools import permutations

from hypothesis import given, settings, strategies as st

from gspinlab.centralizers import (
    NormalizationError,
    NotEllipticError,
    ParameterImage,
    s_groups,
    verify_extension,
)
from gspinlab.finite_groups import (
    CentralCharacter,
    NotFiniteError,
    irreps_with_central_character,
)
from gspinlab.gaussian import FOURTH_ROOTS, QI, GaussianMatrix
from gspinlab.packets import designated_center

ROOT = st.sampled_from(FOURTH_ROOTS)


@st.composite
def monomial_2x2(draw):
    a, b = draw(ROOT), draw(ROOT)
    if draw(st.booleans()):
        return GaussianMatrix([[a, QI(0)], [QI(0), b]])
    return GaussianMatrix([[QI(0), a], [b, QI(0)]])


PARAMETERS = st.integers(1, 3).flatmap(
    lambda k: st.lists(st.tuples(monomial_2x2(), monomial_2x2()), min_size=k, max_size=k)
)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(PARAMETERS)
def test_monomial_gso4_extension_and_central_characters(generators):
    try:
        report = s_groups(ParameterImage("GSO4", tuple(generators)))
    except (NotEllipticError, NormalizationError):
        return
    g = report.s_phi_sc
    assert g.order == 4 * report.s_phi_order
    assert verify_extension(report)
    z_elements, (z1, z2) = designated_center("GSpin4")
    table = g.character_table()
    total = 0
    # every character of mu2 x mu2, not only the three named inner forms
    for v1 in (QI(1), QI(-1)):
        for v2 in (QI(1), QI(-1)):
            zeta = CentralCharacter(((z1, v1), (z2, v2)))
            rows = irreps_with_central_character(g, z_elements, zeta, table)
            # Frobenius reciprocity: Ind_Z^G zeta has dimension |G|/|Z|
            assert sum(r.degree**2 for r in rows) == report.s_phi_order
            total += sum(r.degree**2 for r in rows)
    assert total == g.order


@st.composite
def monomial_4x4(draw):
    perm = draw(st.sampled_from(list(permutations(range(4)))))
    entries = [draw(ROOT) for _ in range(4)]
    return GaussianMatrix(
        [[entries[r] if c == perm[r] else QI(0) for c in range(4)] for r in range(4)]
    )


GSO6_PARAMETERS = st.integers(1, 3).flatmap(
    lambda k: st.lists(st.tuples(ROOT, monomial_4x4()), min_size=k, max_size=k)
)


# each draw first closes its projective image (up to 4,096 pairs of 4x4
# matrices), which is most of the time; 25 draws keep the test near 5 s
@settings(derandomize=True, deadline=None, max_examples=25)
@given(GSO6_PARAMETERS)
def test_monomial_gso6_extension_and_central_characters(generators):
    try:
        report = s_groups(ParameterImage("GSO6", tuple(generators)))
    except (NotEllipticError, NormalizationError, NotFiniteError):
        return
    g = report.s_phi_sc
    assert g.order == 4 * report.s_phi_order
    assert verify_extension(report)
    z_elements, (z,) = designated_center("GSpin6")
    table = g.character_table()
    # the four characters of mu4, each picked out by its value on i
    for value in FOURTH_ROOTS:
        rows = irreps_with_central_character(g, z_elements, CentralCharacter(((z, value),)), table)
        assert sum(r.degree**2 for r in rows) == report.s_phi_order
