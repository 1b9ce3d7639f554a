"""Property tests on seeded random monomial GSO4 parameter images."""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from gspinlab.centralizers import (
    NormalizationError,
    NotEllipticError,
    ParameterImage,
    s_groups,
    verify_extension,
)
from gspinlab.finite_groups import CentralCharacter, irreps_with_central_character
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
