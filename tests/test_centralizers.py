import dataclasses

import pytest

from gspinlab import centralizers, presets
from gspinlab.centralizers import (
    NormalizationError,
    NotEllipticError,
    ParameterImage,
    TwistCharacter,
    quadratic_twists,
    quartic_twists,
    s_groups,
    sl_level_group,
    sl_normalize,
    twisted_centralizer_space,
    verify_extension,
)
from gspinlab.finite_groups import FiniteMatrixGroup, group_id
from gspinlab.gaussian import QI, GaussianMatrix

A = GaussianMatrix.from_strings([["i", "0"], ["0", "-i"]])
B = GaussianMatrix.from_strings([["0", "1"], ["-1", "0"]])
I2 = GaussianMatrix.identity(2)
KLEIN = [A, B]
ONE = QI(1)
MINUS = QI(-1)


def test_twisted_spaces_for_klein_generators():
    sp = twisted_centralizer_space(KLEIN, [ONE, ONE])
    assert len(sp) == 1 and sp[0].is_identity()
    sp = twisted_centralizer_space(KLEIN, [ONE, MINUS])
    assert len(sp) == 1
    assert sp[0] == GaussianMatrix.from_strings([["1", "0"], ["0", "-1"]])
    sp = twisted_centralizer_space(KLEIN, [MINUS, MINUS])
    assert len(sp) == 1
    assert sp[0] == GaussianMatrix.from_strings([["0", "1"], ["1", "0"]])
    sp = twisted_centralizer_space(KLEIN, [MINUS, ONE])
    assert len(sp) == 1
    assert sp[0] == GaussianMatrix.from_strings([["0", "1"], ["-1", "0"]])


def test_untwisted_space_is_commutant_with_multiplicity_dimension():
    # irreducible image: commutant is scalars
    assert len(twisted_centralizer_space(KLEIN, [ONE, ONE])) == 1
    # two distinct characters: dimension 1^2 + 1^2
    diag = GaussianMatrix.from_strings([["1", "0"], ["0", "-1"]])
    assert len(twisted_centralizer_space([diag], [ONE])) == 2
    # trivial image: full matrix algebra, one constituent with multiplicity 2
    assert len(twisted_centralizer_space([I2], [ONE])) == 4


def test_twisted_cosets_are_disjoint():
    seen = []
    for nu in quadratic_twists(2):
        sp = twisted_centralizer_space(KLEIN, list(nu.values))
        assert len(sp) == 1
        for other in seen:
            prod = sp[0] * other.inverse()
            # matrices from distinct twists never differ by a scalar
            assert not (prod.entry(0, 1).is_zero() and prod.entry(1, 0).is_zero()) or (
                prod.entry(0, 0) != prod.entry(1, 1)
            )
        seen.append(sp[0])


def test_sl_normalize():
    h = GaussianMatrix.from_strings([["1", "0"], ["0", "-1"]])
    s = sl_normalize(h)
    assert s.det() == ONE
    with pytest.raises(NormalizationError):
        # det -1 in dimension 4 needs a fourth root of -1, absent from Q(i)
        sl_normalize(
            GaussianMatrix.from_strings(
                [
                    ["1", "0", "0", "0"],
                    ["0", "1", "0", "0"],
                    ["0", "0", "1", "0"],
                    ["0", "0", "0", "-1"],
                ]
            )
        )


def test_sl_level_group_klein_is_q8():
    group = sl_level_group(presets.witness_generators("klein_four_sl2"))
    assert group.order == 8
    assert group_id(group) == "Q8"


def test_s_groups_coupled_klein():
    rep = s_groups(presets.witness_parameter("coupled_klein_four"))
    assert rep.s_phi_sc.order == 16
    assert rep.s_phi_sc_label == "Q8 x Z/2"
    assert rep.s_phi_label == "(Z/2)^2"
    assert rep.s_phi_order == 4
    assert rep.z_hat.torsion == (2, 2)
    assert rep.extension_ok
    assert verify_extension(rep)
    assert len(rep.twists) == 4


def test_s_groups_primitive_type():
    rep = s_groups(presets.witness_parameter("binary_tetrahedral_pair"))
    assert rep.s_phi_sc.order == 4
    assert rep.s_phi_sc_label == "(Z/2)^2"
    assert rep.s_phi_label == "1"
    assert len(rep.twists) == 1


def test_s_groups_dihedral_one():
    rep = s_groups(presets.witness_parameter("dihedral_one_pair"))
    assert rep.s_phi_sc.order == 8
    assert rep.s_phi_order == 2
    assert rep.extension_ok and verify_extension(rep)
    # matrix level: the extension is Z/2 x Z/4 (projective involutions lift
    # to order four inside SL2)
    assert rep.s_phi_sc_label == "Z/2 x Z/4"


def test_s_groups_gso6_witness():
    rep = s_groups(presets.witness_parameter("cyclic_quartic_gso6"))
    assert rep.s_phi_sc.order == 16
    assert rep.s_phi_sc_label == "(Z/2)^2 x Z/4"
    assert rep.s_phi_label == "(Z/2)^2"
    assert rep.z_hat.torsion == (4,)
    assert rep.extension_ok and verify_extension(rep)


def test_designated_center_inside_assembly():
    rep = s_groups(presets.witness_parameter("coupled_klein_four"))
    zin = rep.s_phi_sc.center()
    for z in rep.z_elements:
        assert z in zin


def test_gspin_level_embeds_in_sl_level():
    phi = presets.witness_parameter("coupled_klein_four")
    rep = s_groups(phi)
    f1, f2 = phi.factor_images()
    q1 = sl_level_group(f1)
    q2 = sl_level_group(f2)
    assert q1.order == q2.order == 8
    for x, y in rep.s_phi_sc.elements:
        assert x in q1 and y in q2


def test_rank6_sl_level_normalization_obstruction():
    # the quartic-twist line of the rank-6 witness is spanned by a matrix of
    # determinant -1; its SL4 normalization needs an eighth root of unity,
    # which Q(i) lacks, and the engine must refuse rather than approximate
    phi6 = presets.witness_parameter("cyclic_quartic_gso6")
    with pytest.raises(NormalizationError):
        sl_level_group(phi6.factor_images()[0])
    # every similitude-level element still solves a quadratic-twist equation
    rep6 = s_groups(phi6)
    gens = phi6.factor_images()[0]
    for x in rep6.s_phi_sc.elements:
        xinv = x.inverse()
        for gmat in gens:
            comm = x * gmat * xinv * gmat.inverse()
            scalar = comm.entry(0, 0)
            assert comm == GaussianMatrix.scalar(4, scalar)
            assert scalar in (QI(1), QI(-1))


def test_not_elliptic_rejected():
    diag = GaussianMatrix.from_strings([["1", "0"], ["0", "-1"]])
    phi = ParameterImage("GSO4", ((diag, diag),))
    with pytest.raises(NotEllipticError):
        s_groups(phi)


def test_candidate_twists_must_include_trivial():
    phi = presets.witness_parameter("coupled_klein_four")
    with pytest.raises(ValueError):
        s_groups(phi, candidate_twists=[TwistCharacter((MINUS, MINUS))])


def test_twist_character_relation_validation():
    t = TwistCharacter((QI(0, 1), ONE))
    with pytest.raises(ValueError):
        t.validate([((0, 2),)])  # i^2 != 1
    t.validate([((0, 4),)])


def test_twist_enumeration_counts():
    assert len(quadratic_twists(2)) == 4
    assert len(quartic_twists(2)) == 16
    assert len(quadratic_twists(2, [((0, 1),)])) == 2  # forces nu(w1) = 1


def test_verify_extension_rejects_corruption():
    rep = s_groups(presets.witness_parameter("coupled_klein_four"))
    g = rep.s_phi_sc
    broken = FiniteMatrixGroup(
        g.elements[:-1], g.cayley_table[:-1], g.identity_index, g.generator_index
    )
    rep.s_phi_sc = broken
    assert not verify_extension(rep)


def test_assembled_set_that_fails_to_close_is_rejected(monkeypatch):
    # lines scaled off SL_n by 2: their products leave the assembled set
    orig = centralizers.sl_normalize
    monkeypatch.setattr(centralizers, "sl_normalize", lambda h: orig(h).scale(QI(2)))
    with pytest.raises(RuntimeError, match="failed to close"):
        s_groups(presets.witness_parameter("coupled_klein_four"))


def test_verify_extension_rejects_wrong_quotient_order():
    rep = s_groups(presets.witness_parameter("coupled_klein_four"))
    assert verify_extension(rep)
    assert not verify_extension(dataclasses.replace(rep, s_phi_order=rep.s_phi_order + 1))


def test_projective_closure_orders():
    phi = presets.witness_parameter("coupled_klein_four")
    assert phi.projective_closure_order() == 4
    # commutators leave a scalar residue in the similitude quotient, so the
    # image there is twice the projective-linear image of order 16
    phi6 = presets.witness_parameter("cyclic_quartic_gso6")
    assert phi6.projective_closure_order() == 32


def test_parameter_json_roundtrip():
    for name in ("coupled_klein_four", "cyclic_quartic_gso6"):
        phi = presets.witness_parameter(name)
        again = ParameterImage.from_dict(phi.to_dict())
        assert again == phi


def test_parameter_validation():
    with pytest.raises(ValueError):
        ParameterImage("GSO5", ((A, A),))
    with pytest.raises(ValueError):
        ParameterImage("GSO4", ())
    sing = GaussianMatrix.from_strings([["1", "1"], ["1", "1"]])
    with pytest.raises(ValueError):
        ParameterImage("GSO4", ((sing, A),))


def test_s_groups_matrix_products_for_gspin6_klein_witness(monkeypatch):
    phi = presets.witness_parameter("cyclic_quartic_gso6")
    products = []
    mul = GaussianMatrix.__mul__

    def counting(x, y):
        products.append(1)
        return mul(x, y)

    monkeypatch.setattr(GaussianMatrix, "__mul__", counting)
    rep = s_groups(phi)
    # the right action of the generators: one line per live twist, plus the
    # one generator (i) of the scalars of SL4
    assert 0 < len(products) <= rep.s_phi_sc.order * (len(rep.twists) + 1)
