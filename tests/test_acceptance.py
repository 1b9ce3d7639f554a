"""Acceptance suite: one test per criterion, each printing a PASS line.

Every assertion is exact; there are no tolerances anywhere in the package.
"""
import random

from gspinlab import presets
from gspinlab.centralizers import s_groups, sl_level_group, verify_extension
from gspinlab.cli import main as cli_main
from gspinlab.finite_groups import (
    CentralCharacter,
    generate_closure,
    group_id,
    irreps_with_central_character,
)
from gspinlab.gaussian import QI, GaussianMatrix
from gspinlab.lattice import AbelianGroupStructure, IntMatrix, smith_normal_form
from gspinlab.morphisms import check_isomorphism, search_isomorphisms, verify_dual_identification
from gspinlab.packets import (
    GSpin6Scenario,
    consistency_check,
    igroup_gspin6,
    packet_sizes,
    scenario_from_dict,
    scenario_report,
    square_class_bound,
)
from gspinlab.root_datum import (
    center_structure,
    dual_sc_center,
    gspin_datum,
    verify_exact_sequence,
)


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS -- {text}")


def test_criterion_01_isomorphism_uniqueness():
    s4, psi4, g4 = presets.datum_map("gspin4_to_g4")
    maps = search_isomorphisms(psi4, g4, assignment=(0, 1), det_sign=1)
    assert len(maps) == 1
    assert maps[0].iota.to_rows() == [[0, 0, -1], [0, -1, 0], [-1, 1, 1]]
    assert maps[0].iota_vee == maps[0].iota.transpose()
    assert check_isomorphism(maps[0], psi4, g4)

    s6, psi6, g6 = presets.datum_map("gspin6_to_g6")
    maps6 = search_isomorphisms(psi6, g6, assignment=(0, 1, 2), det_sign=1)
    assert len(maps6) == 1
    assert maps6[0].iota == s6.iota
    assert maps6[0].iota_vee == maps6[0].iota  # symmetric: S^vee = tS = S
    _report(1, "unique distinguished matrices recovered for both ranks")


def test_criterion_02_centers():
    assert center_structure(gspin_datum(2)) == AbelianGroupStructure(1, (2,))
    assert center_structure(gspin_datum(3)) == AbelianGroupStructure(1, (2,))
    assert dual_sc_center(gspin_datum(2)).torsion == (2, 2)
    assert dual_sc_center(gspin_datum(3)).torsion == (4,)
    _report(2, "pi0 = Z/2 both ranks; cover centers (2,2) and (4)")


def test_criterion_03_exact_sequences_and_perturbation():
    assert verify_exact_sequence(presets.sequence("gspin4_in_gl2xgl2"))
    assert verify_exact_sequence(presets.sequence("gspin6_in_gl1xgl4"))
    ok, _ = verify_dual_identification(
        "GSpin4", presets.datum("GL2xGL2"), kernel=(1, 1, 1, 1)
    )
    assert not ok
    _report(3, "both sequences exact; perturbed kernel (z,z) rejected")


def test_criterion_04_dual_identifications():
    ok4, _ = verify_dual_identification("GSpin4", presets.datum("GL2xGL2"))
    ok6, _ = verify_dual_identification("GSpin6", presets.datum("GL1xGL4"))
    assert ok4 and ok6
    _report(4, "quotient presentations of both dual groups verified")


def test_criterion_05_klein_witnesses():
    single = sl_level_group(presets.witness_generators("klein_four_sl2"))
    assert single.order == 8 and group_id(single) == "Q8"
    rep = s_groups(presets.witness_parameter("coupled_klein_four"))
    assert rep.s_phi_sc.order == 16
    assert rep.s_phi_sc_label == "Q8 x Z/2"
    assert rep.s_phi_label == "(Z/2)^2"
    assert rep.z_hat.torsion_order() == 4 and rep.s_phi_order == 4
    assert rep.extension_ok and verify_extension(rep)
    assert 16 == rep.z_hat.torsion_order() * rep.s_phi_order
    _report(5, "Q8 single factor; order-16 Q8 x Z/2 with 16 = 4*4 extension")


def test_criterion_06_packet_table():
    out = packet_sizes("Q8 x Z/2", "GSpin4", 4)
    assert out.degrees["split"] == (1, 1, 1, 1)
    assert out.degrees["2-1"] == (2,)
    assert out.degrees["1-1"] == (2,)
    assert out.sizes == {"split": 4, "2-1": 1, "1-1": 1}
    assert out.multiplicities == {"split": 1, "2-1": 2, "1-1": 2}
    for form in out.sizes:
        assert out.multiplicities[form] ** 2 * out.sizes[form] == 4
    _report(6, "counts 4/1/1 with degrees (1,1,1,1)/(2)/(2); m^2*size = 4 throughout")


def test_criterion_07_size_bounds_and_consistency():
    assert square_class_bound(3, 1) == (4, [1, 2, 4])
    assert square_class_bound(2, 1) == (8, [1, 2, 4, 8])
    for name in presets.scenario_names():
        scenario = scenario_from_dict(presets.scenario_dict(name))
        witness = (
            presets.witness_parameter(scenario.witness) if scenario.witness else None
        )
        report = scenario_report(scenario, witness)
        assert report.consistent, name
        assert consistency_check(report)
        if report.family == "GSpin4":
            for outcome in report.outcomes:
                for size in outcome.sizes.values():
                    assert size in (1, 2, 4)
    _report(7, "bounds 4 and 8; all shipped scenarios consistent, rank-4 sizes in {1,2,4}")


def test_criterion_08_rank6_stabilizers():
    cases = {
        (4,): (2,),
        (2, 2): (2, 2),
        (2, 4): (2, 2),
        (): (),
    }
    for inv, want in cases.items():
        got = igroup_gspin6(GSpin6Scenario(AbelianGroupStructure(0, inv), 3))
        assert got.torsion == want
        # brute-force enumeration of square-trivial elements
        import itertools

        count = sum(
            1
            for tup in itertools.product(*[range(d) for d in inv])
            if all((2 * t) % d == 0 for t, d in zip(tup, inv))
        )
        assert count == got.torsion_order()
    _report(8, "two-torsion subgroups match brute-force enumeration")


def test_criterion_09_property_suites():
    rng = random.Random(431)
    for _ in range(500):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        u, d, v = smith_normal_form(m)
        assert u * m * v == d
        assert u.det() in (1, -1) and v.det() in (1, -1)
        diag = [d.entry(i, i) for i in range(min(r, c))]
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or b % a == 0

    a2 = GaussianMatrix.from_strings([["i", "0"], ["0", "-i"]])
    b2 = GaussianMatrix.from_strings([["0", "1"], ["-1", "0"]])
    i2 = GaussianMatrix.identity(2)
    neg = i2.scale(QI(-1))
    d = GaussianMatrix.block_diagonal
    catalogue = [
        generate_closure([a2, b2]),
        generate_closure([d(a2, a2), d(b2, b2), d(i2, neg)]),
        generate_closure([d(neg, i2), d(i2, a2), d(i2, b2)]),
        generate_closure([d(a2, i2), d(i2, a2)]),
    ]
    for group in catalogue:
        table = group.character_table()  # both orthogonality relations asserted
        assert sum(row.degree**2 for row in table.rows) == group.order

    # central-character partition refines the full set of irreducibles
    g16 = catalogue[1]
    zs = [d(i2.scale(x), i2.scale(y)) for x in (QI(1), QI(-1)) for y in (QI(1), QI(-1))]
    z1, z2 = d(neg, i2), d(i2, neg)
    total = 0
    for v1 in (QI(1), QI(-1)):
        for v2 in (QI(1), QI(-1)):
            zeta = CentralCharacter(((z1, v1), (z2, v2)))
            total += len(irreps_with_central_character(g16, zs, zeta))
    assert total == len(g16.character_table().rows)

    # closure generation does not depend on generator order
    import itertools

    gens = [a2, b2, a2 * b2]
    reference = generate_closure(gens).elements
    for perm in itertools.permutations(gens):
        assert generate_closure(list(perm)).elements == reference
    _report(9, "500 SNF instances, table orthogonality, partition counts, closure order-independence")


def test_criterion_10_verify_paper_exits_zero(capsys):
    code = cli_main(["verify-paper", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    _report(10, "bundled regression catalogue exits 0")
