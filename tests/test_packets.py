import itertools

import pytest

from gspinlab import finite_groups, presets
from gspinlab.centralizers import s_groups
from gspinlab.finite_groups import CapExceededError, generate_closure
from gspinlab.gaussian import QI, GaussianMatrix
from gspinlab.lattice import AbelianGroupStructure
from gspinlab.packets import (
    FactorSpec,
    GSpin4Scenario,
    GSpin6Scenario,
    PacketOutcome,
    PacketReport,
    canonical_group_for_label,
    consistency_check,
    designated_center,
    igroup_gspin4,
    igroup_gspin6,
    kottwitz_characters,
    packet_sizes,
    scenario_from_dict,
    scenario_report,
    sgroup_structure_gspin4,
    square_class_bound,
)


def scen4(kind1, labels1, kind2, labels2, twist, p=3, f=1):
    return GSpin4Scenario(
        FactorSpec(kind1, tuple(labels1)),
        FactorSpec(kind2, tuple(labels2)),
        twist,
        p,
        f,
    )


def test_igroup_twist_equivalent_cases():
    s = scen4("dihedral_three", ["a", "b", "c"], "dihedral_three", ["a", "b", "c"], True)
    assert igroup_gspin4(s).torsion == (2, 2)
    s = scen4(
        "primitive_or_sl2_nontrivial", [], "primitive_or_sl2_nontrivial", [], True, p=2
    )
    assert igroup_gspin4(s).torsion == ()
    s = scen4("dihedral_one", ["a"], "dihedral_one", ["a"], True)
    assert igroup_gspin4(s).torsion == (2,)


def test_igroup_intersections():
    s = scen4("dihedral_one", ["a"], "dihedral_one", ["b"], False)
    assert igroup_gspin4(s).torsion == ()
    s = scen4("dihedral_three", ["a", "b", "c"], "dihedral_one", ["a"], False)
    assert igroup_gspin4(s).torsion == (2,)
    s = scen4("dihedral_three", ["a", "b", "c"], "dihedral_three", ["a", "b", "c"], False)
    assert igroup_gspin4(s).torsion == (2, 2)


def test_igroup_inconsistent_labels():
    with pytest.raises(ValueError) as err:
        # twist-equivalent factors of different kinds
        scen4("dihedral_one", ["a"], "dihedral_three", ["a", "b", "c"], True)
    assert str(err.value) == "twist-equivalent factors must have the same parameter kind"
    with pytest.raises(ValueError) as err:
        # identical kinds marked twist-equivalent with different label sets
        scen4("dihedral_one", ["a"], "dihedral_one", ["b"], True)
    assert str(err.value) == (
        "inconsistent labels: twist-equivalent factors with different quadratic-character sets"
    )
    with pytest.raises(ValueError):
        # two shared labels cannot form a character subgroup
        s = scen4(
            "dihedral_three", ["a", "b", "c"], "dihedral_three", ["a", "b", "x"], False
        )
        igroup_gspin4(s)
    with pytest.raises(ValueError):
        # intersections need named sets
        s = scen4("dihedral_one", [], "dihedral_one", [], False)
        igroup_gspin4(s)


def test_factor_and_scenario_defaults_and_refusals():
    for kind, labels, message in (
        ("nope", (), "unknown factor kind 'nope'"),
        ("dihedral_three", ("a",), "kind 'dihedral_three' carries 3 named quadratic characters"),
        ("dihedral_three", ("a", "a", "b"), "repeated quadratic-character labels"),
    ):
        with pytest.raises(ValueError) as err:
            FactorSpec(kind, labels)
        assert str(err.value) == message
    one = FactorSpec(kind="dihedral_one")
    assert one.labels == ()
    s = GSpin4Scenario(one, FactorSpec("dihedral_one", ("a",)), twist_equivalent=True, p=3)
    assert (s.f, s.witness) == (1, None)
    s6 = GSpin6Scenario(AbelianGroupStructure(0, (2,)), 5, witness="w")
    assert (s6.p, s6.f, s6.witness) == (5, 1, "w")
    # a scenario file may leave out f (and i_sl4, and the witness)
    for name in ("dihedral1-twist", "gspin6-z4"):
        data = {k: v for k, v in presets.scenario_dict(name).items() if k not in ("f", "i_sl4")}
        s = scenario_from_dict(data)
        assert (s.f, s.witness) == (1, None)
        assert scenario_report(s).bound_card == 4
    reports = [
        PacketReport("GSpin4", AbelianGroupStructure(0), 1, [], 4, [1, 2, 4]) for _ in range(2)
    ]
    reports[0].notes.append("x")
    assert reports[1].notes == []


def brute_force_two_torsion(invariants):
    count = 0
    for tup in itertools.product(*[range(d) for d in invariants]):
        if all((2 * t) % d == 0 for t, d in zip(tup, invariants)):
            count += 1
    rank = count.bit_length() - 1
    assert 2**rank == count
    return (2,) * rank


def test_igroup_gspin6_two_torsion_against_enumeration():
    for inv in [(), (4,), (2, 2), (2, 4), (2, 2, 2), (2, 4)]:
        s = GSpin6Scenario(AbelianGroupStructure(0, inv), 3)
        got = igroup_gspin6(s)
        assert got.torsion == brute_force_two_torsion(inv)


def test_sgroup_structure_labels():
    s = scen4("primitive_or_sl2_nontrivial", [], "primitive_or_sl2_nontrivial", [], True, p=2)
    assert sgroup_structure_gspin4(s, igroup_gspin4(s)) == "(Z/2)^2"
    s = scen4("dihedral_one", ["a"], "dihedral_one", ["a"], True)
    assert sgroup_structure_gspin4(s, igroup_gspin4(s)) == "(Z/2)^3"
    s = scen4("reducible_two_constituents", ["a"], "reducible_two_constituents", ["a"], True)
    assert sgroup_structure_gspin4(s, igroup_gspin4(s)) == "abelian order 8"
    s = scen4("dihedral_three", list("abc"), "dihedral_three", list("abc"), True)
    # the two-branch label: the only one a matrix witness may decide
    assert sgroup_structure_gspin4(s, igroup_gspin4(s)) == (
        "abelian order 16 (invariant factors 4,4) or Q8 x Z/2"
    )
    s = scen4("dihedral_three", list("abc"), "dihedral_three", list("abc"), False)
    assert sgroup_structure_gspin4(s, igroup_gspin4(s)) == "abelian order 16 (invariant factors 4,4)"
    with pytest.raises(ValueError):
        sgroup_structure_gspin4(s, AbelianGroupStructure(0, (2, 2, 2)))


def test_packet_sizes_q8z2():
    out = packet_sizes("Q8 x Z/2", "GSpin4", 4)
    assert out.sizes == {"split": 4, "2-1": 1, "1-1": 1}
    assert out.multiplicities == {"split": 1, "2-1": 2, "1-1": 2}
    assert out.degrees["split"] == (1, 1, 1, 1)
    assert out.degrees["2-1"] == (2,)
    assert out.degrees["1-1"] == (2,)
    for form in ("split", "2-1", "1-1"):
        m, size = out.multiplicities[form], out.sizes[form]
        assert m * m * size == 4


def test_packet_sizes_abelian_labels():
    out = packet_sizes("(Z/2)^3", "GSpin4", 2)
    assert out.sizes == {"split": 2, "2-1": 2, "1-1": 2}
    assert set(out.multiplicities.values()) == {1}
    out = packet_sizes("(Z/2)^2", "GSpin4", 1)
    assert out.sizes == {"split": 1, "2-1": 1, "1-1": 1}
    out = packet_sizes("abelian order 16 (invariant factors 4,4)", "GSpin4", 4)
    assert out.sizes == {"split": 4, "2-1": 4, "1-1": 4}


def test_packet_sizes_explicit_group_gspin6():
    mu4 = generate_closure([GaussianMatrix.scalar(4, QI(0, 1))])
    out = packet_sizes(mu4, "GSpin6", 1)
    assert out.sizes == {"split": 1, "2-0": 1, "1-0": 1}
    assert out.degrees["1-0"] == (1,)


def test_packet_sizes_missing_center_rejected():
    q8 = generate_closure(presets.witness_generators("klein_four_sl2"))
    with pytest.raises(ValueError):
        packet_sizes(q8, "GSpin4", 4)


def test_square_class_bound_values():
    assert square_class_bound(3, 1) == (4, [1, 2, 4])
    assert square_class_bound(2, 1) == (8, [1, 2, 4, 8])
    assert square_class_bound(5, 3) == (4, [1, 2, 4])
    assert square_class_bound(2, 2) == (16, [1, 2, 4, 8, 16])
    with pytest.raises(ValueError):
        square_class_bound(4, 1)
    with pytest.raises(ValueError):
        square_class_bound(3, 0)


def test_square_class_bound_primality_is_bounded_work():
    # primes of 19 digits and more answer at once; past the test's bound they refuse
    assert square_class_bound(2**61 - 1, 1) == (4, [1, 2, 4])
    assert square_class_bound(10000000000000061, 1) == (4, [1, 2, 4])
    with pytest.raises(ValueError, match="p must be prime"):
        square_class_bound((2**89 - 1) * (2**61 - 1), 1)
    with pytest.raises(CapExceededError, match="exact only below"):
        square_class_bound(2**89 - 1, 1)


def unit_square_index(pk, p):
    # |(Z/p^k)^x / squares|
    units = [x for x in range(1, pk) if _gcd(x, p) == 1]
    squares = {(x * x) % pk for x in units}
    return len(units) // len(squares)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_square_class_bound_against_unit_group_oracle():
    # |F*/(F*)^2| = 2 * |O^x / (O^x)^2|, computed at finite level p^3 deep
    # enough to see all square classes of units
    for p in (3, 5, 7):
        assert square_class_bound(p, 1)[0] == 2 * unit_square_index(p**3, p)
    assert square_class_bound(2, 1)[0] == 2 * unit_square_index(2**5, 2)


def test_consistency_check_fabricated_size():
    outcome = PacketOutcome(
        structure="(Z/2)^2",
        confirmed=None,
        sizes={"split": 3, "2-1": 1, "1-1": 1},
        multiplicities={"split": 1, "2-1": 1, "1-1": 1},
        degrees={},
    )
    report = PacketReport(
        family="GSpin4",
        igroup=AbelianGroupStructure(0, ()),
        igroup_order=1,
        outcomes=[outcome],
        bound_card=4,
        bound_divisors=[1, 2, 4],
    )
    assert not consistency_check(report)
    assert not report.consistent


def test_all_shipped_scenarios_consistent():
    for name in presets.scenario_names():
        data = presets.scenario_dict(name)
        scenario = scenario_from_dict(data)
        witness = (
            presets.witness_parameter(scenario.witness) if scenario.witness else None
        )
        report = scenario_report(scenario, witness)
        assert report.consistent, name
        assert consistency_check(report)
        for outcome in report.outcomes:
            for form, size in outcome.sizes.items():
                if size is None:
                    continue
                if report.family == "GSpin4":
                    assert size in (1, 2, 4), (name, form, size)
                assert report.bound_card % size == 0
                m = outcome.multiplicities[form]
                assert m is not None and m * m * size == report.igroup_order
        assert report.igroup.is_elementary_two_group()


def test_dihedral3_scenario_confirms_witness():
    data = presets.scenario_dict("dihedral3-twist")
    scenario = scenario_from_dict(data)
    report = scenario_report(scenario, presets.witness_parameter(scenario.witness))
    assert len(report.outcomes) == 1
    out = report.outcomes[0]
    assert out.structure == "Q8 x Z/2" and out.confirmed
    assert out.sizes == {"split": 4, "2-1": 1, "1-1": 1}
    assert out.multiplicities == {"split": 1, "2-1": 2, "1-1": 2}
    assert any("witness" in n for n in report.notes)


def test_dihedral3_scenario_without_witness_reports_both_branches():
    data = dict(presets.scenario_dict("dihedral3-twist"))
    data.pop("witness")
    report = scenario_report(scenario_from_dict(data))
    assert len(report.outcomes) == 2
    structures = {o.structure for o in report.outcomes}
    assert "Q8 x Z/2" in structures
    assert all(o.confirmed is False for o in report.outcomes)


def test_rank6_flagged_when_rank_exceeds_limit():
    s = GSpin6Scenario(AbelianGroupStructure(0, (2, 2, 2)), 3)
    report = scenario_report(s)
    assert any("flagged" in n for n in report.notes)
    assert not report.consistent  # split size 8 does not divide the bound 4


def test_rank6_witness_outcome():
    data = presets.scenario_dict("gspin6-klein")
    scenario = scenario_from_dict(data)
    report = scenario_report(scenario, presets.witness_parameter(scenario.witness))
    out = report.outcomes[0]
    assert out.sizes == {"split": 4, "2-0": 4, "1-0": 4}
    assert report.consistent


def test_canonical_realizations_contain_center():
    z_elements, _ = designated_center("GSpin4")
    for label in ("(Z/2)^2", "(Z/2)^3", "Q8 x Z/2", "abelian order 16 (invariant factors 4,4)"):
        group = canonical_group_for_label(label, "GSpin4")
        for z in z_elements:
            assert z in group


def test_canonical_group_and_its_table_are_built_once_per_label(monkeypatch):
    canonical_group_for_label.cache_clear()
    tabulated = []
    character_table = finite_groups._character_table

    def counting(group):
        tabulated.append(group)
        return character_table(group)

    monkeypatch.setattr(finite_groups, "_character_table", counting)
    first = packet_sizes("Q8 x Z/2", "GSpin4", 4)
    second = packet_sizes("Q8 x Z/2", "GSpin4", 4)
    assert first.to_dict() == second.to_dict()
    assert len(tabulated) == 1
    assert canonical_group_for_label("Q8 x Z/2", "GSpin4") is tabulated[0]
    # refusals are raised again on every call, not remembered as answers
    for _ in range(2):
        with pytest.raises(ValueError, match="no canonical realization for structure 'Q8'"):
            packet_sizes("Q8", "GSpin4", 4)
        with pytest.raises(ValueError, match="rank four only"):
            packet_sizes("Q8 x Z/2", "GSpin6", 4)
    assert len(tabulated) == 1


def test_p2_bound_note():
    s = scen4("dihedral_one", ["a"], "dihedral_one", ["a"], True, p=2, f=2)
    report = scenario_report(s)
    assert any("2^(f+2)" in n for n in report.notes)
    assert report.bound_card == 16
    # both families note the growing bound for p = 2, f > 1, and only then
    for p, f, noted in ((2, 2, True), (3, 2, False), (2, 1, False)):
        for s in (
            scen4("dihedral_one", ["a"], "dihedral_one", ["a"], True, p=p, f=f),
            GSpin6Scenario(AbelianGroupStructure(0, (2,)), p, f),
        ):
            notes = scenario_report(s).notes
            assert any(n.startswith(f"bound 2^(f+2) = {2 ** (f + 2)} ") for n in notes) == noted


def test_unknown_family_is_refused_alike_everywhere():
    for call in (
        lambda: designated_center("GSpin8"),
        lambda: kottwitz_characters("GSpin8"),
        lambda: packet_sizes("(Z/2)^2", "GSpin8", 1),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "unknown family 'GSpin8'"


def test_kottwitz_characters_per_family():
    one, neg, i = QI(1), QI(-1), QI(0, 1)
    for family, want in (
        ("GSpin4", {"split": (one, one), "2-1": (one, neg), "1-1": (neg, neg)}),
        ("GSpin6", {"split": (one,), "2-0": (neg,), "1-0": (i,)}),
    ):
        _, gens = designated_center(family)
        got = kottwitz_characters(family)
        assert list(got) == list(want)  # split form first
        for form, values in want.items():
            assert got[form].assignments == tuple(zip(gens, values))


# every shipped scenario with every shipped parameter witness of its family:
# None where the witness agrees with the scenario, else the refusal's text. An
# order-8 label fixes only order and commutativity (no 2-subgroup of SL2 x SL2
# is (Z/2)^3), so the abelian Z/2 x Z/4 of dihedral_one_pair meets all three.
_S = "witness 'cyclic_quartic_gso6' has S_phi (Z/2)^2 (order 4), not the I group {}"
_SC = "witness {!r} has S_phi_sc {}, not the rules' {}"
_BRANCHES = "the rules allow only abelian order 16 (invariant factors 4,4) or Q8 x Z/2"
_BTP, _CKF, _DOP = (
    ("binary_tetrahedral_pair", "(Z/2)^2 (order 4)"),
    ("coupled_klein_four", "Q8 x Z/2 (order 16)"),
    ("dihedral_one_pair", "Z/2 x Z/4 (order 8)"),
)
_Z2_2, _Z2_3, _AB8 = "(Z/2)^2 (order 4)", "(Z/2)^3 (order 8)", "abelian order 8 (order 8)"
WITNESS_GRID = {
    ("dihedral1-disjoint", _BTP[0]): None,
    ("dihedral1-disjoint", _CKF[0]): _SC.format(*_CKF, _Z2_2),
    ("dihedral1-disjoint", _DOP[0]): _SC.format(*_DOP, _Z2_2),
    ("dihedral1-twist", _BTP[0]): _SC.format(*_BTP, _Z2_3),
    ("dihedral1-twist", _CKF[0]): _SC.format(*_CKF, _Z2_3),
    ("dihedral1-twist", _DOP[0]): None,
    ("dihedral3-meets-dihedral1", _BTP[0]): _SC.format(*_BTP, _Z2_3),
    ("dihedral3-meets-dihedral1", _CKF[0]): _SC.format(*_CKF, _Z2_3),
    ("dihedral3-meets-dihedral1", _DOP[0]): None,
    ("dihedral3-twist", _BTP[0]): f"witness S_phi_sc is (Z/2)^2; {_BRANCHES}",
    ("dihedral3-twist", _CKF[0]): None,
    ("dihedral3-twist", _DOP[0]): f"witness S_phi_sc is Z/2 x Z/4; {_BRANCHES}",
    ("primitive-twist", _BTP[0]): None,
    ("primitive-twist", _CKF[0]): _SC.format(*_CKF, _Z2_2),
    ("primitive-twist", _DOP[0]): _SC.format(*_DOP, _Z2_2),
    ("reducible-pair", _BTP[0]): _SC.format(*_BTP, _AB8),
    ("reducible-pair", _CKF[0]): _SC.format(*_CKF, _AB8),
    ("reducible-pair", _DOP[0]): None,
    ("gspin6-klein", "cyclic_quartic_gso6"): None,
    ("gspin6-rank3-p2", "cyclic_quartic_gso6"): _S.format("Z/2 x Z/2 x Z/2 (order 8)"),
    ("gspin6-trivial", "cyclic_quartic_gso6"): _S.format("1 (order 1)"),
    ("gspin6-z2xz4", "cyclic_quartic_gso6"): None,
    ("gspin6-z4", "cyclic_quartic_gso6"): _S.format("Z/2 (order 2)"),
}


def test_every_shipped_witness_against_every_shipped_scenario():
    parameters = {
        name: presets.witness_parameter(name)
        for name in presets.witness_names()
        if presets.witness(name)["kind"] == "parameter"
    }
    ambient = {"GSpin4": "GSO4", "GSpin6": "GSO6"}
    seen = set()
    for fname in presets.scenario_names():
        name = fname[: -len(".json")]
        data = presets.scenario_dict(name)
        bare = scenario_report(scenario_from_dict({**data, "witness": None}))
        for wname, phi in parameters.items():
            if phi.ambient != ambient[data["family"]]:
                continue
            seen.add((name, wname))
            scenario = scenario_from_dict({**data, "witness": wname})
            refusal = WITNESS_GRID[(name, wname)]
            if refusal is not None:
                with pytest.raises(ValueError) as err:
                    scenario_report(scenario, phi)
                assert str(err.value) == refusal, (name, wname)
                continue
            report = scenario_report(scenario, phi)
            rep = s_groups(phi)
            # an accepted witness agrees with the scenario on both groups
            assert rep.s_phi_order == report.igroup_order == bare.igroup_order
            assert rep.s_phi_sc.order == 4 * report.igroup_order
            assert report.consistent, (name, wname)
            out, *rest = report.outcomes
            if out.confirmed:  # the witness's S_phi_sc is the group that is counted
                assert not rest
                assert out.structure in (rep.s_phi_sc_label, f"explicit group of order {rep.s_phi_sc.order}")
            else:  # the rules fix it, and the answer is the one without the witness
                assert report.to_dict() == bare.to_dict(), (name, wname)
    assert seen == set(WITNESS_GRID)
