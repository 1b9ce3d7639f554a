"""The bundled regression catalogue behind the ``verify-paper`` command.

Each item replays one of the distinguished reference computations end to
end (center structures, the exact sequences, the distinguished isomorphism
matrices, witness component groups, packet tables, square-class bounds) and
reports pass/fail. The whole catalogue runs in seconds.
"""
from __future__ import annotations

from typing import Callable, List, Tuple

from . import presets
from .centralizers import s_groups, sl_level_group, verify_extension
from .finite_groups import group_id
from .lattice import AbelianGroupStructure, IntMatrix, kernel_basis, solve_integral
from .morphisms import check_isomorphism, search_isomorphisms, verify_dual_identification
from .packets import (
    consistency_check,
    igroup_gspin4,
    igroup_gspin6,
    packet_sizes,
    scenario_from_dict,
    scenario_report,
    sgroup_structure_gspin4,
    square_class_bound,
)
from .root_datum import (
    center_structure,
    central_quotient_datum,
    dual_sc_center,
    gl_datum,
    gspin_datum,
    is_central_cocharacter_of_order_two,
    product_datum,
    similitude_kernel_datum,
    sl_datum,
    verify_exact_sequence,
)


class ItemResult:
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str):
        self.name = name
        self.ok = ok
        self.detail = detail


def _expect(cond: bool, detail: str) -> Tuple[bool, str]:
    return bool(cond), detail


def _item_perp_lattice():
    m = IntMatrix([[1, 1, -1, -1]])
    kb = kernel_basis(m)
    prod = m * kb
    zero = all(x == 0 for row in prod.iter_rows() for x in row)
    return _expect(kb.cols == 3 and zero, f"kernel rank {kb.cols}")


def _item_center(n):
    got = center_structure(gspin_datum(n))
    return _expect(got == AbelianGroupStructure(1, (2,)), f"center {got}")


def _item_sc_center(n, want):
    got = dual_sc_center(gspin_datum(n))
    return _expect(got.torsion == want, f"sc center {got}")


def _item_central_element(n):
    d = gspin_datum(n)
    y = (1,) + (0,) * n
    return _expect(
        is_central_cocharacter_of_order_two(d, y),
        "distinguished cocharacter at -1 is central of order 2",
    )


def _item_simker(case):
    if case == 4:
        sim = similitude_kernel_datum(presets.datum("GL2xGL2"), (1, 1, -1, -1))
        target = gspin_datum(2)
    else:
        sim = similitude_kernel_datum(presets.datum("GL1xGL4"), (-2, 1, 1, 1, 1))
        target = gspin_datum(3)
    maps = search_isomorphisms(target, sim)
    return _expect(bool(maps), f"{len(maps)} isomorphism(s) found")


def _item_central_quotient():
    amb = product_datum(gl_datum(1), product_datum(sl_datum(2), sl_datum(2)))
    quo = central_quotient_datum(amb, [((1, 1, 1), 2)])
    maps = search_isomorphisms(gspin_datum(2), quo)
    return _expect(bool(maps), f"{len(maps)} isomorphism(s) found")


def _item_sequence(name):
    ok = verify_exact_sequence(presets.sequence(name))
    return _expect(ok, "sequence exact")


def _item_s_matrix(case):
    if case == 4:
        f, dom, cod = presets.datum_map("gspin4_to_g4")
        maps = search_isomorphisms(dom, cod, assignment=(0, 1), det_sign=1)
    else:
        f, dom, cod = presets.datum_map("gspin6_to_g6")
        maps = search_isomorphisms(dom, cod, assignment=(0, 1, 2), det_sign=1)
    unique = len(maps) == 1 and maps[0].iota == f.iota
    adjoint = f.iota_vee == f.iota.transpose()
    checked = check_isomorphism(f, dom, cod)
    return _expect(
        unique and adjoint and checked,
        f"search returned {len(maps)} map(s); stored matrix verified={checked}",
    )


def _item_dual_identification(case, ambient_name):
    ok, detail = verify_dual_identification(case, presets.datum(ambient_name))
    return _expect(ok, str(detail))


def _item_perturbed_kernel():
    ok, detail = verify_dual_identification(
        "GSpin4", presets.datum("GL2xGL2"), kernel=(1, 1, 1, 1)
    )
    return _expect(not ok, f"perturbed kernel rejected: {detail}")


def _item_realizations(case):
    data = presets.realization_data(case)
    f, dom, cod = presets.datum_map(data["map"])
    basis = IntMatrix.from_columns(data["cochar_basis"])
    okall = True
    details = []
    for i, cochar in enumerate(data["realizations"]):
        coords = solve_integral(basis, cochar)
        if coords is None:
            okall = False
            details.append(f"e{i}: not in the cocharacter lattice")
            continue
        image = f.iota_vee.apply(coords)
        want = tuple(1 if j == i else 0 for j in range(dom.rank))
        if image != want:
            okall = False
            details.append(f"e{i}: image {image}")
    for rej in data["rejected"]:
        coords = solve_integral(basis, rej["cochar"])
        if coords is not None:
            image = f.iota_vee.apply(coords)
            want = tuple(1 if j == rej["index"] else 0 for j in range(dom.rank))
            if image == want:
                okall = False
                details.append(f"rejected variant {rej['index']} unexpectedly passed")
    return _expect(okall, "; ".join(details) or "realizations match the transpose map")


def _item_klein_q8():
    group = sl_level_group(presets.witness_generators("klein_four_sl2"))
    gid = group_id(group)
    return _expect(group.order == 8 and gid == "Q8", f"order {group.order}, id {gid}")


def _item_coupled_klein():
    rep = s_groups(presets.witness_parameter("coupled_klein_four"))
    ok = (
        rep.s_phi_sc.order == 16
        and rep.s_phi_sc_label == "Q8 x Z/2"
        and rep.s_phi_label == "(Z/2)^2"
        and rep.extension_ok
        and verify_extension(rep)
        and rep.z_hat.torsion == (2, 2)
    )
    return _expect(
        ok,
        f"order {rep.s_phi_sc.order}, {rep.s_phi_sc_label}, quotient {rep.s_phi_label}",
    )


def _item_primitive_witness():
    rep = s_groups(presets.witness_parameter("binary_tetrahedral_pair"))
    ok = rep.s_phi_sc_label == "(Z/2)^2" and rep.s_phi_label == "1"
    return _expect(ok, f"{rep.s_phi_sc_label}, quotient {rep.s_phi_label}")


def _item_extension_order8():
    rep = s_groups(presets.witness_parameter("dihedral_one_pair"))
    ok = rep.s_phi_sc.order == 8 and rep.s_phi_order == 2 and verify_extension(rep)
    return _expect(ok, f"8 = 4 * {rep.s_phi_order}")


def _item_packet_q8z2():
    out = packet_sizes("Q8 x Z/2", "GSpin4", 4)
    ok = (
        out.sizes == {"split": 4, "2-1": 1, "1-1": 1}
        and out.multiplicities == {"split": 1, "2-1": 2, "1-1": 2}
        and out.degrees["split"] == (1, 1, 1, 1)
        and out.degrees["2-1"] == (2,)
        and out.degrees["1-1"] == (2,)
    )
    return _expect(ok, f"sizes {out.sizes}, multiplicities {out.multiplicities}")


def _item_packet_z2cubed():
    out = packet_sizes("(Z/2)^3", "GSpin4", 2)
    ok = out.sizes == {"split": 2, "2-1": 2, "1-1": 2} and out.multiplicities == {
        "split": 1,
        "2-1": 1,
        "1-1": 1,
    }
    return _expect(ok, f"sizes {out.sizes}")


def _scenario(name: str):
    """A shipped scenario, decoded as ``packets`` decodes it."""
    return scenario_from_dict(presets.scenario_dict(name))


def _item_igroup_dihedral3():
    got = igroup_gspin4(_scenario("dihedral3-twist"))
    return _expect(got.torsion == (2, 2), f"I = {got}")


def _item_igroup_primitive():
    got = igroup_gspin4(_scenario("primitive-twist"))
    return _expect(got.torsion == (), f"I = {got}")


def _item_sgroup_labels():
    infos = []
    for name in ("primitive-twist", "dihedral1-twist", "dihedral3-twist"):
        s = _scenario(name)
        infos.append(sgroup_structure_gspin4(s, igroup_gspin4(s)))
    info1, info2, info3 = infos
    ok = (
        info1.label == "(Z/2)^2"
        and info2.label == "(Z/2)^3"
        and info3.q8_possible
        and info3.label.endswith("or Q8 x Z/2")
    )
    return _expect(ok, "; ".join(info.label for info in infos))


def _item_bounds():
    b3 = square_class_bound(3, 1)
    b2 = square_class_bound(2, 1)
    ok = b3 == (4, [1, 2, 4]) and b2 == (8, [1, 2, 4, 8])
    return _expect(ok, f"(3,1) -> {b3}, (2,1) -> {b2}")


def _item_consistency():
    sc = _scenario("dihedral3-twist")
    rep = scenario_report(sc, presets.witness_parameter(sc.witness))
    ok1 = rep.consistent and consistency_check(rep, 4)
    rep2 = scenario_report(_scenario("dihedral1-twist"))
    ok2 = rep2.consistent and consistency_check(rep2, 4)
    return _expect(ok1 and ok2, "both reference scenarios consistent against bound 4")


def _item_gspin6_two_torsion():
    got = igroup_gspin6(_scenario("gspin6-z4"))
    ok = got.torsion == (2,)
    got2 = igroup_gspin6(_scenario("gspin6-klein"))
    ok2 = got2.torsion == (2, 2)
    return _expect(ok and ok2, f"Z/4 -> {got}; (Z/2)^2 -> {got2}")


CATALOGUE: List[Tuple[str, Callable[[], Tuple[bool, str]]]] = [
    ("lattice/orthogonal-complement-rank", _item_perp_lattice),
    ("datum/center-rank4", lambda: _item_center(2)),
    ("datum/center-rank6", lambda: _item_center(3)),
    ("datum/sc-center-rank4", lambda: _item_sc_center(2, (2, 2))),
    ("datum/sc-center-rank6", lambda: _item_sc_center(3, (4,))),
    ("datum/central-element-order2-rank4", lambda: _item_central_element(2)),
    ("datum/central-element-order2-rank6", lambda: _item_central_element(3)),
    ("datum/similitude-kernel-rank4", lambda: _item_simker(4)),
    ("datum/similitude-kernel-rank6", lambda: _item_simker(6)),
    ("datum/central-quotient-rank4", _item_central_quotient),
    ("sequence/rank4", lambda: _item_sequence("gspin4_in_gl2xgl2")),
    ("sequence/rank6", lambda: _item_sequence("gspin6_in_gl1xgl4")),
    ("iso/distinguished-matrix-rank4", lambda: _item_s_matrix(4)),
    ("iso/distinguished-matrix-rank6", lambda: _item_s_matrix(6)),
    ("iso/dual-identification-rank4", lambda: _item_dual_identification("GSpin4", "GL2xGL2")),
    ("iso/dual-identification-rank6", lambda: _item_dual_identification("GSpin6", "GL1xGL4")),
    ("iso/perturbed-kernel-rejected", _item_perturbed_kernel),
    ("iso/cocharacter-realizations-rank4", lambda: _item_realizations("G4")),
    ("iso/cocharacter-realizations-rank6", lambda: _item_realizations("G6")),
    ("witness/klein-line-gives-q8", _item_klein_q8),
    ("witness/coupled-klein-order16", _item_coupled_klein),
    ("witness/primitive-type-trivial", _item_primitive_witness),
    ("witness/order8-extension", _item_extension_order8),
    ("packets/q8z2-table", _item_packet_q8z2),
    ("packets/z2cubed-table", _item_packet_z2cubed),
    ("rules/stabilizer-dihedral3", _item_igroup_dihedral3),
    ("rules/stabilizer-primitive", _item_igroup_primitive),
    ("rules/extension-labels", _item_sgroup_labels),
    ("rules/square-class-bounds", _item_bounds),
    ("rules/consistency-checks", _item_consistency),
    ("rules/rank6-two-torsion", _item_gspin6_two_torsion),
]


def run_catalogue() -> List[ItemResult]:
    out = []
    for name, fn in CATALOGUE:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure with the reason recorded
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        out.append(ItemResult(name, ok, detail))
    return out
