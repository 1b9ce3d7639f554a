import dataclasses
import functools
import hashlib
import itertools

import pytest

from gspinlab import finite_groups, gaussian, presets
from gspinlab.centralizers import s_groups
from gspinlab.finite_groups import (
    CapExceededError,
    CentralCharacter,
    FieldInsufficientError,
    NotFiniteError,
    abelian_invariants,
    elem_mul,
    generate_closure,
    group_id,
    irreps_with_central_character,
)
from gspinlab.gaussian import QI, GaussianMatrix, format_qi


A = GaussianMatrix.from_strings([["i", "0"], ["0", "-i"]])
B = GaussianMatrix.from_strings([["0", "1"], ["-1", "0"]])
I2 = GaussianMatrix.identity(2)
NEG = I2.scale(QI(-1))
X = GaussianMatrix.from_strings([["1", "0"], ["0", "-1"]])


def matrix_inverse(x):
    return tuple(a.inverse() for a in x) if isinstance(x, tuple) else x.inverse()


def brute_force_classes(group):
    # independent orbit oracle: conjugate by every element, with matrix
    # products and matrix inverses rather than the Cayley table
    elems = list(group.elements)
    remaining = set(elems)
    classes = []
    while remaining:
        x = next(iter(remaining))
        orbit = {elem_mul(matrix_inverse(g), elem_mul(x, g)) for g in elems}
        classes.append(frozenset(orbit))
        remaining -= orbit
    return set(classes)


def test_closure_q8():
    g = generate_closure([A, B])
    assert g.order == 8
    assert group_id(g) == "Q8"


def test_closure_mu4():
    g = generate_closure([GaussianMatrix.scalar(4, QI(0, 1))])
    assert g.order == 4
    assert group_id(g) == "Z/4"


def test_closure_unipotent_not_finite():
    with pytest.raises(NotFiniteError):
        generate_closure([GaussianMatrix.from_strings([["1", "1"], ["0", "1"]])], cap=64)


def test_closure_requires_invertible():
    with pytest.raises(ValueError):
        generate_closure([GaussianMatrix.from_strings([["1", "1"], ["1", "1"]])])


def test_closure_generator_order_independent():
    gens = [A, B, A * B]
    base = generate_closure(gens)
    for perm in itertools.permutations(gens):
        assert generate_closure(list(perm)).elements == base.elements


def test_q8_classes_and_center():
    g = generate_closure([A, B])
    classes = g.conjugacy_classes()
    assert len(classes) == 5
    assert {frozenset(c.members) for c in classes} == brute_force_classes(g)
    z = g.center()
    assert z.order == 2 and NEG in z


def test_abelian_group_classes_are_singletons():
    g = generate_closure([GaussianMatrix.scalar(2, QI(0, 1))])
    assert all(c.size == 1 for c in g.conjugacy_classes())


def test_coupled_pair_group_classes():
    g = generate_closure([(A, A), (B, B), (I2, NEG)])
    assert g.order == 16
    assert group_id(g) == "Q8 x Z/2"
    assert len(g.conjugacy_classes()) == 10
    assert {frozenset(c.members) for c in g.conjugacy_classes()} == brute_force_classes(g)


KNOWN_Q8_TABLE = {
    # degree -> sorted character values on classes ordered (1, -1, a, b, ab)
    (1, 1, 1, 1, 1),
    (1, 1, 1, -1, -1),
    (1, 1, -1, 1, -1),
    (1, 1, -1, -1, 1),
    (2, -2, 0, 0, 0),
}


def test_q8_character_table_matches_textbook():
    g = generate_closure([A, B])
    table = g.character_table()
    assert table.degrees() == (1, 1, 1, 1, 2)
    got = set()
    for row in table.rows:
        vals = []
        for v in row.values:
            assert v.im == 0
            vals.append(int(v.re))
        got.add(tuple(vals))
    assert got == KNOWN_Q8_TABLE


def test_z4_character_values():
    g = generate_closure([GaussianMatrix.scalar(2, QI(0, 1))])
    table = g.character_table()
    assert table.degrees() == (1, 1, 1, 1)
    values = {v for row in table.rows for v in row.values}
    assert values == {QI(1), QI(-1), QI(0, 1), QI(0, -1)}


def test_elementary_abelian_table():
    g = generate_closure([(NEG, I2), (I2, NEG), (X, X)])
    assert group_id(g) == "(Z/2)^3"
    table = g.character_table()
    assert table.degrees() == (1,) * 8


def test_tables_catalogue_orthogonality():
    groups = [
        generate_closure([A, B]),
        generate_closure(presets.witness_generators("d4_gl2")),
        generate_closure([(A, A), (B, B), (I2, NEG)]),
        generate_closure([(NEG, I2), (I2, A), (I2, B)]),
        generate_closure([(A, I2), (I2, A)]),
    ]
    for g in groups:
        table = g.character_table()  # orthogonality asserted internally
        assert sum(r.degree**2 for r in table.rows) == g.order
        assert len(table.rows) == len(table.classes)


def test_central_character_partition_counts():
    g = generate_closure([(A, A), (B, B), (I2, NEG)])
    z1, z2 = (NEG, I2), (I2, NEG)
    zs = [(I2.scale(a), I2.scale(b)) for a in (QI(1), QI(-1)) for b in (QI(1), QI(-1))]
    total = 0
    for v1 in (QI(1), QI(-1)):
        for v2 in (QI(1), QI(-1)):
            zeta = CentralCharacter(((z1, v1), (z2, v2)))
            total += len(irreps_with_central_character(g, zs, zeta))
    assert total == len(g.character_table().rows)


def test_central_character_errors():
    g = generate_closure([A, B])
    zs = [I2, NEG]
    bad = CentralCharacter(((NEG, QI(0, 1)),))  # (-I)^2 = I but i^2 = -1
    with pytest.raises(ValueError):
        irreps_with_central_character(g, zs, bad)
    noncentral = CentralCharacter(((A, QI(1)),))
    with pytest.raises(ValueError):
        irreps_with_central_character(g, [I2, A, NEG, A.scale(QI(-1))], noncentral)


def test_central_character_generator_outside_subgroup_rejected():
    # a unipotent generator has infinite order: extending it used to loop forever
    g = generate_closure([A, B])
    unipotent = GaussianMatrix.from_strings([["1", "1"], ["0", "1"]])
    zeta = CentralCharacter(((unipotent, QI(1)),))
    with pytest.raises(ValueError, match="outside the designated subgroup"):
        irreps_with_central_character(g, [I2, NEG], zeta)


def test_mu4_central_character_pickout():
    g = generate_closure([GaussianMatrix.scalar(4, QI(0, 1))])
    z = GaussianMatrix.scalar(4, QI(0, 1))
    zeta = CentralCharacter(((z, QI(0, 1)),))
    rows = irreps_with_central_character(g, list(g.elements), zeta)
    assert len(rows) == 1 and rows[0].degree == 1


def test_field_insufficient_for_exponent_3():
    rot3 = GaussianMatrix.from_strings(
        [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]
    )
    g = generate_closure([rot3])
    with pytest.raises(FieldInsufficientError):
        g.character_table()


def test_table_cap():
    # (Z/4)^5: A in one slot of a 5-tuple, the identity in the others
    gens = [tuple(A if i == j else I2 for j in range(5)) for i in range(5)]
    g = generate_closure(gens, cap=1024)
    assert g.order == 1024
    with pytest.raises(CapExceededError):
        g.character_table()
    with pytest.raises(CapExceededError):
        group_id(g)


def test_group_id_catalogue():
    assert group_id(generate_closure(presets.witness_generators("d4_gl2"))) == "D4"
    assert group_id(generate_closure([(NEG, I2), (I2, NEG)])) == "(Z/2)^2"
    assert group_id(generate_closure([(A, I2), (I2, A)])) == (
        "abelian order 16 (invariant factors 4,4)"
    )
    assert group_id(generate_closure([A])) == "Z/4"
    assert group_id(generate_closure([(A, A), (I2, NEG)])) == "Z/2 x Z/4"
    assert group_id(generate_closure([(NEG, I2), (I2, NEG), (X, X), (A, A)])) == (
        "(Z/2)^2 x Z/4"
    )
    assert group_id(generate_closure([I2])) == "1"
    assert group_id(generate_closure([NEG])) == "Z/2"


def test_group_id_rejects_lookalike():
    # D4 x Z/2 shares the order and center shape but has 11 involutions
    d4gens = presets.witness_generators("d4_gl2")
    g = generate_closure([(m, I2) for m in d4gens] + [(I2, NEG)])
    assert g.order == 16
    assert group_id(g).startswith("unrecognized")


def test_abelian_invariants_oracle():
    # compare against order statistics of a known product
    g = generate_closure([(A, I2), (I2, NEG)])  # Z/4 x Z/2
    inv = abelian_invariants(g)
    assert inv.torsion == (2, 4)
    counts = {}
    for x in g.elements:
        counts[g.element_order(x)] = counts.get(g.element_order(x), 0) + 1
    assert counts == {1: 1, 2: 3, 4: 4}


def test_quotient_group_by_signs():
    g = generate_closure([(A, A), (B, B), (I2, NEG)])
    signs = [(I2.scale(a), I2.scale(b)) for a in (QI(1), QI(-1)) for b in (QI(1), QI(-1))]
    q = g.quotient(signs)
    assert q.order == 4
    assert group_id(q) == "(Z/2)^2"


def witnesses_of_kind(kind):
    return [w for w in presets.witness_names() if presets.witness(w)["kind"] == kind]


def assert_table_matches_matrix_products(group):
    table = group.cayley_table
    for a, x in enumerate(group.elements):
        for b, y in enumerate(group.elements):
            assert table[a][b] == group.index(elem_mul(x, y))


@pytest.mark.parametrize("name", witnesses_of_kind("matrix_group"))
def test_cayley_table_of_matrix_witness(name):
    g = generate_closure(presets.witness_generators(name))
    assert_table_matches_matrix_products(g)
    z = g.center()
    assert g.quotient(z.elements).order == g.order // z.order


@pytest.mark.parametrize("name", witnesses_of_kind("parameter"))
def test_cayley_table_of_parameter_witness(name):
    report = s_groups(presets.witness_parameter(name))
    g = report.s_phi_sc
    assert_table_matches_matrix_products(g)
    assert g.quotient(report.z_elements).order == g.order // len(report.z_elements)


def test_q8_x_q8_table_and_eigen_split_solves(monkeypatch):
    solves = []
    nullspace = finite_groups.nullspace

    def counting(*args):
        solves.append(1)
        return nullspace(*args)

    monkeypatch.setattr(finite_groups, "nullspace", counting)
    g = generate_closure([(A, I2), (I2, A), (B, I2), (I2, B)])
    table = g.character_table()
    assert g.order == 64 and len(table.classes) == 25
    assert table.degrees() == (1,) * 16 + (2,) * 8 + (4,)
    text = "\n".join(" ".join(format_qi(v) for v in row.values) for row in table.rows)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "8b44a977871d0c57d5997e36f46fc9539a2a921cf2ffcada9a3e9d1209c228d1"
    # trying every lam in F_29 for every unsplit space took 1,305 solves
    assert len(solves) <= 930


def matrix_square_check(table):
    """Reference regular-representation check, O(|G|^3) per row: with
    T[u][v] = chi(g_v g_u^-1), T^2 = (|G|/chi(1)) T over Z[i]."""
    group = table.group
    n, mt, inv = group.order, group.cayley_table, group.inverse_index
    for row in table.rows:
        if n % row.degree or any(v.d != 1 for v in row.values):
            return False
        scale = n // row.degree
        vals = [(v.a, v.b) for v in row.values]
        t = [[vals[table.class_of[mt[v][inv[u]]]] for v in range(n)] for u in range(n)]
        for u in range(n):
            for v in range(n):
                sre = sim = 0
                for w in range(n):
                    (are, aim), (bre, bim) = t[u][w], t[w][v]
                    sre += are * bre - aim * bim
                    sim += are * bim + aim * bre
                if (sre, sim) != (scale * t[u][v][0], scale * t[u][v][1]):
                    return False
    return True


def witness_group(name):
    if presets.witness(name)["kind"] == "matrix_group":
        return generate_closure(presets.witness_generators(name))
    return s_groups(presets.witness_parameter(name)).s_phi_sc


@functools.lru_cache(maxsize=None)
def product_table(order):
    gens = {
        16: [(A, A), (B, B), (I2, NEG)],  # Q8 x Z/2
        64: [(A, I2), (I2, A), (B, I2), (I2, B)],  # Q8 x Q8
        128: [(A, I2, I2), (I2, A, I2), (B, I2, I2), (I2, B, I2), (I2, I2, NEG)],  # Q8 x Q8 x Z/2
    }[order]
    return generate_closure(gens).character_table()


def with_top_row_times(table, unit):
    """The table with its largest-degree row multiplied by a unit of Z[i]."""
    top = table.rows[-1]
    doctored = finite_groups.CharacterRow(top.degree, tuple(unit * v for v in top.values))
    return dataclasses.replace(table, rows=table.rows[:-1] + (doctored,))


@pytest.mark.parametrize(
    "name", [w for w in presets.witness_names() if w != "binary_tetrahedral"]
)
def test_witness_tables_pass_check_and_reference(name):
    table = witness_group(name).character_table()
    finite_groups._validate_table(table)
    assert matrix_square_check(table)


def test_q8_x_q8_table_passes_check_and_reference():
    table = product_table(64)
    finite_groups._validate_table(table)
    assert matrix_square_check(table)


@pytest.mark.parametrize("order", [16, 128])
@pytest.mark.parametrize("unit", [QI(-1), QI(0, 1)], ids=["minus_one", "i"])
def test_row_times_unit_fails_regular_representation_check(order, unit):
    # both orthogonality relations still hold for such a row
    doctored = with_top_row_times(product_table(order), unit)
    with pytest.raises(AssertionError, match="regular representation cross-check fails"):
        finite_groups._validate_table(doctored)
    if order == 16:
        assert not matrix_square_check(doctored)


def swapped_classes(table, size, members_too):
    """Swap the class labels of one element each from two classes of ``size``."""
    i, j = [c for c, cls in enumerate(table.classes) if cls.size == size][1:3]
    x, y = table.classes[i].positions[-1], table.classes[j].positions[-1]
    class_of = list(table.class_of)
    class_of[x], class_of[y] = j, i
    classes = list(table.classes)
    if members_too:
        for c, out, into in ((i, x, y), (j, y, x)):
            positions = tuple(sorted(set(classes[c].positions) - {out} | {into}))
            classes[c] = dataclasses.replace(classes[c], positions=positions)
    return dataclasses.replace(table, classes=tuple(classes), class_of=tuple(class_of))


@pytest.mark.parametrize(
    "size, members_too, message",
    [
        (1, False, "classes and class_of do not partition the group alike"),
        (2, False, "classes and class_of do not partition the group alike"),
        (1, True, "regular representation cross-check fails"),
        (2, True, "a class is not closed under conjugation"),
    ],
)
def test_swapped_class_labels_rejected(size, members_too, message):
    doctored = swapped_classes(product_table(16), size, members_too)
    with pytest.raises(AssertionError, match=message):
        finite_groups._validate_table(doctored)


def test_merged_classes_rejected():
    table = product_table(16)
    i, j = [c for c, cls in enumerate(table.classes) if cls.size == 2][:2]
    positions = tuple(sorted(table.classes[i].positions + table.classes[j].positions))
    members = tuple(table.group.elements[p] for p in positions)
    merged = dataclasses.replace(table.classes[i], members=members, positions=positions)
    classes = table.classes[:i] + (merged,) + table.classes[i + 1 : j] + table.classes[j + 1 :]
    class_of = tuple(i if c == j else c - (c > j) for c in table.class_of)
    doctored = dataclasses.replace(table, classes=classes, class_of=class_of)
    with pytest.raises(AssertionError, match="a class is not a single conjugacy class"):
        finite_groups._validate_table(doctored)


def test_table_check_builds_no_gaussian_rationals(monkeypatch):
    table = product_table(64)
    calls = []
    make = gaussian._qi

    def counting(*args):
        calls.append(1)
        return make(*args)

    monkeypatch.setattr(gaussian, "_qi", counting)
    finite_groups._validate_table(table)
    assert calls == []
