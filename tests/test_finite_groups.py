import functools
import hashlib
import importlib.util
import itertools
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from gspinlab import finite_groups, gaussian, presets
from gspinlab.centralizers import s_groups
from gspinlab.finite_groups import (
    CapExceededError,
    CentralCharacter,
    FieldInsufficientError,
    NotFiniteError,
    abelian_invariants,
    generate_closure,
    group_id,
    irreps_with_central_character,
    is_prime,
)
from gspinlab.gaussian import QI, GaussianMatrix, format_qi


A = GaussianMatrix.from_strings([["i", "0"], ["0", "-i"]])
B = GaussianMatrix.from_strings([["0", "1"], ["-1", "0"]])
I2 = GaussianMatrix.identity(2)
NEG = I2.scale(QI(-1))
X = GaussianMatrix.from_strings([["1", "0"], ["0", "-1"]])
Z4 = GaussianMatrix.from_strings([["i", "0"], ["0", "1"]])  # with Z4_, generates (Z/4)^2
Z4_ = GaussianMatrix.from_strings([["1", "0"], ["0", "i"]])
D = GaussianMatrix.block_diagonal


def brute_force_classes(group):
    # independent orbit oracle: conjugate by every element, with matrix
    # products and matrix inverses rather than the Cayley table; the
    # classes are sets of positions
    elems = group.elements
    remaining = set(range(group.order))
    classes = set()
    while remaining:
        x = elems[min(remaining)]
        orbit = frozenset(group.index(g.inverse() * x * g) for g in elems)
        classes.add(orbit)
        remaining -= orbit
    return classes


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
    assert {frozenset(c.positions) for c in classes} == brute_force_classes(g)
    z = g.center()
    assert z.order == 2 and NEG in z


def test_abelian_group_classes_are_singletons():
    g = generate_closure([GaussianMatrix.scalar(2, QI(0, 1))])
    assert all(c.size == 1 for c in g.conjugacy_classes())


def test_coupled_pair_group_classes():
    g = generate_closure([D(A, A), D(B, B), D(I2, NEG)])
    assert g.order == 16
    assert group_id(g) == "Q8 x Z/2"
    assert len(g.conjugacy_classes()) == 10
    assert {frozenset(c.positions) for c in g.conjugacy_classes()} == brute_force_classes(g)


def drawn_groups(count):
    """The first ``count`` distinct groups of ``tools/table_digests.py``'s
    seeded draws: block-diagonal monomial generators, order at most 128."""
    path = Path(__file__).resolve().parents[1] / "tools" / "table_digests.py"
    spec = importlib.util.spec_from_file_location("table_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def matrix(blocks):
        return D(*(GaussianMatrix.from_strings(tool.block_strings(b)) for b in blocks))

    rng = random.Random(tool.SEED)
    groups = {}
    while len(groups) < count:
        _, gens = tool.draw(rng)
        try:
            g = generate_closure([matrix(x) for x in gens], cap=128)
        except NotFiniteError:
            continue
        groups.setdefault(frozenset(g.elements), g)
    return list(groups.values())


def test_classes_match_conjugation_by_every_element():
    groups = drawn_groups(40)
    assert max(g.order for g in groups) == 128 and sum(not g.is_abelian() for g in groups) >= 20
    for g in groups:
        mt, n = g.cayley_table, g.order
        inv = [g.index(x.inverse()) for x in g.elements]
        orbits = {tuple(sorted({mt[inv[h]][mt[x][h]] for h in range(n)})) for x in range(n)}
        orders = g.element_orders
        want = sorted(orbits, key=lambda m: (orders[m[0]], len(m), m[0]))
        got = g.conjugacy_classes()
        assert [c.positions for c in got] == want
        assert all(c.order == orders[x] for c in got for x in c.positions)


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
    assert tuple(r.degree for r in table.rows) == (1, 1, 1, 1, 2)
    got = set()
    for row in table.rows:
        vals = []
        for v in row.values:
            assert v.b == 0 and v.d == 1
            vals.append(v.a)
        got.add(tuple(vals))
    assert got == KNOWN_Q8_TABLE


def test_z4_character_values():
    g = generate_closure([GaussianMatrix.scalar(2, QI(0, 1))])
    table = g.character_table()
    assert tuple(r.degree for r in table.rows) == (1, 1, 1, 1)
    values = {v for row in table.rows for v in row.values}
    assert values == {QI(1), QI(-1), QI(0, 1), QI(0, -1)}


def test_elementary_abelian_table():
    g = generate_closure([D(NEG, I2), D(I2, NEG), D(X, X)])
    assert group_id(g) == "(Z/2)^3"
    table = g.character_table()
    assert tuple(r.degree for r in table.rows) == (1,) * 8
    # e = 2 and p = 7 = 3 mod 4: no square root of -1, so the lift runs with
    # iota = 1; the eight rows must be the eight distinct sign characters
    rows = {row.values for row in table.rows}
    mt, of = g.cayley_table, table.class_of
    assert len(rows) == 8 and all(v in (QI(1), QI(-1)) for row in rows for v in row)
    assert all(r[of[mt[x][y]]] == r[of[x]] * r[of[y]] for r in rows for x in range(8) for y in range(8))


def test_tables_catalogue_orthogonality():
    groups = [
        generate_closure([I2]),  # the trivial group: e = 1
        generate_closure([A, B]),
        generate_closure(presets.witness_generators("d4_gl2")),
        generate_closure([D(A, A), D(B, B), D(I2, NEG)]),
        generate_closure([D(NEG, I2), D(I2, A), D(I2, B)]),
        generate_closure([D(A, I2), D(I2, A)]),
    ]
    for g in groups:
        table = g.character_table()  # orthogonality asserted internally
        assert sum(r.degree**2 for r in table.rows) == g.order
        assert len(table.rows) == len(table.classes)


def test_central_character_partition_counts():
    g = generate_closure([D(A, A), D(B, B), D(I2, NEG)])
    z1, z2 = D(NEG, I2), D(I2, NEG)
    zs = [D(I2.scale(a), I2.scale(b)) for a in (QI(1), QI(-1)) for b in (QI(1), QI(-1))]
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
    # (Z/4)^5: diagonal 5x5 matrices with i in one slot and 1 in the others
    one, i = (GaussianMatrix.scalar(1, z) for z in (QI(1), QI(0, 1)))
    gens = [D(*(i if j == k else one for j in range(5))) for k in range(5)]
    g = generate_closure(gens, cap=1024)
    assert g.order == 1024
    with pytest.raises(CapExceededError):
        g.character_table()
    with pytest.raises(CapExceededError):
        group_id(g)


def test_is_prime_agrees_with_trial_division():
    small = [d for d in range(2, 317) if all(d % e for e in range(2, d))]  # 316^2 < 10^5 < 317^2
    expected = [n for n in range(2, 10**5) if all(n % d for d in small if d * d <= n)]
    assert [n for n in range(10**5) if is_prime(n)] == expected


def test_is_prime_needs_base_41_and_stops_at_its_bound():
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to every
    # prime base up to 37; psi_13, the bound, also to 41
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441 and not is_prime(psi12)
    assert is_prime(2**61 - 1)
    for undecided in (finite_groups.PRIME_TEST_BOUND, 2**89 - 1):
        with pytest.raises(CapExceededError, match="exact only below 3317044064679887385961981"):
            is_prime(undecided)
    # a witness proves compositeness at any size
    assert not is_prime((2**89 - 1) * (2**61 - 1))


def test_group_id_catalogue():
    assert group_id(generate_closure(presets.witness_generators("d4_gl2"))) == "D4"
    assert group_id(generate_closure([D(NEG, I2), D(I2, NEG)])) == "(Z/2)^2"
    assert group_id(generate_closure([D(A, I2), D(I2, A)])) == (
        "abelian order 16 (invariant factors 4,4)"
    )
    assert group_id(generate_closure([A])) == "Z/4"
    assert group_id(generate_closure([D(A, A), D(I2, NEG)])) == "Z/2 x Z/4"
    assert group_id(generate_closure([D(NEG, I2), D(I2, NEG), D(X, X), D(A, A)])) == (
        "(Z/2)^2 x Z/4"
    )
    assert group_id(generate_closure([I2])) == "1"
    assert group_id(generate_closure([NEG])) == "Z/2"


def test_group_id_rejects_lookalike():
    # D4 x Z/2 shares the order and center shape but has 11 involutions
    d4gens = presets.witness_generators("d4_gl2")
    g = generate_closure([D(m, I2) for m in d4gens] + [D(I2, NEG)])
    assert g.order == 16
    assert group_id(g).startswith("unrecognized")
    # Z/4 : Z/4 has its center and its 3 involutions, but its elements of
    # order 4 square to two different involutions
    swap = GaussianMatrix.from_strings([["0", "1"], ["1", "0"]])
    g = generate_closure([D(A, I2), D(swap, I2.scale(QI(0, 1)))])
    assert g.order == 16 and not g.is_abelian()
    assert group_id(g) == "unrecognized (order=16, abelian=no, exponent=4)"


def test_abelian_invariants_oracle():
    # compare against order statistics of a known product
    g = generate_closure([D(A, I2), D(I2, NEG)])  # Z/4 x Z/2
    inv = abelian_invariants(g)
    assert inv.torsion == (2, 4)
    assert Counter(g.element_orders) == {1: 1, 2: 3, 4: 4}


def test_quotient_group_by_signs():
    g = generate_closure([D(A, A), D(B, B), D(I2, NEG)])
    signs = [D(I2.scale(a), I2.scale(b)) for a in (QI(1), QI(-1)) for b in (QI(1), QI(-1))]
    q = g.quotient(signs)
    assert q.order == 4
    assert group_id(q) == "(Z/2)^2"
    coupled = [D(I2, I2), D(A, A), D(NEG, NEG), D(A, A).scale(QI(-1))]  # a subgroup, not central
    for bad in (coupled, signs[:3]):  # three signs: central, not closed
        with pytest.raises(ValueError, match="quotient needs a central subgroup"):
            g.quotient(bad)


def witnesses_of_kind(kind):
    return [w for w in presets.witness_names() if presets.witness(w)["kind"] == kind]


def assert_table_matches_matrix_products(group):
    table = group.cayley_table
    for a, x in enumerate(group.elements):
        for b, y in enumerate(group.elements):
            assert table[a][b] == group.index(x * y)


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
    empty = []  # per solve, whether it came back empty
    nullspace = finite_groups.nullspace

    def counting(*args):
        null = nullspace(*args)
        empty.append(not null)
        return null

    monkeypatch.setattr(finite_groups, "nullspace", counting)
    g = generate_closure([D(A, I2), D(I2, A), D(B, I2), D(I2, B)])
    table = g.character_table()
    assert g.order == 64 and len(table.classes) == 25
    assert tuple(r.degree for r in table.rows) == (1,) * 16 + (2,) * 8 + (4,)
    assert row_digest(table) == "8b44a977871d0c57d5997e36f46fc9539a2a921cf2ffcada9a3e9d1209c228d1"
    # one solve per eigenvalue of each restricted noncentral class-sum
    # matrix, and never one at a residue that is not a root; the centre
    # (Z/2)^2 cuts F_p^25 into blocks of 16, 4, 4 and 1 before any solve
    assert len(empty) == 49 and not any(empty)


def test_abelian_table_solves_nothing(monkeypatch):
    # every class of (Z/4)^3 is central: each block of the centre-first split
    # is one line, so no class-sum matrix, characteristic polynomial or solve
    calls = []

    def refuse(name):
        def call(*args):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return call

    for name in ("nullspace", "_charpoly", "gauss_jordan"):
        monkeypatch.setattr(finite_groups, name, refuse(name))
    g = generate_closure([D(Z4, I2), D(Z4_, I2), D(I2, Z4)])
    table = g.character_table()
    assert g.order == 64 and len(table.classes) == 64 and calls == []
    assert {r.degree for r in table.rows} == {1}


def row_digest(table):
    text = "\n".join(" ".join(format_qi(v) for v in row.values) for row in table.rows)
    return hashlib.sha256(text.encode()).hexdigest()


def test_q8_x_q8_x_z2_table_pin():
    table = product_table(128)
    assert len(table.classes) == 50
    assert row_digest(table) == "6f84688666e0c4bfaf1c30325855249266f8c88ff48d0f38a1468e820f152dea"


def test_q8_q8_z2_cubed_table_pin():
    # order 512 with 200 classes and a centre of order 32; the digest was
    # recorded from the split that started from the whole of F_p^k
    g = generate_closure(
        [D(A, I2, I2, I2), D(B, I2, I2, I2), D(I2, A, I2, I2), D(I2, B, I2, I2)]
        + [D(I2, I2, X, I2), D(I2, I2, X.scale(QI(-1)), I2), D(I2, I2, I2, X)]
    )
    table = g.character_table()
    assert g.order == 512 and len(table.classes) == 200
    assert row_digest(table) == "140ec3e50bc51e173f3518dd4013f2a569724bcbbc7c648f08551e89e3790eb5"


def test_z4_to_the_fourth_table_pin():
    # abelian, 256 classes: every row is read off the centre with no solve;
    # the digest was recorded from the split that started from the whole of F_p^k
    g = generate_closure([D(Z4, I2, I2), D(Z4_, I2, I2), D(I2, Z4, I2), D(I2, Z4_, I2)])
    table = g.character_table()
    assert g.order == 256 and len(table.classes) == 256
    assert row_digest(table) == "91881f80b7990d833a70f5b3d496eb06805729f7a84064f7020496e916c565ac"


def pauli_group(qubits):
    """The real Pauli group on ``qubits`` qubits, generated by the Kronecker
    products with one X = [[0, 1], [1, 0]] or Z = diag(1, -1) among identities:
    extraspecial of order 2^(1 + 2 qubits), with centre {I, -I}."""

    def kron(a, b):
        return [[x * y for x in ra for y in rb] for ra in a for rb in b]

    def one(m, at):
        out = [[1]]
        for q in range(qubits):
            out = kron(out, m if q == at else [[1, 0], [0, 1]])
        return GaussianMatrix.from_strings([[str(x) for x in row] for row in out])

    return generate_closure([one(m, q) for q in range(qubits) for m in ([[0, 1], [1, 0]], [[1, 0], [0, -1]])])


def test_extraspecial_table_lifts_its_largest_degree():
    # 2^(1+6): the 64 linear characters share the trivial central block, split
    # by solves, and the one character over -I has degree 8, 8 at I and -8 at
    # -I, 0 elsewhere; the prime must exceed 16 to lift it
    g = pauli_group(3)
    table = g.character_table()
    assert g.order == 128 and len(table.classes) == 65
    assert [r.degree for r in table.rows] == [1] * 64 + [8]
    top = [format_qi(v) for v in table.rows[-1].values]
    assert top[:2] == ["8", "-8"] and set(top[2:]) == {"0"}


def test_q8_cubed_table_pin():
    # the order-512 cap; the digest was recorded from a split that tried
    # every residue in turn, so it does not rest on the root finding
    g = generate_closure(
        [D(A, I2, I2), D(I2, A, I2), D(I2, I2, A), D(B, I2, I2), D(I2, B, I2), D(I2, I2, B)]
    )
    table = g.character_table()
    assert g.order == 512 and len(table.classes) == 125
    assert row_digest(table) == "01a80358c0b19bf2fed999024856d54828d048452fa922698278a81562f7c5ce"


@pytest.mark.parametrize(
    "doctor, message, solves",
    [
        # Q8: the centre {1, -1} leaves the four linear characters in one block
        # of dimension 4 (the degree-2 character is a block of its own). The first
        # noncentral class sum has the roots 2 and -2, each with a plane; the
        # second solve is made to come back empty
        pytest.param(
            lambda call, null: [] if call == 2 else null,
            "a root of a class-sum matrix's characteristic polynomial has no eigenline",
            2,
            id="root-without-line",
        ),
        # the first solve is made to lose a line of its plane, and the block's
        # two solves then find 3 lines where 4 were due
        pytest.param(
            lambda call, null: null[:1] if call == 1 else null,
            "the eigenspaces of a class-sum matrix do not fill its space",
            2,
            id="spaces-short",
        ),
    ],
)
def test_eigen_split_refuses_a_root_without_its_eigenspace(monkeypatch, doctor, message, solves):
    nullspace = finite_groups.nullspace
    calls = []

    def doctored(*args):
        calls.append(1)
        return doctor(len(calls), nullspace(*args))

    g = generate_closure([A, B])
    monkeypatch.setattr(finite_groups, "nullspace", doctored)
    with pytest.raises(AssertionError, match=re.escape(message)):
        g.character_table()
    assert len(calls) == solves


def determinant_mod(rows, p):
    """det of a square matrix mod p by plain elimination, as the oracle for _charpoly."""
    a = [[x % p for x in row] for row in rows]
    det = 1
    for c in range(len(a)):
        r = next((r for r in range(c, len(a)) if a[r][c]), None)
        if r is None:
            return 0
        if r != c:
            a[c], a[r] = a[r], a[c]
            det = -det
        det = det * a[c][c] % p
        t = pow(a[c][c], p - 2, p)
        for r in range(c + 1, len(a)):
            u = a[r][c] * t % p
            a[r] = [(x - u * y) % p for x, y in zip(a[r], a[c])]
    return det % p


def test_charpoly_matches_determinants_at_every_residue():
    rng = random.Random(20261019)
    for p in (5, 13, 29, 53):
        for m in range(1, 9):
            # sparse draws reach the Hessenberg row swaps and skipped columns
            for zeros in (0.0, 0.5, 0.8) * 4:
                a = [[0 if rng.random() < zeros else rng.randrange(p) for _ in range(m)] for _ in range(m)]
                cp = finite_groups._charpoly(a, p)
                assert len(cp) == m + 1 and cp[-1] == 1
                for lam in range(p):
                    shifted = [[(lam if i == j else 0) - a[i][j] for j in range(m)] for i in range(m)]
                    value = sum(c * pow(lam, d, p) for d, c in enumerate(cp)) % p
                    assert value == determinant_mod(shifted, p)
                    assert finite_groups._horner(cp, lam, p) == value


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
        16: [D(A, A), D(B, B), D(I2, NEG)],  # Q8 x Z/2
        64: [D(A, I2), D(I2, A), D(B, I2), D(I2, B)],  # Q8 x Q8
        128: [D(A, I2, I2), D(I2, A, I2), D(B, I2, I2), D(I2, B, I2), D(I2, I2, NEG)],  # Q8 x Q8 x Z/2
    }[order]
    return generate_closure(gens).character_table()


def with_top_row_times(table, unit):
    """The table with its largest-degree row multiplied by a unit of Z[i]."""
    top = table.rows[-1]
    doctored = finite_groups.CharacterRow(top.degree, tuple(unit * v for v in top.values))
    rows = table.rows[:-1] + (doctored,)
    return finite_groups.CharacterTable(table.group, table.classes, rows, table.class_of)


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
            classes[c] = finite_groups.ConjClass(classes[c].order, positions)
    return finite_groups.CharacterTable(table.group, tuple(classes), table.rows, tuple(class_of))


@pytest.mark.parametrize(
    "size, members_too, message",
    [
        (1, False, "classes and class_of do not partition the group alike"),
        (2, False, "classes and class_of do not partition the group alike"),
        # two central elements swap labels: each class is still a class, and
        # the central certificate is the first check to see the values move
        (1, True, "a row is not a central character times itself"),
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
    merged = finite_groups.ConjClass(table.classes[i].order, positions)
    classes = table.classes[:i] + (merged,) + table.classes[i + 1 : j] + table.classes[j + 1 :]
    class_of = tuple(i if c == j else c - (c > j) for c in table.class_of)
    doctored = finite_groups.CharacterTable(table.group, classes, table.rows, class_of)
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
