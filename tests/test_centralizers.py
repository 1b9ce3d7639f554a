import random
from itertools import combinations, permutations, product

import pytest

from gspinlab import centralizers, presets
from gspinlab.centralizers import (
    CentralizerReport,
    MU2,
    NormalizationError,
    NotEllipticError,
    ParameterImage,
    s_groups,
    sl_level_group,
    sl_normalize,
    twisted_centralizer_space,
    verify_extension,
)
from gspinlab.finite_groups import FiniteMatrixGroup, NotFiniteError, closure_tree, group_id
from gspinlab.gaussian import FOURTH_ROOTS, QI, GaussianMatrix, parse_qi

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
    for nu in product(MU2, repeat=2):
        sp = twisted_centralizer_space(KLEIN, list(nu))
        assert len(sp) == 1
        for other in seen:
            prod = sp[0] * other.inverse()
            # matrices from distinct twists never differ by a scalar
            assert prod.entry(0, 1) or prod.entry(1, 0) or (
                prod.entry(0, 0) != prod.entry(1, 1)
            )
        seen.append(sp[0])


@pytest.mark.parametrize(
    "images, nu, message",
    [
        ([], [], "no generator images"),
        ([A, GaussianMatrix.identity(4)], [ONE, ONE], "generator images of mixed size"),
        (KLEIN, [ONE], "one twist value per generator required"),
        ([A, GaussianMatrix.from_strings([["1", "1"], ["1", "1"]])], [ONE, ONE],
         "generator images must be invertible"),
    ],
)
def test_twisted_centralizer_space_refuses_bad_input(images, nu, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        twisted_centralizer_space(images, nu)


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
    for g in rep.s_phi_sc.elements:
        x, y = (GaussianMatrix([g.row(i)[k : k + 2] for i in (k, k + 1)]) for k in (0, 2))
        assert GaussianMatrix.block_diagonal(x, y) == g
        assert x in q1 and y in q2


def test_rank6_sl_level_normalization_obstruction():
    # the quartic-twist line of the rank-6 witness is spanned by a matrix of
    # determinant -1; its SL4 normalization needs an eighth root of unity,
    # which Q(i) lacks, and the engine must refuse rather than approximate
    phi6 = presets.witness_parameter("cyclic_quartic_gso6")
    with pytest.raises(NormalizationError, match=r"fourth root in Q\(i\) at twist \(1, i\)$"):
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
    with pytest.raises(NotEllipticError, match=r"dimension 2 at twist \(1\), factor 0$"):
        s_groups(phi)


def test_cap_stops_twist_work_early(monkeypatch):
    phi = presets.witness_parameter("coupled_klein_four")
    calls = []
    orig = centralizers.twisted_centralizer_space

    def counting(images, nu):
        calls.append(tuple(nu))
        return orig(images, nu)

    monkeypatch.setattr(centralizers, "twisted_centralizer_space", counting)
    # the first live twist gives 4 elements; the second passes cap 4 and
    # stops the loop before the last two twists are solved
    with pytest.raises(NotFiniteError, match="assembled group exceeds cap 4"):
        s_groups(phi, cap=4)
    assert len(calls) == 4
    # a full run solves every sign twist (2^2) in both factors
    calls.clear()
    s_groups(phi)
    assert len(calls) == 2**2 * 2
    assert set(calls) == set(product(MU2, repeat=2))


def test_twists_breaking_an_image_relation_are_dead():
    # w3 has projective order 3 in both factors; a twist with nu_3 = -1
    # would need nu_3^3 = -1 to equal 1, so its space is empty
    phi = presets.witness_parameter("binary_tetrahedral_pair")
    for images in phi.factor_images():
        g3 = images[2]
        cube = g3 * g3 * g3
        assert cube == GaussianMatrix.scalar(2, cube.entry(0, 0))
        assert g3 != GaussianMatrix.scalar(2, g3.entry(0, 0))
        for nu in product(MU2, repeat=3):
            if nu[2] == MINUS:
                assert twisted_centralizer_space(images, nu) == []


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
    wrong = CentralizerReport(
        rep.ambient,
        rep.s_phi_sc,
        rep.s_phi_sc_label,
        rep.s_phi_label,
        rep.s_phi_order + 1,
        rep.z_hat,
        rep.z_elements,
        rep.extension_ok,
        rep.twists,
    )
    assert not verify_extension(wrong)


def test_projective_closure_orders():
    phi = presets.witness_parameter("coupled_klein_four")
    assert phi.projective_closure_order() == 4
    # commutators leave a scalar residue in the similitude quotient, so the
    # image there is twice the projective-linear image of order 16
    phi6 = presets.witness_parameter("cyclic_quartic_gso6")
    assert phi6.projective_closure_order() == 32


# The canonical-form closure that ``projective_closure_order`` replaced: each
# pair is reduced modulo the ambient's scalar kernel, {(c, c^-1)} or
# {(z^-2, z)}, by making the first nonzero entry of its matrix 1.
def _oracle_canonical(ambient, g):
    m = g[1]
    c = next(m.entry(*divmod(k, m.n)) for k, (x, y) in enumerate(zip(m.a, m.b)) if x or y)
    if ambient == "GSO4":
        return (g[0].scale(c), m.scale(c.inverse()))
    return (g[0] * c * c, m.scale(c.inverse()))


def _oracle_closure(ambient, generators, cap=4096):
    """The order of the image, or the refusal message."""
    if ambient == "GSO4":
        ident = (I2, I2)
    else:
        ident = (ONE, GaussianMatrix.identity(4))
    try:
        tree, _ = closure_tree(
            _oracle_canonical(ambient, ident),
            [_oracle_canonical(ambient, g) for g in generators],
            lambda x, y: _oracle_canonical(ambient, (x[0] * y[0], x[1] * y[1])),
            cap,
            f"projective image not finite within cap {cap}",
        )
    except NotFiniteError as exc:
        return str(exc)
    return len(tree)


NON_UNITS = tuple(map(parse_qi, ("2", "1+i", "1/2", "-3i")))
# a binary tetrahedral element (denominator 2), one of order 6 and a unipotent
SPECIAL_2X2 = tuple(
    GaussianMatrix.from_strings(m)
    for m in (
        [["-1/2-1/2i", "-1/2-1/2i"], ["1/2-1/2i", "-1/2+1/2i"]],
        [["0", "-1"], ["1", "1"]],
        [["1", "1"], ["0", "1"]],
    )
)


def _random_entry(rng):
    return rng.choice(NON_UNITS) if rng.random() < 0.04 else rng.choice(FOURTH_ROOTS)


def _random_2x2(rng):
    if rng.random() < 0.25:
        return rng.choice(SPECIAL_2X2).scale(rng.choice(FOURTH_ROOTS))
    a, b, z = _random_entry(rng), _random_entry(rng), QI(0)
    return GaussianMatrix([[a, z], [z, b]] if rng.random() < 0.5 else [[z, a], [b, z]])


def _random_4x4(rng):
    if rng.random() < 0.3:
        return GaussianMatrix.block_diagonal(_random_2x2(rng), _random_2x2(rng))
    perm = rng.choice(list(permutations(range(4))))
    e = [_random_entry(rng) for _ in range(4)]
    return GaussianMatrix([[e[r] if c == perm[r] else QI(0) for c in range(4)] for r in range(4)])


def _random_generators(rng, ambient):
    """One or two generators, each moved by a kernel element (c, c^-1) or (c^-2, c)."""
    gens = []
    for _ in range(rng.randint(1, 2)):
        c = rng.choice(NON_UNITS) if rng.random() < 0.3 else ONE
        if ambient == "GSO4":
            x = _random_2x2(rng)
            y = x if rng.random() < 0.3 else _random_2x2(rng)
            gens.append((x.scale(c), y.scale(c.inverse())))
        else:
            gens.append((_random_entry(rng) * c.inverse() * c.inverse(), _random_4x4(rng).scale(c)))
    return tuple(gens)


def test_projective_closure_matches_canonical_form_oracle():
    rng = random.Random(14)
    seen = set()
    for _ in range(12):
        for ambient in ("GSO4", "GSO6"):
            gens = _random_generators(rng, ambient)
            expected = _oracle_closure(ambient, gens)
            try:
                phi = ParameterImage(ambient, gens)
            except NotFiniteError as exc:
                assert str(exc) == expected, gens
                seen.add((ambient, "refused"))
                continue
            order = phi.projective_closure_order()
            assert order == expected, gens
            seen.add((ambient, "finite"))
            if any(isinstance(m, GaussianMatrix) and m.d > 1 for g in gens for m in g):
                seen.add((ambient, "denominator"))
            if 1 < order <= 512:
                # both refuse once the cap falls one short of the order
                with pytest.raises(NotFiniteError) as err:
                    phi.projective_closure_order(order - 1)
                assert str(err.value) == _oracle_closure(ambient, gens, order - 1)
    assert seen == {
        (a, kind) for a in ("GSO4", "GSO6") for kind in ("refused", "finite", "denominator")
    }


# The entrywise QI formula that ``_standard_image`` replaced.
def _entrywise_image(ambient, g):
    if ambient == "GSO4":
        x, y = ([m.row(i) for i in range(2)] for m in g)
        idx = list(product(range(2), repeat=2))
        return GaussianMatrix([[x[i][j] * y[k][l] for j, l in idx] for i, k in idx])
    a, e = g[0], [g[1].row(i) for i in range(4)]
    pairs = list(combinations(range(4), 2))
    return GaussianMatrix(
        [[a * (e[i][k] * e[j][l] - e[i][l] * e[j][k]) for k, l in pairs] for i, j in pairs]
    )


def _dense(rng, n):
    entries = NON_UNITS + FOURTH_ROOTS + (QI(0),) * 4
    return GaussianMatrix([[rng.choice(entries) for _ in range(n)] for _ in range(n)])


def test_standard_image_matches_entrywise_oracle():
    rng = random.Random(1701)
    checked = with_denominator = 0
    for _ in range(150):
        for ambient in ("GSO4", "GSO6"):
            gens = list(_random_generators(rng, ambient))
            if ambient == "GSO4":
                gens.append((_dense(rng, 2), _dense(rng, 2)))
            else:
                gens.append((rng.choice(NON_UNITS + FOURTH_ROOTS), _dense(rng, 4)))
            for g in gens:
                image = centralizers._standard_image(ambient, g)
                assert image == _entrywise_image(ambient, g), g
                checked += 1
                with_denominator += image.d > 1
    assert checked >= 700
    assert with_denominator >= 100


def test_parameter_json_roundtrip():
    c = GaussianMatrix.from_strings([["1", "0"], ["0", "i"]])
    unequal = ParameterImage("GSO4", ((A, c), (B, B)))  # h1 != h2 in the first pair
    names = ("coupled_klein_four", "cyclic_quartic_gso6")
    for phi in [*map(presets.witness_parameter, names), unequal]:
        again = ParameterImage.from_dict(phi.to_dict())
        assert again == phi and hash(again) == hash(phi)


def test_parameter_value_semantics():
    phi = presets.witness_parameter("coupled_klein_four")
    assert phi != ParameterImage(phi.ambient, phi.generators, phi.labels + ("extra",))
    assert phi != ParameterImage(phi.ambient, phi.generators[:1], phi.labels)
    assert phi != presets.witness_parameter("dihedral_one_pair")
    assert phi != phi.to_dict()
    bare = ParameterImage(generators=phi.generators, ambient="GSO4")
    assert bare.labels == () and bare == ParameterImage("GSO4", phi.generators)
    with pytest.raises(AttributeError):
        phi.labels = ()


def test_parameter_construction_runs_post_init_once(monkeypatch):
    # perfbench times parameter construction by patching this hook
    calls = []
    check = ParameterImage.__post_init__

    def counting(self):
        calls.append(self.ambient)
        check(self)

    monkeypatch.setattr(ParameterImage, "__post_init__", counting)
    presets.witness_parameter("cyclic_quartic_gso6")
    assert calls == ["GSO6"]


def test_parameter_validation():
    sing = GaussianMatrix.from_strings([["1", "1"], ["1", "1"]])
    i4 = GaussianMatrix.identity(4)
    for ambient, gens, message in (
        ("GSO5", ((A, A),), "unknown ambient 'GSO5'"),
        ("GSO4", (), "parameter needs at least one generator"),
        ("GSO4", ((A,),), "GSO4 generators are pairs of 2x2 matrices"),
        ("GSO4", ((A, i4),), "GSO4 generators are pairs of 2x2 matrices"),
        ("GSO4", ((sing, A),), "generators must be invertible"),
        ("GSO6", ((A, i4),), "GSO6 generators are (scalar, 4x4 matrix) pairs"),
        ("GSO6", ((QI(0), i4),), "generators must be invertible 4x4 with nonzero scalar"),
        ("GSO6", ((ONE, A),), "generators must be invertible 4x4 with nonzero scalar"),
    ):
        with pytest.raises(ValueError) as err:
            ParameterImage(ambient, gens)
        assert str(err.value) == message


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
