import random
import re
from fractions import Fraction

import pytest

from gspinlab import morphisms, presets
from gspinlab.lattice import IntMatrix, kernel_basis, solve_integral
from gspinlab.morphisms import (
    InfiniteFamilyError,
    RootDatumMap,
    cartan_compatible_bijections,
    check_isomorphism,
    search_isomorphisms,
    verify_dual_identification,
)
from gspinlab.root_datum import (
    BasedRootDatum,
    gl_datum,
    gspin_datum,
    pgl_datum,
    product_datum,
    sl_datum,
)


PSI4 = presets.datum("GSpin4")
G4 = presets.datum("G4")
PSI6 = presets.datum("GSpin6")
G6 = presets.datum("G6")
S4, _, _ = presets.datum_map("gspin4_to_g4")
S6, _, _ = presets.datum_map("gspin6_to_g6")
SHIPPED_PAIRS = ((PSI4, G4), (PSI6, G6))

# the constraint variants of the isomorphism search on the shipped pairs
ISO_VARIANTS = (
    {},
    {"det_sign": 1},
    {"det_sign": -1},
    {"assignment": True, "det_sign": 1},
    {"assignment": True},
)


def variant_kwargs(variant, d1):
    kwargs = dict(variant)
    if kwargs.pop("assignment", False):
        kwargs["assignment"] = tuple(range(len(d1.simple_roots)))
    return kwargs


def per_bijection_system(d1, d2, pi):
    """Reference: one completion system per bijection, both blocks indexed by source i.

    Rows say S alpha_i = beta_pi(i) and S^T beta_pi(i)^vee = alpha_i^vee, so
    the coefficient matrix depends on pi; for the identity it is the
    search's shared matrix.
    """
    n = d1.rank
    rows, rhs = [], []
    for i, a in enumerate(d1.simple_roots):
        b = d2.simple_roots[pi[i]]
        for r in range(n):
            row = [0] * (n * n)
            for c in range(n):
                row[r * n + c] = a[c]
            rows.append(row)
            rhs.append(b[r])
    for i, av in enumerate(d1.simple_coroots):
        bv = d2.simple_coroots[pi[i]]
        for c in range(n):
            row = [0] * (n * n)
            for r in range(n):
                row[r * n + c] = bv[r]
            rows.append(row)
            rhs.append(av[c])
    return IntMatrix(rows, cols=n * n), rhs


def reference_search(d1, d2, assignment=None, det_sign=None):
    """search_isomorphisms with a fresh system and reduction per bijection."""
    if d1.rank != d2.rank or len(d1.simple_roots) != len(d2.simple_roots):
        return []
    bijections = (
        [tuple(assignment)] if assignment is not None else cartan_compatible_bijections(d1, d2)
    )
    dets = (1, -1) if det_sign is None else (det_sign,)
    results = {}
    for pi in bijections:
        system, rhs = per_bijection_system(d1, d2, pi)
        part = solve_integral(system, rhs)
        if part is None:
            continue
        kern = kernel_basis(system)
        for mat in morphisms._completions(list(part), kern, d1.rank, dets):
            f = RootDatumMap(mat, mat.transpose())
            if mat.det() in dets and check_isomorphism(f, d1, d2):
                results[mat] = f
    return sorted(results.values(), key=lambda f: f.iota.to_rows())


def test_distinguished_map_rank4():
    assert S4.iota_vee == S4.iota.transpose()
    assert check_isomorphism(S4, PSI4, G4)


def test_distinguished_map_rank6():
    assert S6.iota_vee == S6.iota.transpose() == S6.iota  # symmetric
    assert check_isomorphism(S6, PSI6, G6)


def test_identity_map_cases():
    ident = RootDatumMap(IntMatrix.identity(3), IntMatrix.identity(3))
    assert check_isomorphism(ident, PSI4, PSI4)
    assert not check_isomorphism(ident, PSI4, G4)  # raw coordinate mismatch


def test_search_uniqueness_rank4():
    maps = search_isomorphisms(PSI4, G4, assignment=(0, 1), det_sign=1)
    assert len(maps) == 1
    assert maps[0].iota == S4.iota
    assert maps[0].iota_vee == S4.iota.transpose()


def test_search_uniqueness_rank6():
    maps = search_isomorphisms(PSI6, G6, assignment=(0, 1, 2), det_sign=1)
    assert len(maps) == 1
    assert maps[0].iota == S6.iota


def test_search_without_det_constraint_has_alternatives():
    maps = search_isomorphisms(PSI4, G4, assignment=(0, 1))
    assert len(maps) >= 2
    dets = {m.iota.det() for m in maps}
    assert dets <= {1, -1} and -1 in dets


def test_search_rank_mismatch_is_empty():
    assert search_isomorphisms(sl_datum(2), gl_datum(2)) == []


def test_point_datum_has_one_isomorphism_the_empty_map():
    point = BasedRootDatum(0, [], [])
    for kwargs in ({}, {"det_sign": 1}, {"assignment": ()}):
        maps = search_isomorphisms(point, point, **kwargs)
        assert [f.to_dict() for f in maps] == [{"iota": [], "iota_vee": []}], kwargs
        assert (maps[0].iota.rows, maps[0].iota.cols) == (0, 0)
        assert check_isomorphism(maps[0], point, point)
    assert search_isomorphisms(point, point, det_sign=-1) == []


def test_adjointness_matches_the_transpose():
    rng = random.Random(515)
    for _ in range(300):
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        iota = IntMatrix([[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)], cols=c)
        vee = iota.transpose()
        if vee.rows and vee.cols and rng.random() < 0.5:
            rows = vee.to_rows()
            rows[rng.randrange(vee.rows)][rng.randrange(vee.cols)] += rng.choice((-1, 1))
            vee = IntMatrix(rows, cols=vee.cols)
        elif rng.random() < 0.3:
            vr, vc = rng.randint(0, 4), rng.randint(0, 4)
            vee = IntMatrix([[rng.randint(-2, 2) for _ in range(vc)] for _ in range(vr)], cols=vc)
        f = RootDatumMap(iota, vee)
        assert f.is_adjoint_pair() == (vee == iota.transpose()), (iota, vee)
    s = IntMatrix([[1, 2], [3, 4]])
    assert not RootDatumMap(s, s).is_adjoint_pair()  # not adjoint
    assert not RootDatumMap(s, IntMatrix([[1, 3, 0], [2, 4, 0]])).is_adjoint_pair()  # shape
    # m x 0 and 0 x m maps: only the empty transpose of the right shape pairs
    for m in range(4):
        tall, wide = IntMatrix([[]] * m, cols=0), IntMatrix([], cols=m)
        assert RootDatumMap(tall, wide).is_adjoint_pair()
        assert RootDatumMap(wide, tall).is_adjoint_pair()
        assert RootDatumMap(tall, IntMatrix([], cols=m + 1)).is_adjoint_pair() is False
        assert RootDatumMap(wide, IntMatrix([[]] * (m + 1), cols=0)).is_adjoint_pair() is False


def test_search_results_all_verify():
    for d1, d2 in [(PSI4, G4), (PSI6, G6), (PSI4, PSI4)]:
        for f in search_isomorphisms(d1, d2):
            assert check_isomorphism(f, d1, d2)


def test_cartan_bijections():
    # the two rank-4 factors can swap
    assert len(cartan_compatible_bijections(PSI4, PSI4)) == 2
    # the rank-6 diagram has the branch swap only
    assert len(cartan_compatible_bijections(PSI6, PSI6)) == 2


def test_dual_identifications():
    ok4, detail4 = verify_dual_identification("GSpin4", presets.datum("GL2xGL2"))
    assert ok4 and detail4["kernel_matches_similitude_dual"]
    ok6, detail6 = verify_dual_identification("GSpin6", presets.datum("GL1xGL4"))
    assert ok6
    assert detail6["sc_center"] == [4]


def test_perturbed_kernel_fails():
    ok, detail = verify_dual_identification(
        "GSpin4", presets.datum("GL2xGL2"), kernel=(1, 1, 1, 1)
    )
    assert not ok
    assert not detail["kernel_matches_similitude_dual"]
    # the quotient datum itself is abstractly isomorphic; the failure is the
    # kernel-cocharacter validation
    assert detail["quotient_isomorphic_to_dual"]


def test_cocharacter_realizations_match():
    for case in ("G4", "G6"):
        data = presets.realization_data(case)
        f, dom, _ = presets.datum_map(data["map"])
        basis = IntMatrix.from_columns(data["cochar_basis"])
        for i, cochar in enumerate(data["realizations"]):
            coords = solve_integral(basis, cochar)
            assert coords is not None
            image = f.iota_vee.apply(coords)
            assert image == tuple(1 if j == i else 0 for j in range(dom.rank))


def test_rejected_realization_variants_fail_duality():
    # printed sign variants that do not satisfy the duality pairing
    for case in ("G4", "G6"):
        data = presets.realization_data(case)
        f, dom, _ = presets.datum_map(data["map"])
        basis = IntMatrix.from_columns(data["cochar_basis"])
        for rej in data["rejected"]:
            coords = solve_integral(basis, rej["cochar"])
            if coords is None:
                continue  # not even in the cocharacter lattice
            image = f.iota_vee.apply(coords)
            want = tuple(1 if j == rej["index"] else 0 for j in range(dom.rank))
            assert image != want


def _lagrange_det_poly(s0, kvec, n):
    # reference: Lagrange interpolation over the rationals
    xs = range(n + 1)
    ys = []
    for c in xs:
        vec = [a + c * b for a, b in zip(s0, kvec)]
        ys.append(IntMatrix([vec[i * n : (i + 1) * n] for i in range(n)]).det())
    coeffs = [Fraction(0)] * (n + 1)
    for i in xs:
        num, denom = [Fraction(1)], Fraction(1)
        for j in xs:
            if j != i:
                num = [a - j * b for a, b in zip([Fraction(0)] + num, num + [Fraction(0)])]
                denom *= i - j
        for t, ct in enumerate(num):
            coeffs[t] += ys[i] * ct / denom
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def test_search_rejects_malformed_assignment():
    for bad in ((0, 1), (0, 1, 7), (0, 1, 2, 0), (-1, 0, 1)):
        with pytest.raises(ValueError, match=re.escape(f"assignment {bad!r}")):
            search_isomorphisms(PSI6, G6, assignment=bad)


def test_non_injective_assignment_builds_no_system(monkeypatch):
    def refuse(*args):
        raise AssertionError("a system was reduced")

    monkeypatch.setattr(morphisms, "kernel_basis", refuse)
    monkeypatch.setattr(morphisms, "solve_integral", refuse)
    assert search_isomorphisms(PSI6, G6, assignment=(0, 0, 2)) == []
    assert search_isomorphisms(PSI4, G4, assignment=(1, 1)) == []


def _as_dicts(maps):
    return [f.to_dict() for f in maps]


@pytest.mark.parametrize("variant", ISO_VARIANTS, ids=repr)
def test_search_matches_per_bijection_reference_on_shipped_pairs(variant):
    for d1, d2 in (*SHIPPED_PAIRS, (PSI4, PSI4), (G6, PSI6)):
        kwargs = variant_kwargs(variant, d1)
        assert _as_dicts(search_isomorphisms(d1, d2, **kwargs)) == _as_dicts(
            reference_search(d1, d2, **kwargs)
        )


def _outcome(search, d1, d2, kwargs):
    try:
        return _as_dicts(search(d1, d2, **kwargs))
    except InfiniteFamilyError as exc:
        return f"InfiniteFamilyError: {exc}"


def test_search_matches_per_bijection_reference_on_all_preset_pairs():
    names = presets.datum_names()
    refusals = 0
    for d1 in map(presets.datum, names):
        for d2 in map(presets.datum, names):
            for variant in ISO_VARIANTS:
                kwargs = variant_kwargs(variant, d1)
                got = _outcome(search_isomorphisms, d1, d2, kwargs)
                assert got == _outcome(reference_search, d1, d2, kwargs), (d1.label, d2.label, variant)
                refusals += isinstance(got, str)
    assert len(names) ** 2 == 81
    assert refusals == 2 * len(ISO_VARIANTS)  # GL2xGL2 and GL1xGL4 onto themselves


def _elementary_pair(rng, n, steps):
    """g in GL_n(Z) from elementary column steps, with its inverse."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    ginv = [row[:] for row in g]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        for row in g:  # g <- g (1 + q e_ij)
            row[j] += q * row[i]
        ginv[i] = [x - q * y for x, y in zip(ginv[i], ginv[j])]  # (1 - q e_ij) ginv
    return g, ginv


def conjugate_datum(d, g, ginv):
    """Roots moved by g, coroots by the inverse transpose of g."""
    n = d.rank
    roots = [[sum(g[r][c] * a[c] for c in range(n)) for r in range(n)] for a in d.simple_roots]
    coroots = [
        [sum(ginv[r][c] * av[r] for r in range(n)) for c in range(n)]
        for av in d.simple_coroots
    ]
    return BasedRootDatum(n, roots, coroots)


SL2_CUBED = product_datum(sl_datum(2), product_datum(sl_datum(2), sl_datum(2)))
# (source, datum whose conjugate is the target)
CONJUGATE_PAIRS = (
    (PSI4, G4),
    (G4, PSI4),
    (PSI6, G6),
    (G6, PSI6),
    (PSI4, PSI4),
    (presets.datum("SL2xSL2"), presets.datum("SL2xSL2")),
    (presets.datum("SL4"), presets.datum("SL4")),
    (gl_datum(2), gl_datum(2)),
    (gl_datum(3), gl_datum(3)),
    (pgl_datum(3), pgl_datum(3)),
    (gspin_datum(4), gspin_datum(4)),
    (product_datum(sl_datum(2), pgl_datum(2)), product_datum(sl_datum(2), pgl_datum(2))),
    # three A1 factors: the bijections include 3-cycles, where pi^-1 != pi
    (SL2_CUBED, SL2_CUBED),
)


def test_search_matches_per_bijection_reference_on_conjugate_pairs():
    rng = random.Random(2026)
    for k in range(39):
        d1, d2 = CONJUGATE_PAIRS[k % len(CONJUGATE_PAIRS)]
        g, ginv = _elementary_pair(rng, d2.rank, rng.randint(1, 4))
        target = conjugate_datum(d2, g, ginv)
        for variant in ISO_VARIANTS:
            kwargs = variant_kwargs(variant, d1)
            found = search_isomorphisms(d1, target, **kwargs)
            assert _as_dicts(found) == _as_dicts(reference_search(d1, target, **kwargs))
            if d1 is d2 and not variant:
                assert IntMatrix(g) in {f.iota for f in found}
        for pi in cartan_compatible_bijections(d1, target):
            assert _as_dicts(search_isomorphisms(d1, target, assignment=pi)) == _as_dicts(
                reference_search(d1, target, assignment=pi)
            )


def seeded_products(seed, count, max_rank=5):
    """Random products of GL, SL, PGL and GSpin factors of total rank <= max_rank."""
    factors = (
        *((gl_datum, n) for n in (1, 2, 3)),
        *((sl_datum, n) for n in (2, 3, 4)),
        *((pgl_datum, n) for n in (2, 3, 4)),
        *((gspin_datum, n) for n in (2, 3)),
    )
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = None
        for _ in range(rng.randint(1, 3)):
            make, n = rng.choice(factors)
            f = make(n)
            if (d.rank if d else 0) + f.rank <= max_rank:
                d = f if d is None else product_datum(d, f)
        out.append(d)
    return out


SEEDED_PRODUCTS = seeded_products(510, 60)


def _gap(d):
    return d.rank - len(d.simple_roots)


def test_completion_family_has_gap_squared_columns():
    for d in SEEDED_PRODUCTS:
        for x in (d, d.dual()):
            n = x.rank
            roots = IntMatrix(x.simple_roots, cols=n)
            coroots = IntMatrix(x.simple_coroots, cols=n)
            kern = morphisms._completion_directions(kernel_basis(roots), kernel_basis(coroots))
            assert kern.cols == _gap(x) ** 2, x.to_dict()
            # the lattice of the Kronecker system's saturated kernel
            ref = kernel_basis(per_bijection_system(x, x, range(len(x.simple_roots)))[0])
            assert all(solve_integral(kern, col) is not None for col in ref.columns())
            assert all(solve_integral(ref, col) is not None for col in kern.columns())
            for k in range(kern.cols):
                vec = kern.col(k)
                step = IntMatrix([vec[i * n : (i + 1) * n] for i in range(n)], cols=n)
                assert any(vec)
                # S + step keeps S alpha_i and S^T beta_j^vee
                assert all(not any(step.apply(a)) for a in x.simple_roots)
                assert all(not any(step.transpose().apply(b)) for b in x.simple_coroots)


def _searches_to_replay():
    """(source, target) pairs of the shipped and seeded searches, with their gap."""
    rng = random.Random(77)
    pairs = [*SHIPPED_PAIRS, (PSI4, PSI4), (G6, PSI6)]
    for d1, d2 in CONJUGATE_PAIRS:
        g, ginv = _elementary_pair(rng, d2.rank, rng.randint(1, 4))
        pairs.append((d1, conjugate_datum(d2, g, ginv)))
    for d in SEEDED_PRODUCTS:
        g, ginv = _elementary_pair(rng, d.rank, rng.randint(1, 4))
        pairs.append((d, conjugate_datum(d, g, ginv)))
    return pairs


def test_gap_one_completions_are_the_roots_of_an_affine_det(monkeypatch):
    families = []
    original = morphisms._completions

    def record(s0, kern, n, dets):
        out = original(s0, kern, n, dets)
        families.append((s0, kern, n, dets, out))
        return out

    monkeypatch.setattr(morphisms, "_completions", record)
    for d1, d2 in _searches_to_replay():
        for variant in ISO_VARIANTS:
            kwargs = variant_kwargs(variant, d1)
            if _gap(d1) >= 2:
                with pytest.raises(InfiniteFamilyError):
                    search_isomorphisms(d1, d2, **kwargs)
            else:
                search_isomorphisms(d1, d2, **kwargs)
    gap_one = [fam for fam in families if fam[1].cols == 1]
    assert len(gap_one) > 100
    for s0, kern, n, dets, out in gap_one:
        kvec = kern.col(0)
        coeffs = _lagrange_det_poly(s0, kvec, n)
        assert not any(coeffs[2:]), coeffs
        d0, slope = coeffs[0], coeffs[1]
        assert slope != 0 or d0 not in dets
        cvals = sorted({(t - d0) // slope for t in dets if slope and (t - d0) % slope == 0})
        want = [
            IntMatrix([[s0[i * n + j] + c * kvec[i * n + j] for j in range(n)] for i in range(n)])
            for c in cvals
        ]
        assert out == want


def test_gap_one_completions_by_hand():
    # det(I + c E11) = 1 + c: c = 0 for det 1, c = -2 for det -1
    line = IntMatrix([[1], [0], [0], [0]])
    got = morphisms._completions([1, 0, 0, 1], line, 2, (1, -1))
    assert [m.to_rows() for m in got] == [[[-1, 0], [0, 1]], [[1, 0], [0, 1]]]
    # det(I + c E12) = 1 for every c: infinitely many, which gap 1 rules out
    with pytest.raises(AssertionError, match="det is constant"):
        morphisms._completions([1, 0, 0, 1], IntMatrix([[0], [1], [0], [0]]), 2, (1, -1))
    assert morphisms._completions([1, 0, 0, 1], IntMatrix([[0], [1], [0], [0]]), 2, (-1,)) == []


def test_gap_two_family_is_infinite():
    # why rank - |Delta| >= 2 is refused: on GL2xGL2 these all pass, one per t
    d = presets.datum("GL2xGL2")
    for t in range(-30, 31):
        iota = IntMatrix([[1, 0, t, t], [0, 1, t, t], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert check_isomorphism(RootDatumMap(iota, iota.transpose()), d, d), t
    for variant in ISO_VARIANTS:
        with pytest.raises(InfiniteFamilyError, match="rank 4, [|]Delta[|] = 2: .* 4-parameter family"):
            search_isomorphisms(d, d, **variant_kwargs(variant, d))
