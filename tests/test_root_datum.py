import itertools
import random
import re
from math import gcd

import pytest

from gspinlab import lattice, presets, root_datum
from gspinlab.lattice import (
    AbelianGroupStructure,
    IntMatrix,
    cokernel_structure,
    kernel_basis,
    matrix_rank,
    solve_integral,
)
from gspinlab.morphisms import search_isomorphisms
from gspinlab.root_datum import (
    ROOT_CLOSURE_CAP,
    BasedRootDatum,
    center_structure,
    central_quotient_datum,
    central_torus_quotient_datum,
    dual_sc_center,
    gl_datum,
    gspin_datum,
    is_central_cocharacter_of_order_two,
    pgl_datum,
    product_datum,
    similitude_kernel_datum,
    sl_datum,
    verify_exact_sequence,
)


def dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def test_gl_datum():
    d = gl_datum(2)
    assert d.rank == 2
    assert d.simple_roots == ((1, -1),)
    for make in (gl_datum, sl_datum, pgl_datum):
        with pytest.raises(ValueError, match=f"{make.__name__} requires n >= 1"):
            make(0)


def test_sl_pgl_datum():
    assert sl_datum(2).simple_roots == ((2,),)
    assert sl_datum(2).simple_coroots == ((1,),)
    assert pgl_datum(2).simple_roots == ((1,),)
    assert pgl_datum(2).simple_coroots == ((2,),)


def test_gspin_rank_and_pairings():
    d2 = gspin_datum(2)
    assert d2.rank == 3 and len(d2.simple_roots) == 2
    # evaluate all four pairings by hand
    for i, a in enumerate(d2.simple_roots):
        for j, av in enumerate(d2.simple_coroots):
            assert dot(a, av) == (2 if i == j else 0)
    d3 = gspin_datum(3)
    assert d3.rank == 4 and len(d3.simple_roots) == 3
    cartan = [[dot(a, av) for av in d3.simple_coroots] for a in d3.simple_roots]
    assert cartan == [list(row) for row in d3.cartan_matrix()]
    # the branch node pairs -1 against the other two
    assert cartan[1][0] == cartan[2][0] == -1
    assert cartan[1][2] == cartan[2][1] == 0
    with pytest.raises(ValueError):
        gspin_datum(1)


def test_gspin_root_closure_counts():
    assert len(gspin_datum(2).roots()) == 4
    assert len(gspin_datum(3).roots()) == 12  # type A3 root count
    assert len(gspin_datum(4).roots()) == 24  # type D4 root count


def test_product_datum():
    p = product_datum(gl_datum(2), gl_datum(2))
    assert p.rank == 4 and len(p.simple_roots) == 2
    trivial = BasedRootDatum(0, [], [], label="pt")
    q = product_datum(p, trivial)
    assert q.rank == p.rank and q.simple_roots == p.simple_roots
    ss = product_datum(sl_datum(2), sl_datum(2))
    assert center_structure(ss) == AbelianGroupStructure(0, (2, 2))


def test_similitude_kernel_rejections():
    d = presets.datum("GL2xGL2")
    with pytest.raises(ValueError):
        similitude_kernel_datum(d, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        similitude_kernel_datum(d, (2, 2, -2, -2))  # not primitive
    with pytest.raises(ValueError):
        similitude_kernel_datum(d, (1, 0, 0, 0))  # not central


def test_similitude_kernel_gspin4():
    sim = similitude_kernel_datum(presets.datum("GL2xGL2"), (1, 1, -1, -1))
    assert sim.rank == 3
    assert search_isomorphisms(gspin_datum(2), sim)


def test_similitude_kernel_gspin6():
    sim = similitude_kernel_datum(presets.datum("GL1xGL4"), (-2, 1, 1, 1, 1))
    assert sim.rank == 4
    assert search_isomorphisms(gspin_datum(3), sim)


def test_center_through_similitude_kernel():
    amb4 = presets.datum("GL2xGL2")
    sim4 = similitude_kernel_datum(amb4, (1, 1, -1, -1))
    assert center_structure(amb4) == AbelianGroupStructure(2)
    assert center_structure(sim4) == AbelianGroupStructure(1, (2,))
    amb6 = presets.datum("GL1xGL4")
    sim6 = similitude_kernel_datum(amb6, (-2, 1, 1, 1, 1))
    assert center_structure(amb6) == AbelianGroupStructure(2)
    assert center_structure(sim6) == AbelianGroupStructure(1, (2,))


def test_central_quotient_trivial_subgroup():
    d = gspin_datum(2)
    q = central_quotient_datum(d, [])
    assert q.simple_roots == d.simple_roots and q.simple_coroots == d.simple_coroots


def test_central_quotient_sl2_to_pgl2():
    q = central_quotient_datum(sl_datum(2), [((1,), 2)])
    assert q.simple_roots == pgl_datum(2).simple_roots
    assert q.simple_coroots == pgl_datum(2).simple_coroots


def test_central_quotient_gspin4_presentation():
    amb = product_datum(gl_datum(1), product_datum(sl_datum(2), sl_datum(2)))
    quo = central_quotient_datum(amb, [((1, 1, 1), 2)])
    assert search_isomorphisms(gspin_datum(2), quo)


def test_central_quotient_rejects_noncentral():
    amb = product_datum(gl_datum(1), product_datum(sl_datum(2), sl_datum(2)))
    # order 4 fails centrality: the first root pairs to 2, not 0 mod 4
    with pytest.raises(ValueError):
        central_quotient_datum(amb, [((0, 1, 0), 4)])


def test_dual_involution():
    for name in ("GSpin4", "GSpin6", "GL2xGL2", "SL4"):
        d = presets.datum(name)
        assert d.dual().dual() == d
    assert sl_datum(2).dual().simple_roots == pgl_datum(2).simple_roots


def test_central_torus_quotient_matches_dual_identity():
    # quotient of GL2 x GL2 by the antidiagonal scalar torus
    q = central_torus_quotient_datum(presets.datum("GL2xGL2"), (-1, -1, 1, 1))
    assert q.rank == 3
    assert search_isomorphisms(gspin_datum(2).dual(), q)


def test_center_structures():
    assert center_structure(gspin_datum(2)) == AbelianGroupStructure(1, (2,))
    assert center_structure(gspin_datum(3)) == AbelianGroupStructure(1, (2,))
    assert center_structure(sl_datum(2)) == AbelianGroupStructure(0, (2,))


def test_dual_sc_center():
    assert dual_sc_center(gspin_datum(2)).torsion == (2, 2)
    assert dual_sc_center(gspin_datum(3)).torsion == (4,)
    assert dual_sc_center(sl_datum(4)).torsion == (4,)
    with pytest.raises(ValueError):
        dual_sc_center(gl_datum(1))


def test_central_cocharacter_order_two():
    for n in (2, 3):
        d = gspin_datum(n)
        y = (1,) + (0,) * n
        assert is_central_cocharacter_of_order_two(d, y)
        assert all(dot(r, y) % 2 == 0 for r, _ in d.roots())
    assert not is_central_cocharacter_of_order_two(gspin_datum(2), (2, 0, 0))


def test_exact_sequences():
    assert verify_exact_sequence(presets.sequence("gspin4_in_gl2xgl2"))
    assert verify_exact_sequence(presets.sequence("gspin6_in_gl1xgl4"))
    # 1 -> G -> G -> 1 -> 1 contravariantly: 0 -> Z^0 -> Z^2 -> Z^2 -> 0
    assert verify_exact_sequence([IntMatrix([[], []], cols=0), IntMatrix.identity(2)])
    broken = [IntMatrix([[1], [1], [-1], [0]]), presets.sequence("gspin4_in_gl2xgl2")[1]]
    assert not verify_exact_sequence(broken)
    with pytest.raises(ValueError):
        verify_exact_sequence(
            [IntMatrix([[1], [1]]), IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])]
        )


def exact_sequence_with_rank_identity(maps):
    """Reference: exactness with the rank identity rank f + rank g = f.rows checked too."""
    if not maps:
        raise ValueError("empty sequence")
    for f, g in zip(maps, maps[1:]):
        if g.cols != f.rows:
            raise ValueError("dimension mismatch in sequence")
    if kernel_basis(maps[0]).cols != 0:
        return False
    for f, g in zip(maps, maps[1:]):
        prod = g * f
        if any(x for row in prod.iter_rows() for x in row):
            return False
        kb = kernel_basis(g)
        for j in range(kb.cols):
            if solve_integral(f, kb.col(j)) is None:
                return False
        if matrix_rank(f) + matrix_rank(g) != f.rows:
            return False
    cok = cokernel_structure(maps[-1])
    return cok.free_rank == 0 and not cok.torsion


def _product(a, b, inner):
    cols = range(len(b[0]))
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in cols] for i in range(len(a))]


def _unimodular_pair(rng, n):
    """(P, P^-1) for P a product of a few elementary moves on n rows."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    for _ in range(rng.randrange(4) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # P <- E P adds c * row j to row i; P^-1 <- P^-1 E^-1 subtracts c * column i from column j
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        for row in q:
            row[j] -= c * row[i]
    if n and rng.random() < 0.5:
        i = rng.randrange(n)
        p[i] = [-x for x in p[i]]
        for row in q:
            row[i] = -row[i]
    return p, q


def _split_sequence(rng):
    """0 -> Z^a -> Z^(a+b) -> Z^b -> 0 split, moved by unimodular changes of basis."""
    a = rng.randrange(4)
    b = rng.randrange(max(1 - a, 0), 4 - a)
    n = a + b
    f0 = [[int(i == j) for j in range(a)] for i in range(n)]
    g0 = [[int(j == a + i) for j in range(n)] for i in range(b)]
    p, p_inv = _unimodular_pair(rng, n)
    s, _ = _unimodular_pair(rng, a)
    t, _ = _unimodular_pair(rng, b)
    f = _product(_product(p, f0, n), s, a) if a else [[] for _ in range(n)]
    g = _product(_product(t, g0, b), p_inv, n) if b else []
    return [f, g], [a, n, b]


def _perturbed(rng, maps):
    """The maps with one entry moved by 1."""
    k, i, j = rng.choice(
        [(k, i, j) for k, m in enumerate(maps) for i, row in enumerate(m) for j in range(len(row))]
    )
    bent = [[row[:] for row in m] for m in maps]
    bent[k][i][j] += rng.choice((-1, 1))
    return bent


def _random_sequence(rng):
    """One to three maps between lattices of rank at most 3, entries in [-2, 2]."""
    dims = [rng.randrange(4) for _ in range(rng.randrange(2, 5))]
    maps = [
        [[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)] for c, r in zip(dims, dims[1:])
    ]
    return maps, dims


def _exactness_outcome(check, maps, dims):
    matrices = [IntMatrix(m, cols=c) for m, c in zip(maps, dims)]
    try:
        return check(matrices)
    except ValueError as exc:
        return str(exc)


def test_exact_sequence_verdicts_match_the_rank_identity_reference():
    rng = random.Random(502)
    tally = {}
    for _ in range(1000):
        maps, dims = _split_sequence(rng)
        draws = [("split", maps, dims), ("perturbed", _perturbed(rng, maps), dims)]
        draws.append(("random", *_random_sequence(rng)))
        for kind, maps, dims in draws:
            got = _exactness_outcome(verify_exact_sequence, maps, dims)
            want = _exactness_outcome(exact_sequence_with_rank_identity, maps, dims)
            assert got == want, (kind, maps, dims)
            tally[kind, got] = tally.get((kind, got), 0) + 1
    # every split draw is exact; the other two kinds reach both verdicts
    assert tally[("split", True)] == 1000
    assert all(tally.get((kind, v)) for kind in ("perturbed", "random") for v in (True, False))


def test_datum_serialization_roundtrip():
    d = presets.datum("GSpin6")
    assert BasedRootDatum.from_dict(d.to_dict()) == d


def test_invalid_data_rejected():
    with pytest.raises(ValueError):
        BasedRootDatum(2, [(1, 0)], [(1, 0)])  # pairing 1, not 2
    with pytest.raises(ValueError):
        BasedRootDatum(2, [(2, 0), (0, 2)], [(1, 0), (1, 1)])  # positive off-diagonal
    with pytest.raises(ValueError):
        # affine-type Cartan matrix: infinite reflection closure
        BasedRootDatum(2, [(2, -2), (-2, 2)], [(1, -1), (-1, 1)])


def closure_with_every_reflection(d, cap=ROOT_CLOSURE_CAP):
    """Reference: the reflection closure that applies every simple reflection."""
    seen = {}
    frontier = list(zip(d.simple_roots, d.simple_coroots))
    for b, bv in frontier:
        seen[b] = bv
    while frontier:
        new = []
        for b, bv in frontier:
            for a, av in zip(d.simple_roots, d.simple_coroots):
                k = dot(b, av)
                rb = tuple(x - k * y for x, y in zip(b, a))
                kv = dot(a, bv)
                rbv = tuple(x - kv * y for x, y in zip(bv, av))
                if rb not in seen:
                    seen[rb] = rbv
                    new.append((rb, rbv))
                elif seen[rb] != rbv:
                    raise ValueError("inconsistent root/coroot reflection closure")
        frontier = new
        if len(seen) > cap:
            raise ValueError(f"root closure exceeded cap {cap}")
    return tuple(sorted(seen.items()))


def unvalidated_datum(rank, roots, coroots):
    """A BasedRootDatum whose constructor checks did not run."""
    d = object.__new__(BasedRootDatum)
    object.__setattr__(d, "rank", rank)
    object.__setattr__(d, "simple_roots", tuple(map(tuple, roots)))
    object.__setattr__(d, "simple_coroots", tuple(map(tuple, coroots)))
    object.__setattr__(d, "label", "")
    object.__setattr__(d, "_cartan", None)
    return d


def _closure_outcome(closure, d, cap):
    try:
        return closure(d, cap)
    except ValueError as exc:
        return str(exc)


FACTORS = (
    gl_datum(1), gl_datum(2), gl_datum(3), sl_datum(2), sl_datum(3), sl_datum(4),
    pgl_datum(2), pgl_datum(3), gspin_datum(2), gspin_datum(3), gspin_datum(4),
)


def test_root_closure_matches_every_reflection_reference():
    data = [presets.datum(name) for name in presets.datum_names()]
    data += [product_datum(a, b) for a in FACTORS[::2] for b in FACTORS[1::2]]
    for d in data:
        assert d.roots() == closure_with_every_reflection(d)


def test_root_closure_errors_match_every_reflection_reference():
    rng = random.Random(808)
    errors = set()
    checked = 0
    for _ in range(400):
        base = rng.choice(FACTORS + (product_datum(sl_datum(2), gspin_datum(3)),))
        roots = [list(a) for a in base.simple_roots]
        coroots = [list(a) for a in base.simple_coroots]
        vecs = rng.choice((roots, coroots))
        if not vecs:
            continue
        vec = rng.choice(vecs)
        vec[rng.randrange(len(vec))] += rng.choice((-2, -1, 1, 2))
        # the constructor runs the closure only once <alpha_i, alpha_i^> = 2,
        # so no simple coroot is zero
        if any(dot(a, av) != 2 for a, av in zip(roots, coroots)):
            continue
        d = unvalidated_datum(base.rank, roots, coroots)
        checked += 1
        got = _closure_outcome(BasedRootDatum.roots, d, 300)
        assert got == _closure_outcome(closure_with_every_reflection, d, 300)
        if isinstance(got, str):
            errors.add(got)
    assert checked >= 100
    assert errors == {
        "inconsistent root/coroot reflection closure",
        "root closure exceeded cap 300",
    }


def validate_with_smith_forms(rank, roots, coroots):
    """Reference: the validator that decided independence by two Smith-form
    ranks before the closure, with the dot-product closure after them."""
    roots = tuple(tuple(a) for a in roots)
    coroots = tuple(tuple(a) for a in coroots)
    if rank < 0:
        raise ValueError("negative rank")
    if len(roots) != len(coroots):
        raise ValueError("number of simple roots and coroots differ")
    for a in roots + coroots:
        if len(a) != rank:
            raise ValueError("root/coroot length does not match rank")
    n = len(roots)
    if len(set(roots)) != n or len(set(coroots)) != n:
        raise ValueError("repeated simple roots or coroots")
    c = [[dot(a, b) for b in coroots] for a in roots]
    for i in range(n):
        if c[i][i] != 2:
            raise ValueError(f"<alpha_{i}, alpha_{i}^> = {c[i][i]} != 2")
        for j in range(n):
            if i != j:
                if c[i][j] > 0:
                    raise ValueError("positive off-diagonal Cartan entry")
                if (c[i][j] == 0) != (c[j][i] == 0):
                    raise ValueError("Cartan zero pattern is not symmetric")
    if n and matrix_rank(IntMatrix.from_columns(roots, rows=rank)) != n:
        raise ValueError("simple roots are linearly dependent")
    if n and matrix_rank(IntMatrix.from_columns(coroots, rows=rank)) != n:
        raise ValueError("simple coroots are linearly dependent")
    return closure_with_every_reflection(unvalidated_datum(rank, roots, coroots))


# Cartan matrix [[2, -2], [-2, 2]] (affine A1, det 0) in rank 3: both
# families independent (the closure is infinite), only the roots dependent,
# only the coroots dependent
AFFINE_PAIRS = (
    (((2, -2, 0), (-2, 2, 1)), ((1, 0, 0), (0, 1, 0))),
    (((1, -1, 0), (-1, 1, 0)), ((1, -1, 0), (-1, 1, 0))),
    (((1, -1, 0), (-1, 1, 1)), ((1, -1, 0), (-1, 1, 0))),
)


def _block_sum(rank1, roots1, coroots1, rank2, roots2, coroots2):
    def pad(vs, left, right):
        return [(0,) * left + tuple(v) + (0,) * right for v in vs]

    return (
        rank1 + rank2,
        pad(roots1, 0, rank2) + pad(roots2, rank1, 0),
        pad(coroots1, 0, rank2) + pad(coroots2, rank1, 0),
    )


def _radical_shift(rng, vecs, others, rank):
    """Add to one of vecs a vector pairing to 0 with all of others."""
    if not vecs:
        return
    kern = kernel_basis(IntMatrix([list(v) for v in others], cols=rank))
    if not kern.cols:
        return
    i = rng.randrange(len(vecs))
    shift = [0] * rank
    for j in range(kern.cols):
        q = rng.randint(-2, 2)
        shift = [x + q * y for x, y in zip(shift, kern.col(j))]
    vecs[i] = [x + y for x, y in zip(vecs[i], shift)]


def _perturbed_datum(rng, draw):
    base = product_datum(rng.choice(FACTORS), rng.choice(FACTORS))
    rank, roots, coroots = base.rank, base.simple_roots, base.simple_coroots
    # every 150th draw carries the infinite affine block; its closure runs to
    # the cap, so it is kept rare
    if draw % 150 == 0:
        rank, roots, coroots = _block_sum(3, *AFFINE_PAIRS[0], rank, roots, coroots)
    elif rng.random() < 0.1:
        rank, roots, coroots = _block_sum(3, *rng.choice(AFFINE_PAIRS[1:]), rank, roots, coroots)
    roots = [list(a) for a in roots]
    coroots = [list(a) for a in coroots]
    kind = rng.choice(
        ("none", "entry", "entry", "radical", "repeat", "dependent", "negate", "swap",
         "drop", "length", "rank")
    )
    vecs = rng.choice((roots, coroots))
    if kind == "entry" and vecs:
        vec = rng.choice(vecs)
        vec[rng.randrange(rank)] += rng.choice((-2, -1, 1, 2))
    elif kind == "radical":
        if vecs is roots:
            _radical_shift(rng, roots, coroots, rank)
        else:
            _radical_shift(rng, coroots, roots, rank)
    elif kind == "repeat" and len(vecs) > 1:
        i, j = rng.sample(range(len(vecs)), 2)
        vecs[i] = list(vecs[j])
    elif kind == "dependent" and len(vecs) > 2:
        i, j, k = rng.sample(range(len(vecs)), 3)
        vecs[i] = [x + rng.choice((-1, 1)) * y for x, y in zip(vecs[j], vecs[k])]
    elif kind == "negate" and roots:
        i = rng.randrange(len(roots))
        roots[i] = [-x for x in roots[i]]
        coroots[i] = [-x for x in coroots[i]]
    elif kind == "swap" and len(coroots) > 1:
        i, j = rng.sample(range(len(coroots)), 2)
        coroots[i], coroots[j] = coroots[j], coroots[i]
    elif kind == "drop" and vecs:
        vecs.pop(rng.randrange(len(vecs)))
    elif kind == "length" and vecs:
        rng.choice(vecs).append(0)
    elif kind == "rank":
        rank = -1
    return rank, roots, coroots


def _construction_outcome(rank, roots, coroots):
    try:
        return BasedRootDatum(rank, roots, coroots).roots()
    except ValueError as exc:
        return str(exc)


def _reference_outcome(rank, roots, coroots):
    try:
        return validate_with_smith_forms(rank, roots, coroots)
    except ValueError as exc:
        return str(exc)


def test_construction_matches_smith_form_validator():
    rng = random.Random(1515)
    messages = set()
    built = 0
    for draw in range(2100):
        rank, roots, coroots = _perturbed_datum(rng, draw)
        got = _construction_outcome(rank, roots, coroots)
        assert got == _reference_outcome(rank, roots, coroots), (rank, roots, coroots)
        if isinstance(got, str):
            messages.add("<alpha_i, alpha_i^> != 2" if got.startswith("<alpha_") else got)
        else:
            built += 1
    assert built >= 300
    # a closure inconsistency cannot get past the Cartan and independence
    # checks (Kac, Infinite dimensional Lie algebras, 5.1): only unvalidated
    # data reach it, in test_root_closure_errors_match_every_reflection_reference
    assert messages == {
        "negative rank",
        "number of simple roots and coroots differ",
        "root/coroot length does not match rank",
        "repeated simple roots or coroots",
        "<alpha_i, alpha_i^> != 2",
        "positive off-diagonal Cartan entry",
        "Cartan zero pattern is not symmetric",
        "simple roots are linearly dependent",
        "simple coroots are linearly dependent",
        f"root closure exceeded cap {ROOT_CLOSURE_CAP}",
    }
    # det C = 0 runs the Smith-form fallback: it passes both families and
    # leaves the infinite closure to the cap, or fails on one of them
    assert [_construction_outcome(3, *pair) for pair in AFFINE_PAIRS] == [
        f"root closure exceeded cap {ROOT_CLOSURE_CAP}",
        "simple roots are linearly dependent",
        "simple coroots are linearly dependent",
    ]


def test_constructions_run_no_smith_normal_form(monkeypatch):
    calls = []
    snf = lattice.smith_normal_form

    def counting(m):
        calls.append(1)
        return snf(m)

    monkeypatch.setattr(lattice, "smith_normal_form", counting)
    monkeypatch.setattr(root_datum, "smith_normal_form", counting)
    data = [presets.datum(name) for name in presets.datum_names()]
    factors = [gl_datum(n) for n in (1, 2, 3)] + [sl_datum(n) for n in (2, 3, 4)]
    factors += [pgl_datum(2), pgl_datum(3)] + [gspin_datum(n) for n in (2, 3, 4)]
    data += [product_datum(a, b) for a in factors for b in factors]
    assert len(data) == 9 + 121
    assert calls == []


def test_pgl_is_the_dual_of_sl():
    for n in range(1, 7):
        d, sl = pgl_datum(n), sl_datum(n).dual()
        assert (d.rank, d.simple_roots, d.simple_coroots) == (
            sl.rank, sl.simple_roots, sl.simple_coroots
        )
        assert d.label == f"PGL{n}"


def test_central_torus_quotient_matches_double_dual():
    cases = [
        (presets.datum("GL2xGL2"), (-1, -1, 1, 1)),
        (presets.datum("GL2xGL2"), (1, 1, 0, 0)),
        (presets.datum("GL1xGL4"), (2, 1, 1, 1, 1)),
        (presets.datum("GL1xGL4"), (1, 0, 0, 0, 0)),
        (gl_datum(3), (1, 1, 1)),
        (gspin_datum(3), (1, 0, 0, 0)),
    ]
    for d, y in cases:
        old = similitude_kernel_datum(d.dual(), y).dual()
        new = central_torus_quotient_datum(d, y)
        assert new == old and new.label == f"({d.label})/GL1"
        assert central_torus_quotient_datum(d, y, label="Q").label == "Q"


def test_cocharacter_of_wrong_length_is_refused():
    d = gspin_datum(2)
    for y in ((1,), (1, 0, 0, 0, 5)):
        with pytest.raises(ValueError, match="^cocharacter length does not match rank$"):
            is_central_cocharacter_of_order_two(d, y)
        with pytest.raises(ValueError, match="^cocharacter length does not match rank$"):
            d.pairing((1, -1, 0), y)
        with pytest.raises(ValueError, match="^character length does not match rank$"):
            d.pairing(y, (1, 0, 0))
    assert d.pairing((0, 1, 1), (-1, 1, 1)) == 2


def _counting_validations(monkeypatch):
    calls = []
    validate = BasedRootDatum._validate

    def counting(self):
        calls.append(self.label)
        return validate(self)

    monkeypatch.setattr(BasedRootDatum, "_validate", counting)
    return calls


def test_derived_constructors_never_validate(monkeypatch):
    gl22, gl14 = presets.datum("GL2xGL2"), presets.datum("GL1xGL4")
    gl14_dual, gspin6 = gl14.dual(), presets.datum("GSpin6")
    amb = product_datum(gl_datum(1), product_datum(sl_datum(2), sl_datum(2)))
    calls = _counting_validations(monkeypatch)
    for build in (
        lambda: product_datum(gspin6, gl22),
        lambda: product_datum(amb, gl14),
        lambda: gspin6.dual(),
        lambda: similitude_kernel_datum(gl22, (1, 1, -1, -1)),
        lambda: similitude_kernel_datum(gl14, (-2, 1, 1, 1, 1)),
        lambda: central_quotient_datum(amb, [((1, 1, 1), 2)]),
        lambda: central_quotient_datum(amb, [((1, 0, 0), 1)], label="copy"),
        lambda: central_torus_quotient_datum(gl22, (-1, -1, 1, 1)),
        lambda: central_torus_quotient_datum(gl14_dual, (-2, 1, 1, 1, 1)),
        lambda: gl_datum(4),
        lambda: sl_datum(4),
        lambda: pgl_datum(4),
        lambda: gspin_datum(3),
    ):
        build()
    assert calls == []


def test_named_constructors_carry_the_validated_count():
    for make, sizes in (
        (gl_datum, range(1, 16)),
        (sl_datum, range(1, 16)),
        (pgl_datum, range(1, 16)),
        (gspin_datum, range(2, 11)),
    ):
        for n in sizes:
            d = make(n)
            again = BasedRootDatum(d.rank, d.simple_roots, d.simple_coroots, d.label)
            assert again == d and again.label == d.label
            assert again._root_count == d._root_count, (make.__name__, n)
            assert d._root_count == (2 if make is gspin_datum else 1) * n * (n - 1)


@pytest.mark.parametrize("make, n", [(gl_datum, 4), (sl_datum, 5), (pgl_datum, 3), (gspin_datum, 4)])
def test_named_constructors_refuse_past_the_closure_cap(monkeypatch, make, n):
    count = make(n)._root_count
    monkeypatch.setattr(root_datum, "ROOT_CLOSURE_CAP", count)
    d = make(n)
    assert BasedRootDatum(d.rank, d.simple_roots, d.simple_coroots)._root_count == count
    monkeypatch.setattr(root_datum, "ROOT_CLOSURE_CAP", count - 1)
    with pytest.raises(ValueError) as refused:
        make(n)
    with pytest.raises(ValueError) as validated:
        BasedRootDatum(d.rank, d.simple_roots, d.simple_coroots)
    assert str(refused.value) == str(validated.value) == f"root closure exceeded cap {count - 1}"


def test_named_constructors_refuse_at_the_shipped_cap():
    # n(n - 1) and 2n(n - 1) roots: the first sizes past 10000 refuse at once
    for make, n in ((gl_datum, 101), (sl_datum, 101), (pgl_datum, 101), (gspin_datum, 72)):
        with pytest.raises(ValueError, match=f"^root closure exceeded cap {ROOT_CLOSURE_CAP}$"):
            make(n)
    assert gl_datum(100)._root_count == 9900 and gspin_datum(71)._root_count == 9940


def test_preset_datum_validates_once(monkeypatch):
    calls = _counting_validations(monkeypatch)
    for name in presets.datum_names():
        calls.clear()
        d = presets.datum(name)
        assert calls == [d.label]


def _random_central(rng, vectors, rank):
    """A random primitive vector orthogonal to all of ``vectors``, or None."""
    perp = kernel_basis(IntMatrix(vectors, cols=rank)) if vectors else IntMatrix.identity(rank)
    if not perp.cols:
        return None
    while True:
        coeffs = [rng.randint(-3, 3) for _ in range(perp.cols)]
        v = perp.apply(coeffs)
        g = gcd(*v)
        if g:
            return tuple(x // g for x in v)


def test_derived_data_property():
    rng = random.Random(1601)
    makers = [gl_datum, gl_datum, sl_datum, gspin_datum]
    checked = 0
    for _ in range(120):
        d = BasedRootDatum(0, [], [], label="pt")
        for _ in range(rng.randint(1, 3)):
            make = rng.choice(makers)
            d = product_datum(d, make(rng.randint(1 if make is gl_datum else 2, 3)))
        chi = _random_central(rng, d.simple_coroots, d.rank)
        y = _random_central(rng, d.simple_roots, d.rank)
        if chi is None:
            assert y is None  # both complements have rank r - |Delta|
            continue
        ker = similitude_kernel_datum(d, chi)
        quo = central_torus_quotient_datum(d, y)
        for derived in (ker, quo):
            assert derived.rank == d.rank - 1
            assert derived.cartan_matrix() == d.cartan_matrix()
        # X / (Z chi + Z R) is the character group of the center of ker chi
        assert center_structure(ker) == lattice.cokernel_structure(
            IntMatrix.from_columns([chi, *d.simple_roots])
        )
        assert center_structure(quo.dual()) == lattice.cokernel_structure(
            IntMatrix.from_columns([y, *d.simple_coroots])
        )
        assert quo == similitude_kernel_datum(d.dual(), y).dual()
        checked += 1
    assert checked == 105


@pytest.mark.parametrize("build", [similitude_kernel_datum, central_torus_quotient_datum])
def test_kernel_refusals_in_order(build):
    d = presets.datum("GL2xGL2")
    length = "^character length does not match rank$"
    nonzero = "^similitude character must be nonzero$"
    primitive = "^similitude character must be a lattice direct-summand generator$"
    central = re.escape("similitude character must be central (pair to 0 with coroots)")
    for v, message in (
        ((0, 0, 0), length),
        ((1, 1, -1, -1, 0), length),
        ((0, 0, 0, 0), nonzero),
        ((2, 0, 0, 0), primitive),  # neither primitive nor central
        ((2, 2, -2, -2), primitive),
        ((1, 0, 0, 0), central),
    ):
        with pytest.raises(ValueError, match=message):
            build(d, v)
    with pytest.raises(ValueError, match=nonzero):
        build(BasedRootDatum(0, [], [], label="pt"), ())


def test_order_two_cocharacter_reads_only_simple_roots(monkeypatch):
    data = [presets.datum(name) for name in presets.datum_names()]
    data += [gspin_datum(2), gspin_datum(3)]
    cases = 0
    for d in data:
        if d.rank > 5:
            continue
        roots = [a for a, _ in d.roots()]
        for y in itertools.product(range(-2, 3), repeat=d.rank):
            by_closure = all(dot(a, y) % 2 == 0 for a in roots) and any(x % 2 for x in y)
            assert is_central_cocharacter_of_order_two(d, y) == by_closure, (d.label, y)
            cases += 1
    assert cases == 6155

    def no_closure(self, cap=ROOT_CLOSURE_CAP):
        raise RuntimeError("the reflection closure is not needed")

    monkeypatch.setattr(BasedRootDatum, "roots", no_closure)
    assert is_central_cocharacter_of_order_two(gspin_datum(3), (1, 0, 0, 0))
    assert not is_central_cocharacter_of_order_two(gspin_datum(3), (0, 1, 0, 0))


def _random_central_generator(rng, d):
    """(y, n) with <alpha, y> = 0 mod n for every simple root alpha.

    y is a random point of the projection of the kernel of [A^T | -n I],
    {(y, t) : <alpha_i, y> = n t_i}, with the simple roots as columns of A.
    """
    n = rng.randint(2, 4)
    m = len(d.simple_roots)
    if not m:
        return tuple(rng.randint(-3, 3) for _ in range(d.rank)), n
    rows = [list(a) + [-n if j == i else 0 for j in range(m)] for i, a in enumerate(d.simple_roots)]
    kern = kernel_basis(IntMatrix(rows, cols=d.rank + m))
    y = kern.apply([rng.randint(-2, 2) for _ in range(kern.cols)])
    return y[: d.rank], n


def _random_small_datum(rng, max_rank):
    """A product of one or two FACTORS of total rank 1..max_rank."""
    while True:
        d = rng.choice(FACTORS)
        if rng.random() < 0.6:
            d = product_datum(d, rng.choice(FACTORS))
        if d.rank <= max_rank:
            return d


def _cramer_solution(c, v):
    """The rational solution of c u = v for a nonsingular c, by Cramer's rule
    on Bareiss determinants, as (numerators, det c): no Smith form runs."""
    rows = c.to_rows()
    replaced = [[row[:j] + [x] + row[j + 1 :] for row, x in zip(rows, v)] for j in range(c.cols)]
    return [IntMatrix(m).det() for m in replaced], c.det()


def test_central_quotient_sublattice_is_always_full():
    # the invariants that make the quotient's removed refusals dead: the
    # kernel has r columns, its first r rows C are nonsingular, and every
    # simple root solves C u = alpha in integers. The solve is checked by
    # Cramer's rule, not solve_integral: a drawn C can carry 12-digit entries
    # whose Smith form does not finish (ROADMAP item 1)
    rng = random.Random(1702)
    for _ in range(3000):
        d = _random_small_datum(rng, 6)
        r = d.rank
        gens = [_random_central_generator(rng, d) for _ in range(rng.randint(1, 3))]
        rows = []
        for idx, (y, n) in enumerate(gens):
            row = list(y) + [0] * len(gens)
            row[r + idx] = -n
            rows.append(row)
        kern = kernel_basis(IntMatrix(rows, cols=r + len(gens)))
        assert kern.cols == r
        c = IntMatrix(kern.to_rows()[:r], cols=r)
        assert c.det() != 0
        for a in d.simple_roots:
            nums, det = _cramer_solution(c, a)
            assert all(x % det == 0 for x in nums)
            assert c.apply([x // det for x in nums]) == a


def _derive(rng, d):
    """(step, one random derivation of d), or (step, None) when d admits none."""
    step = rng.choice(("product", "dual", "kernel", "torus", "finite", "copy"))
    if step == "product":
        return step, product_datum(d, rng.choice(FACTORS)) if d.rank <= 8 else None
    if step == "dual":
        return step, d.dual()
    if step == "kernel":
        chi = _random_central(rng, d.simple_coroots, d.rank)
        return step, chi and similitude_kernel_datum(d, chi)
    if step == "torus":
        y = _random_central(rng, d.simple_roots, d.rank)
        return step, y and central_torus_quotient_datum(d, y)
    if step == "finite":
        gens = [_random_central_generator(rng, d) for _ in range(rng.randint(1, 2))]
        return step, central_quotient_datum(d, gens)
    return step, central_quotient_datum(d, [(tuple([1] * d.rank), 1)], label="copy")


def test_derived_data_pass_the_full_validator():
    rng = random.Random(1703)
    steps = set()
    for _ in range(400):
        d = rng.choice(FACTORS)
        for _ in range(rng.randint(1, 5)):
            step, derived = _derive(rng, d)
            if derived is None:
                continue
            again = BasedRootDatum(
                derived.rank, derived.simple_roots, derived.simple_coroots, derived.label
            )
            assert again == derived and again.label == derived.label
            assert again._root_count == derived._root_count == len(again.roots())
            steps.add(step)
            d = derived
    assert steps == {"product", "dual", "kernel", "torus", "finite", "copy"}


def test_product_refuses_past_the_closure_cap(monkeypatch):
    d1, d2 = gspin_datum(3), gl_datum(3)  # 12 and 6 roots
    monkeypatch.setattr(root_datum, "ROOT_CLOSURE_CAP", 18)
    p = product_datum(d1, d2)
    assert p._root_count == 18
    assert BasedRootDatum(p.rank, p.simple_roots, p.simple_coroots)._root_count == 18
    monkeypatch.setattr(root_datum, "ROOT_CLOSURE_CAP", 17)
    with pytest.raises(ValueError) as refused:
        product_datum(d1, d2)
    with pytest.raises(ValueError) as validated:
        BasedRootDatum(p.rank, p.simple_roots, p.simple_coroots)
    assert str(refused.value) == str(validated.value) == "root closure exceeded cap 17"
