import math
import random
import re
import signal
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations, product
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from gspinlab import morphisms, presets
from gspinlab.lattice import (
    IntMatrix,
    Vector,
    _trusted,
    diagonal_of,
    kernel_basis,
    smith_normal_form,
    solve_integral,
)
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
    center_structure,
    dual_sc_center,
    gl_datum,
    gspin_datum,
    pgl_datum,
    product_datum,
    sl_datum,
)
from test_cli import package_env


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


def compatible_permutations(d1, d2):
    """Oracle for ``cartan_compatible_bijections``: the s! permutations pi, in
    lexicographic order, each compared on the full s x s Cartan matrix."""
    c1, c2 = d1.cartan_matrix(), d2.cartan_matrix()
    s = len(c1)
    if s != len(c2):
        return []
    pairs = [(i, j) for i in range(s) for j in range(s)]
    return [
        pi for pi in permutations(range(s)) if all(c2[pi[i]][pi[j]] == c1[i][j] for i, j in pairs)
    ]


def relabelled(d, order):
    """d with its simple roots, and their coroots with them, listed in ``order``."""
    return BasedRootDatum(
        d.rank, [d.simple_roots[k] for k in order], [d.simple_coroots[k] for k in order]
    )


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


# ---------------------------------------------------------------------------
# The oracle: the search as it stood before it read isomorphisms in
# root-and-centre coordinates, kept verbatim (renamed completion_search). It
# solved the completion constraints per bijection and enumerated the affine
# family S0 + K_Z E K_A^T, with a determinant that is affine in c at gap one.


def _solve_each(m: IntMatrix, rhs: Sequence[Sequence[int]]) -> Optional[List[Vector]]:
    """An integral x with m x = b for each b in rhs, or None when one has none."""
    out = [solve_integral(m, b) for b in rhs]
    return None if None in out else out


# The gap >= 2 refusal test as it stood before it read integrality off the
# one reduction of M, kept verbatim: three rounds of solves on A (the
# source's simple roots as rows), Z (the target's simple coroots as rows)
# and K_A, the saturated kernel of A.
def _has_completion(
    d1: BasedRootDatum,
    d2: BasedRootDatum,
    pi: Sequence[int],
    roots: IntMatrix,
    coroots: IntMatrix,
    ka: IntMatrix,
) -> bool:
    """Is there an integral S0 with S0 alpha_i = beta_pi(i) and S0^T beta_pi(i)^vee = alpha_i^vee?

    ``roots`` is A (rows alpha_i), ``coroots`` is Z (rows beta_j^vee) and
    ``ka`` is K_A, the saturated kernel of A. The constraints read
    A S^T = B_pi and Z S = W_pi, with B_pi the rows beta_pi(i) and W_pi the
    rows alpha_pi^-1(j)^vee. Their integral solutions are S0 + K_Z E K_A^T,
    E integral of size (n - s) x (n - s), K_Z the saturated kernel of Z:
    each row of S differs from that of S0 by an integral kernel vector of
    A, so S = S0 + C K_A^T with C integral; then Z C K_A^T = 0 and K_A has
    full column rank, so Z C = 0 and each column of C lies in the span of
    K_Z. S0 = P + C K_A^T exists exactly when the three rounds below solve.
    """
    n = d1.rank
    # 1. row r of S solves A x = (beta_pi(i)[r])_i, so S = P + C K_A^T
    p = _solve_each(roots, [[d2.simple_roots[j][r] for j in pi] for r in range(n)])
    if p is None:
        return False
    # 2. Z S = W_pi, row j of W_pi being alpha_pi^-1(j)^vee, leaves
    #    (Z C) K_A^T = W_pi - Z P, one row j at a time
    zp = coroots * _trusted(tuple(p), n)
    rest: List[List[int]] = [[]] * len(pi)
    for i, j in enumerate(pi):
        rest[j] = [w - x for w, x in zip(d1.simple_coroots[i], zp.row(j))]
    m = _solve_each(ka, rest)
    # 3. column b of C solves Z c = (m_j[b])_j
    return m is not None and (
        _solve_each(coroots, [[row[b] for row in m] for b in range(ka.cols)]) is not None
    )


def completion_oracle(d1: BasedRootDatum, d2: BasedRootDatum, pi: Sequence[int]) -> bool:
    """``_has_completion`` on A, Z and K_A, built as its search built them."""
    n = d1.rank
    roots = IntMatrix(d1.simple_roots, cols=n)
    coroots = IntMatrix(d2.simple_coroots, cols=n)
    return _has_completion(d1, d2, pi, roots, coroots, kernel_basis(roots))


def completion_decision(d1: BasedRootDatum, d2: BasedRootDatum, pi: Sequence[int]) -> bool:
    """The search's gap >= 2 test for pi, asked at any gap: the Cartan walk with pi
    as its assignment, then the congruence on the reduction of M = [alpha | B0]."""
    n = d1.rank
    if not cartan_compatible_bijections(d1, d2, pi):
        return False
    b0 = kernel_basis(IntMatrix(d1.simple_coroots, cols=n))
    y0 = kernel_basis(IntMatrix(d2.simple_coroots, cols=n))
    _, dm, v = smith_normal_form(IntMatrix.from_columns([*d1.simple_roots, *b0.columns()], rows=n))
    return morphisms._completion_test(d2, y0, tuple(v.iter_rows()), diagonal_of(dm))(pi)


def _completion_directions(ka: IntMatrix, kz: IntMatrix) -> IntMatrix:
    """The directions K_Z[:, a] K_A[:, b]^T of the completion family, read row-major."""
    directions = [
        tuple([z * x for z in zc for x in xc]) for zc in kz.columns() for xc in ka.columns()
    ]
    return _trusted(tuple(directions), ka.rows * ka.rows).transpose()


def _base_completion(
    d1: BasedRootDatum,
    d2: BasedRootDatum,
    pi: Sequence[int],
    roots: IntMatrix,
    coroots: IntMatrix,
    ka: IntMatrix,
) -> Optional[List[int]]:
    """One integral S0 with S0 alpha_i = beta_pi(i) and S0^T beta_pi(i)^vee = alpha_i^vee.

    Returned row-major, or None when there is none. ``roots`` is A (rows
    alpha_i), ``coroots`` is Z (rows beta_j^vee) and ``ka`` is K_A.
    """
    n = d1.rank
    g = ka.cols
    # 1. row r of S solves A x = (beta_pi(i)[r])_i, so S = P + C K_A^T
    p = _solve_each(roots, [[d2.simple_roots[j][r] for j in pi] for r in range(n)])
    if p is None:
        return None
    # 2. Z S = W_pi, row j of W_pi being alpha_pi^-1(j)^vee, leaves
    #    (Z C) K_A^T = W_pi - Z P, one row j at a time
    zp = coroots * _trusted(tuple(p), n)
    rest: List[List[int]] = [[]] * len(pi)
    for i, j in enumerate(pi):
        rest[j] = [w - x for w, x in zip(d1.simple_coroots[i], zp.row(j))]
    m = _solve_each(ka, rest)
    if m is None:
        return None
    # 3. column b of C solves Z c = (m_j[b])_j
    c = _solve_each(coroots, [[row[b] for row in m] for b in range(g)])
    if c is None:
        return None
    shift = (ka * _trusted(tuple(c), n)).transpose()  # C K_A^T
    return [x + y for pr, sr in zip(p, shift.iter_rows()) for x, y in zip(pr, sr)]


def _matrix_from_vec(vec: Sequence[int], n: int) -> IntMatrix:
    return _trusted(tuple([tuple(vec[i * n : (i + 1) * n]) for i in range(n)]), n)


def _completions(
    s0: List[int], kern: IntMatrix, n: int, dets: Tuple[int, ...]
) -> List[IntMatrix]:
    """Candidate matrices S in the family s0 + span(kern) with det(S) in dets.

    S is fixed on the root span and free only as a map from the source's
    central part to the target's, so kern has (rank - |Delta|)^2 columns.
    """
    m = kern.cols
    if m == 0:
        mat = _matrix_from_vec(s0, n)
        return [mat] if mat.det() in dets else []
    if m == 1:
        # K has rank one, so det(s0 + cK) = d0 + c (d1 - d0)
        kvec = kern.col(0)
        d0 = _matrix_from_vec(s0, n).det()
        slope = _matrix_from_vec([a + b for a, b in zip(s0, kvec)], n).det() - d0
        if slope == 0:
            if d0 in dets:
                raise AssertionError(
                    "det is constant on a one-parameter completion family: "
                    "infinitely many isomorphisms at rank - |Delta| = 1"
                )
            return []
        cvals = sorted({(t - d0) // slope for t in dets if (t - d0) % slope == 0})
        return [_matrix_from_vec([a + c * b for a, b in zip(s0, kvec)], n) for c in cvals]
    gap = math.isqrt(m)
    raise InfiniteFamilyError(
        f"rank {n}, |Delta| = {n - gap}: the completions form a {m}-parameter "
        "family, so the isomorphisms are none or infinitely many; refusing to enumerate"
    )


def completion_search(
    d1: BasedRootDatum,
    d2: BasedRootDatum,
    assignment: Optional[Sequence[int]] = None,
    det_sign: Optional[int] = None,
) -> List[RootDatumMap]:
    """All based-root-datum isomorphisms d1 -> d2 under the constraints.

    ``assignment`` fixes iota(alpha_i) = beta_assignment[i]; ``det_sign``
    restricts det(iota) to +1 or -1. At rank - |Delta| >= 2, data whose
    centers differ have none; otherwise InfiniteFamilyError is raised when
    some bijection has an integral completion: the isomorphisms are then
    none or infinitely many, with or without the constraints.

    The constraints on S = iota for a bijection pi are A S^T = B_pi and
    Z S = W_pi, with A the source's simple roots as rows, Z the target's
    simple coroots as rows (both s x n), B_pi the rows beta_pi(i) and W_pi
    the rows alpha_pi^-1(j)^vee. Every bijection shares A, Z and their
    saturated kernel bases K_A and K_Z (n x (n - s)); a search reduces A, Z
    and K_A once each (``_base_completion``). The integral solutions are
    exactly S0 + K_Z E K_A^T, E integral of size (n - s) x (n - s):
    each row of S differs from that of S0 by an integral kernel vector of
    A, which K_A (saturated) spans over Z, so S = S0 + C K_A^T with C
    integral; then Z C K_A^T = 0 and K_A has full column rank, so Z C = 0,
    and each column of C is an integral kernel vector of Z, spanned by K_Z.
    """
    if d1.rank != d2.rank or len(d1.simple_roots) != len(d2.simple_roots):
        return []
    n = d1.rank
    s = len(d1.simple_roots)
    if assignment is None:
        bijections = compatible_permutations(d1, d2)
    else:
        pi = tuple(assignment)
        if len(pi) != s or not all(0 <= j < s for j in pi):
            raise ValueError(
                f"assignment {pi} does not map {s} simple roots to indices 0..{s - 1}"
            )
        # a non-injective assignment cannot extend to an isomorphism
        bijections = [pi] if len(set(pi)) == s else []
    if not bijections:
        return []
    if n - s >= 2 and (center_structure(d1) != center_structure(d2) or (
        s and dual_sc_center(d1) != dual_sc_center(d2)
    )):
        return []
    roots = IntMatrix(d1.simple_roots, cols=n)
    coroots = IntMatrix(d2.simple_coroots, cols=n)
    ka = kernel_basis(roots)
    kern = _completion_directions(ka, kernel_basis(coroots))
    dets = (1, -1) if det_sign is None else (det_sign,)
    results: Dict[IntMatrix, RootDatumMap] = {}
    for pi in bijections:
        s0 = _base_completion(d1, d2, pi, roots, coroots, ka)
        if s0 is None:
            continue
        # each candidate already has det(S) in dets
        for mat in _completions(s0, kern, n, dets):
            f = RootDatumMap(mat, mat.transpose())
            if check_isomorphism(f, d1, d2):
                results[mat] = f
    return sorted(results.values(), key=lambda f: f.iota.to_rows())


# ---------------------------------------------------------------------------


def reference_search(d1, d2, assignment=None, det_sign=None):
    """search_isomorphisms with a fresh system and reduction per bijection."""
    if d1.rank != d2.rank or len(d1.simple_roots) != len(d2.simple_roots):
        return []
    bijections = (
        [tuple(assignment)] if assignment is not None else compatible_permutations(d1, d2)
    )
    dets = (1, -1) if det_sign is None else (det_sign,)
    results = {}
    for pi in bijections:
        system, rhs = per_bijection_system(d1, d2, pi)
        part = solve_integral(system, rhs)
        if part is None:
            continue
        kern = kernel_basis(system)
        for mat in _completions(list(part), kern, d1.rank, dets):
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
    # a kernel that pairs to -1 with the first root is not central
    ok, detail = verify_dual_identification(
        "GSpin4", presets.datum("GL2xGL2"), kernel=(1, 2, 1, 1)
    )
    assert not ok
    assert detail == {
        "case": "GSpin4",
        "kernel": [1, 2, 1, 1],
        "kernel_central": False,
        "kernel_matches_similitude_dual": False,
    }


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
    for bad in ((0, 1), (0, 1, 7), (0, 1, 3), (0, 1, 2, 0), (-1, 0, 1)):
        message = f"assignment {bad!r} does not map 3 simple roots to indices 0..2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            search_isomorphisms(PSI6, G6, assignment=bad)


def test_non_injective_assignment_builds_no_system(monkeypatch):
    def refuse(*args):
        raise AssertionError("a system was reduced")

    monkeypatch.setattr(morphisms, "kernel_basis", refuse)
    monkeypatch.setattr(morphisms, "smith_normal_form", refuse)
    monkeypatch.setattr(morphisms, "solve_integral", refuse)
    assert search_isomorphisms(PSI6, G6, assignment=(0, 0, 2)) == []
    assert search_isomorphisms(PSI4, G4, assignment=(1, 1)) == []
    # nor does an injective assignment that breaks the Cartan matrix, at any gap
    assert search_isomorphisms(PSI6, G6, assignment=(1, 0, 2)) == []
    gl2_gl3 = product_datum(gl_datum(2), gl_datum(3))
    assert search_isomorphisms(gl2_gl3, gl2_gl3, assignment=(1, 0, 2)) == []


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
    """The maps as dicts, or the refusal's type and message."""
    try:
        return _as_dicts(search(d1, d2, **kwargs))
    except (InfiniteFamilyError, AssertionError) as exc:  # the oracle may raise either
        return f"{type(exc).__name__}: {exc}"


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


def test_cartan_walk_matches_the_permutation_oracle():
    names = presets.datum_names()
    pairs = [(presets.datum(a), presets.datum(b)) for a in names for b in names]
    rng = random.Random(9001)
    for d in seeded_products(9001, 150, max_rank=7):
        for target in (d, d.dual()):
            order = list(range(len(d.simple_roots)))
            rng.shuffle(order)
            pairs += [(d, target), (relabelled(d, order), target)]
    # B2 against itself, C2 and A2: B2 has -1 in one direction of its pair of
    # roots, as A2 has in both, so only a check both ways refuses A2
    b2 = BasedRootDatum(2, [(1, -1), (0, 1)], [(1, -1), (0, 2)])
    for d1 in (b2, relabelled(b2, (1, 0))):
        pairs += [(d1, b2), (d1, b2.dual()), (d1, sl_datum(3))]
    assert len(pairs) == 687
    fixed = found = 0
    for d1, d2 in pairs:
        want = compatible_permutations(d1, d2)
        assert cartan_compatible_bijections(d1, d2) == want, (d1.to_dict(), d2.to_dict())
        s = len(d1.simple_roots)
        if s > 4 or s != len(d2.simple_roots):
            continue
        # a fixed assignment, injective or not, is one choice per root
        for pi in product(range(s), repeat=s) if s <= 3 else permutations(range(s)):
            got = cartan_compatible_bijections(d1, d2, pi)
            assert got == ([pi] if pi in want else []), (d1.to_dict(), d2.to_dict(), pi)
            fixed += 1
            found += len(got)
    assert (fixed, found) == (7809, 1385)


def test_cartan_walk_prunes_a_chain_labelled_out_of_order():
    # A18 with its odd positions first: the permutation filter tests 19! candidates
    code = (
        "from gspinlab.morphisms import cartan_compatible_bijections\n"
        "from gspinlab.root_datum import BasedRootDatum, sl_datum\n"
        "d = sl_datum(20)\n"
        "order = [*range(1, 19, 2), *range(0, 19, 2)]\n"
        "r = BasedRootDatum(d.rank, [d.simple_roots[k] for k in order],"
        " [d.simple_coroots[k] for k in order])\n"
        "print(cartan_compatible_bijections(r, d))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=package_env(), timeout=10
    )
    assert proc.returncode == 0, proc.stderr
    order = [*range(1, 19, 2), *range(0, 19, 2)]
    assert proc.stdout == f"{[tuple(order), tuple(18 - k for k in order)]}\n"


def _gap(d):
    return d.rank - len(d.simple_roots)


def test_completion_family_has_gap_squared_columns():
    for d in SEEDED_PRODUCTS:
        for x in (d, d.dual()):
            n = x.rank
            roots = IntMatrix(x.simple_roots, cols=n)
            coroots = IntMatrix(x.simple_coroots, cols=n)
            kern = _completion_directions(kernel_basis(roots), kernel_basis(coroots))
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
    original = _completions

    def record(s0, kern, n, dets):
        out = original(s0, kern, n, dets)
        families.append((s0, kern, n, dets, out))
        return out

    # completion_search reads _completions from this module's globals
    monkeypatch.setitem(globals(), "_completions", record)
    for d1, d2 in _searches_to_replay():
        for variant in ISO_VARIANTS:
            kwargs = variant_kwargs(variant, d1)
            if _gap(d1) >= 2:
                with pytest.raises(InfiniteFamilyError):
                    completion_search(d1, d2, **kwargs)
                with pytest.raises(InfiniteFamilyError):
                    search_isomorphisms(d1, d2, **kwargs)
            else:
                assert _as_dicts(search_isomorphisms(d1, d2, **kwargs)) == _as_dicts(
                    completion_search(d1, d2, **kwargs)
                )
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
    got = _completions([1, 0, 0, 1], line, 2, (1, -1))
    assert [m.to_rows() for m in got] == [[[-1, 0], [0, 1]], [[1, 0], [0, 1]]]
    # det(I + c E12) = 1 for every c: infinitely many, which gap 1 rules out
    with pytest.raises(AssertionError, match="det is constant"):
        _completions([1, 0, 0, 1], IntMatrix([[0], [1], [0], [0]]), 2, (1, -1))
    assert _completions([1, 0, 0, 1], IntMatrix([[0], [1], [0], [0]]), 2, (-1,)) == []


def test_gap_two_family_is_infinite():
    # why rank - |Delta| >= 2 is refused: on GL2xGL2 these all pass, one per t
    d = presets.datum("GL2xGL2")
    for t in range(-30, 31):
        iota = IntMatrix([[1, 0, t, t], [0, 1, t, t], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert check_isomorphism(RootDatumMap(iota, iota.transpose()), d, d), t
    for variant in ISO_VARIANTS:
        with pytest.raises(InfiniteFamilyError, match="rank 4, [|]Delta[|] = 2: .* 4-parameter family"):
            search_isomorphisms(d, d, **variant_kwargs(variant, d))


# none, det +-1, the identity assignment (fix-delta) and both
SEARCH_VARIANTS = (*ISO_VARIANTS, {"assignment": True, "det_sign": -1})


def test_search_matches_the_completion_search_on_all_preset_pairs():
    names = presets.datum_names()
    refusals = []
    for d1 in map(presets.datum, names):
        for d2 in map(presets.datum, names):
            for variant in SEARCH_VARIANTS:
                kwargs = variant_kwargs(variant, d1)
                got = _outcome(search_isomorphisms, d1, d2, kwargs)
                want = _outcome(completion_search, d1, d2, kwargs)
                assert got == want, (d1.label, d2.label, variant)
                if isinstance(got, str):
                    refusals.append(got.split(":")[0])
    assert len(names) ** 2 == 81
    assert refusals == ["InfiniteFamilyError"] * (2 * len(SEARCH_VARIANTS))


def _every_assignment(d1, d2):
    """Every bijection of the simple roots, Cartan-compatible or not."""
    s = len(d1.simple_roots)
    return list(permutations(range(s))) if s == len(d2.simple_roots) else []


def _gap_three_pairs():
    """GL1^3 and GL2 x GL1 x GL1, each with a conjugate of itself."""
    rng = random.Random(3)
    out = []
    for d in (
        product_datum(gl_datum(1), product_datum(gl_datum(1), gl_datum(1))),
        product_datum(gl_datum(2), product_datum(gl_datum(1), gl_datum(1))),
    ):
        g, ginv = _elementary_pair(rng, d.rank, 3)
        out.append((d, conjugate_datum(d, g, ginv)))
    return out


def test_search_matches_the_completion_search_on_replayed_searches():
    pairs = _searches_to_replay() + _gap_three_pairs()
    assert {_gap(d1) for d1, _ in pairs} == {0, 1, 2, 3}
    refusals = 0
    for d1, d2 in pairs:
        calls = [variant_kwargs(variant, d1) for variant in SEARCH_VARIANTS]
        calls += [
            {"assignment": pi, **sign}
            for pi in _every_assignment(d1, d2)
            for sign in ({}, {"det_sign": -1})
        ]
        for kwargs in calls:
            got = _outcome(search_isomorphisms, d1, d2, kwargs)
            want = _outcome(completion_search, d1, d2, kwargs)
            assert got == want, (d1.to_dict(), d2.to_dict(), kwargs)
            refusals += isinstance(got, str)
    assert refusals > 0


def test_gap_at_most_one_builds_at_most_two_candidates_per_bijection(monkeypatch):
    def refuse(*args):
        raise AssertionError("a completion system was solved")

    checked = []
    check = morphisms.check_isomorphism

    def record(f, d1, d2):
        ok = check(f, d1, d2)
        checked.append((f.iota.det(), ok))
        return ok

    monkeypatch.setattr(morphisms, "solve_integral", refuse)
    monkeypatch.setattr(morphisms, "check_isomorphism", record)
    built = incompatible = 0
    for d1, d2 in _searches_to_replay():
        if _gap(d1) >= 2:
            continue
        compatible = cartan_compatible_bijections(d1, d2)
        calls = [variant_kwargs(variant, d1) for variant in SEARCH_VARIANTS]
        calls += [{"assignment": pi} for pi in _every_assignment(d1, d2)]
        for kwargs in calls:
            checked.clear()
            found = search_isomorphisms(d1, d2, **kwargs)
            bijections = [kwargs["assignment"]] if "assignment" in kwargs else compatible
            dets = (kwargs["det_sign"],) if "det_sign" in kwargs else (1, -1)
            # one candidate per bijection and determinant, built with that determinant
            assert len(checked) <= len(bijections) * len(dets)
            assert all(det in dets for det, _ in checked)
            # an assignment that breaks the Cartan matrix builds no candidate
            if any(pi not in compatible for pi in bijections):
                assert checked == [] and found == [], (d1.to_dict(), d2.to_dict(), kwargs)
                incompatible += 1
            # the coroot condition follows from Cartan compatibility
            assert all(ok for _, ok in checked), (d1.to_dict(), d2.to_dict(), kwargs)
            assert len(found) == len(checked)
            built += len(checked)
    assert built > 100
    assert incompatible > 100


def test_gap_two_search_without_a_completion_is_none():
    # the centers and the dual simply connected centers agree, yet nothing
    # completes: S^T (2, 0, 0) = (1, -1, 0) has no integral solution (2c = -1).
    # None, not a refusal
    gl2_gl1 = product_datum(gl_datum(2), gl_datum(1))
    pgl2_gl1_gl1 = product_datum(pgl_datum(2), product_datum(gl_datum(1), gl_datum(1)))
    assert center_structure(gl2_gl1) == center_structure(pgl2_gl1_gl1)
    assert dual_sc_center(gl2_gl1) == dual_sc_center(pgl2_gl1_gl1)
    assert not completion_decision(gl2_gl1, pgl2_gl1_gl1, (0,))
    assert search_isomorphisms(gl2_gl1, pgl2_gl1_gl1) == []
    assert completion_search(gl2_gl1, pgl2_gl1_gl1) == []
    # the reverse search refuses, although the two are not isomorphic (the
    # simple coroot is twice a cocharacter in PGL2 x GL1 x GL1 only): it has
    # an integral completion, and none of them is unimodular
    assert completion_decision(pgl2_gl1_gl1, gl2_gl1, (0,))
    with pytest.raises(InfiniteFamilyError, match="rank 3, [|]Delta[|] = 1: .* 4-parameter family"):
        search_isomorphisms(pgl2_gl1_gl1, gl2_gl1)
    # an assignment that breaks the Cartan matrix has no completion
    d = product_datum(gl_datum(2), gl_datum(3))
    assert search_isomorphisms(d, d, assignment=(1, 0, 2)) == []
    assert completion_search(d, d, assignment=(1, 0, 2)) == []
    with pytest.raises(InfiniteFamilyError, match="rank 5, [|]Delta[|] = 3: .* 4-parameter family"):
        search_isomorphisms(d, d, assignment=(0, 1, 2))


def test_check_isomorphism_refuses_maps_of_the_wrong_shape():
    d1, d2 = sl_datum(2), gl_datum(2)  # ranks 1 and 2, one simple root each
    iota = IntMatrix([[1], [-1]])
    # the right shape between data of different ranks: no isomorphism, no error
    assert check_isomorphism(RootDatumMap(iota, iota.transpose()), d1, d2) is False
    square, column = IntMatrix([[1, 0], [0, 1]]), IntMatrix([[1]])
    for bad in (
        RootDatumMap(square, iota.transpose()),  # iota: rows right, columns wrong
        RootDatumMap(column, iota.transpose()),  # iota: rows wrong, columns right
        RootDatumMap(iota, column),  # iota_vee: rows right, columns wrong
        RootDatumMap(iota, square),  # iota_vee: rows wrong, columns right
    ):
        with pytest.raises(ValueError, match="^map dimensions do not match the data$"):
            check_isomorphism(bad, d1, d2)


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _decide_against_the_oracle(cases):
    """(gap, answer) of each (source, target, pi) case, where both tests agree in time."""
    answers = []
    for d1, d2, pi in cases:
        with _deadline(5):
            got = completion_decision(d1, d2, pi)
            want = completion_oracle(d1, d2, pi)
        assert got == want, (d1.to_dict(), d2.to_dict(), pi)
        answers.append((_gap(d1), got))
    return answers


def test_completion_test_matches_the_oracle_on_every_bijection():
    names = presets.datum_names()
    pairs = [(presets.datum(a), presets.datum(b)) for a in names for b in names]
    pairs += _searches_to_replay() + _gap_three_pairs()
    cases = [
        (d1, d2, pi) for d1, d2 in pairs if d1.rank == d2.rank for pi in _every_assignment(d1, d2)
    ]
    assert len(cases) == 1036
    answers = set(_decide_against_the_oracle(cases))
    assert {gap for gap, _ in answers} == {0, 1, 2, 3}
    assert {(2, True), (2, False), (3, True)} <= answers


def test_completion_test_matches_the_oracle_on_seeded_conjugates():
    rng = random.Random(9001)
    pairs = []
    for d in seeded_products(9001, 150, max_rank=7):
        for x in (d, d.dual()):
            g, ginv = _elementary_pair(rng, x.rank, rng.randint(1, 6))
            pairs.append((x, conjugate_datum(x, g, ginv)))
    cases = [(d1, d2, pi) for d1, d2 in pairs for pi in cartan_compatible_bijections(d1, d2)]
    assert len(cases) == 1202
    answers = set(_decide_against_the_oracle(cases))
    assert {(2, True), (2, False)} <= answers

