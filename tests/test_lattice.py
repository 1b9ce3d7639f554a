import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from gspinlab import lattice, morphisms, presets, root_datum
from gspinlab.lattice import (
    AbelianGroupStructure,
    IntMatrix,
    cokernel_structure,
    kernel_basis,
    matrix_rank,
    smith_normal_form,
    solve_integral,
)
from gspinlab.morphisms import InfiniteFamilyError, search_isomorphisms
from gspinlab.root_datum import (
    center_structure,
    central_torus_quotient_datum,
    dual_sc_center,
    similitude_kernel_datum,
    verify_exact_sequence,
)
from test_morphisms import (
    ISO_VARIANTS,
    SHIPPED_PAIRS,
    _completion_directions,
    _matrix_from_vec,
    compatible_permutations,
    per_bijection_system,
    variant_kwargs,
)


def cofactor_det(rows):
    # independent determinant oracle (Laplace expansion)
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def is_zero(m):
    return all(x == 0 for row in m.iter_rows() for x in row)


def diag(m):
    return [m.entry(i, i) for i in range(min(m.rows, m.cols))]


def test_snf_identity():
    m = IntMatrix.identity(2)
    u, d, v = smith_normal_form(m)
    assert u == IntMatrix.identity(2)
    assert d == IntMatrix.identity(2)
    assert v == IntMatrix.identity(2)


def test_snf_small_example_matches_gcd_oracle():
    rows = [[2, 4], [6, 8]]
    m = IntMatrix(rows)
    u, d, v = smith_normal_form(m)
    d1 = gcd(gcd(2, 4), gcd(6, 8))
    det = abs(cofactor_det(rows))
    assert diag(d) == [d1, det // d1] == [2, 4]
    assert u * m * v == d


def test_snf_distinguished_unimodular_matrix():
    rows = [[0, 0, -1], [0, -1, 0], [-1, 1, 1]]
    assert cofactor_det(rows) == 1
    _, d, _ = smith_normal_form(IntMatrix(rows))
    assert diag(d) == [1, 1, 1]


def test_cokernel_scaling():
    assert cokernel_structure(IntMatrix([[2, 0], [0, 2]])) == AbelianGroupStructure(0, (2, 2))


def test_cokernel_empty_relations():
    assert cokernel_structure(IntMatrix([[], [], []], cols=0)) == AbelianGroupStructure(3)


def test_cokernel_root_span():
    # relations are the columns e1-e2 and e1+e2 inside Z^3
    m = IntMatrix.from_columns([(0, 1, -1), (0, 1, 1)])
    # oracle: gcd of entries and gcd of 2x2 minors
    minors = []
    rows = m.to_rows()
    for i in range(3):
        for j in range(i + 1, 3):
            minors.append(rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0])
    d1 = gcd(gcd(1, 1), 1)
    d2 = gcd(gcd(minors[0], minors[1]), minors[2]) // d1
    assert (d1, abs(d2)) == (1, 2)
    assert cokernel_structure(m) == AbelianGroupStructure(1, (2,))


def test_kernel_orthogonal_complement():
    m = IntMatrix([[1, 1, -1, -1]])
    k = kernel_basis(m)
    assert k.cols == 3
    assert is_zero(m * k)
    _, d, _ = smith_normal_form(k)
    assert diag(d) == [1, 1, 1]  # saturated


def test_kernel_injective_map():
    assert kernel_basis(IntMatrix.identity(2)).cols == 0


def test_kernel_single_relation():
    k = kernel_basis(IntMatrix([[2, -1]]))
    assert k.columns() == [(1, 2)]


def _suite_500():
    rng = random.Random(20240817)
    for _ in range(500):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        yield IntMatrix([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])


def test_snf_property_suite_500_random():
    for m in _suite_500():
        u, d, v = smith_normal_form(m)
        assert u * m * v == d
        assert cofactor_det(u.to_rows()) in (1, -1)
        assert cofactor_det(v.to_rows()) in (1, -1)
        ds = [x for x in diag(d)]
        for a, b in zip(ds, ds[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d.entry(i, j) == 0


def _random_unimodular(rng, n):
    m = IntMatrix.identity(n).to_rows()
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        for t in range(n):
            m[i][t] += q * m[j][t]
    return IntMatrix(m)


def test_cokernel_invariant_under_unimodular_transforms():
    rng = random.Random(7)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        left = _random_unimodular(rng, r)
        right = _random_unimodular(rng, c)
        assert cokernel_structure(left * m * right) == cokernel_structure(m)


def test_kernel_saturation_property():
    rng = random.Random(99)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        k = kernel_basis(m)
        assert is_zero(m * k)
        if k.cols:
            _, d, _ = smith_normal_form(k)
            assert all(x == 1 for x in diag(d))


def test_solve_integral_roundtrip():
    rng = random.Random(5)
    for _ in range(80):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)])
        x = [rng.randint(-4, 4) for _ in range(c)]
        b = m.apply(x)
        sol = solve_integral(m, b)
        assert sol is not None
        assert m.apply(sol) == b


def test_solve_integral_unsolvable():
    assert solve_integral(IntMatrix([[2]]), [1]) is None


def test_abelian_structure_validation():
    for torsion in ((1,), (1, 2, 4), (0,)):
        with pytest.raises(ValueError, match="^torsion invariant factors must be >= 2$"):
            AbelianGroupStructure(0, torsion)
    with pytest.raises(ValueError, match="^invariant factors must form a divisibility chain$"):
        AbelianGroupStructure(0, (4, 2))
    with pytest.raises(ValueError, match="^negative free rank$"):
        AbelianGroupStructure(-1)
    normalized = AbelianGroupStructure(0, [2, 4.0])
    assert normalized.torsion == (2, 4) and all(type(d) is int for d in normalized.torsion)
    s = AbelianGroupStructure(1, (2, 4))
    assert s.torsion_order() == 8
    assert s.two_torsion() == AbelianGroupStructure(0, (2, 2))
    assert str(s) == "Z x Z/2 x Z/4"


def test_abelian_structure_value_semantics():
    a, b = AbelianGroupStructure(1, (2, 4)), AbelianGroupStructure(1, (2, 4))
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != AbelianGroupStructure(2, (2, 4))
    assert a != AbelianGroupStructure(1, (2, 8))
    assert a != (1, (2, 4))
    assert AbelianGroupStructure(torsion=[2, 4], free_rank=1) == a
    assert AbelianGroupStructure(3).torsion == ()
    with pytest.raises(AttributeError):
        a.free_rank = 0
    with pytest.raises(AttributeError):
        a.torsion = ()


# sha256 of the (U, D, V) rows of the inputs below. Kernel bases and
# solutions are read from U and V, so a reduction that changes its sequence
# of row and column operations must re-record this on purpose.
SNF_PIN = "99cf87770b77b24a001fe9865583f1373c8bf3d2ddd47bcaa90fda762584c343"


def _search_systems(monkeypatch):
    """Every distinct matrix the shipped isomorphism searches reduce, in order."""
    seen = []
    reduce = lattice.smith_normal_form

    def record(m):
        key = (m.cols, m.to_rows())
        if key not in seen:
            seen.append(key)
        return reduce(m)

    with monkeypatch.context() as patch:
        patch.setattr(lattice, "smith_normal_form", record)
        patch.setattr(morphisms, "smith_normal_form", record)
        for d1, d2 in SHIPPED_PAIRS:
            for variant in ISO_VARIANTS:
                search_isomorphisms(d1, d2, **variant_kwargs(variant, d1))
    return [IntMatrix(rows, cols=cols) for cols, rows in seen]


def test_snf_output_pinned(monkeypatch):
    # the per-bijection systems of the shipped pairs, in search order
    systems = [
        per_bijection_system(d1, d2, pi)[0]
        for d1, d2 in SHIPPED_PAIRS
        for pi in compatible_permutations(d1, d2)
    ]
    assert len(systems) == 4
    payload = [[x.to_rows() for x in smith_normal_form(m)] for m in [*_suite_500(), *systems]]
    assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == SNF_PIN
    # each pair's searches reduce the source's and the target's simple
    # coroots (as rows), whose kernels are X0 and X0', and M = [alpha | B0]
    reduced = []
    for d1, d2 in SHIPPED_PAIRS:
        coroots = IntMatrix(d1.simple_coroots)
        m = IntMatrix.from_columns([*d1.simple_roots, *kernel_basis(coroots).columns()])
        reduced += [coroots, IntMatrix(d2.simple_coroots), m]
    assert _search_systems(monkeypatch) == reduced


# sha256 of (U, D, V) and the untracked D of every distinct matrix that
# verify-paper's catalogue and the shipped isomorphism searches reduce,
# in the order first reduced: the centers, kernels, quotient relations and
# exact sequences behind the commands' answers.
SHIPPED_SNF_PIN = "d2efd821b2611720ea86473ea02f941fba50b822c1136cb6e52a3cf4b94b6baa"


def test_shipped_reductions_pinned(monkeypatch):
    from gspinlab.verify import run_catalogue

    seen = {}
    reduce = lattice._smith

    def record(m, track=True):
        seen.setdefault((m.cols, m._data))
        return reduce(m, track)

    monkeypatch.setattr(lattice, "_smith", record)
    assert all(item.ok for item in run_catalogue())
    for d1, d2 in SHIPPED_PAIRS:
        for variant in ISO_VARIANTS:
            search_isomorphisms(d1, d2, **variant_kwargs(variant, d1))
    payload = []
    for cols, rows in seen:
        triple = reduce(IntMatrix(rows, cols=cols))
        untracked = reduce(IntMatrix(rows, cols=cols), False)
        assert untracked[0] is None and untracked[2] is None
        payload.append([x.to_rows() for x in triple] + [untracked[1].to_rows()])
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
    assert (len(payload), digest) == (35, SHIPPED_SNF_PIN)


# sha256 of (U, D, V) of every distinct matrix that a gap-two search
# (GL2xGL2 onto itself) reduces, in the order first reduced.
GAP_TWO_SNF_PIN = "afba4f58b77f63f6bfeac99c7a833e3831d95dfb98faa78a91d277da8cfbaedd"


def test_gap_two_search_reductions_pinned(monkeypatch):
    d = presets.datum("GL2xGL2")
    ka = kernel_basis(IntMatrix(d.simple_roots))  # K_A, the kernel of the simple roots
    seen = {}
    reduce = lattice._smith

    def record(m, track=True):
        seen.setdefault((m.cols, m._data))
        return reduce(m, track)

    monkeypatch.setattr(lattice, "_smith", record)
    with pytest.raises(InfiniteFamilyError):
        search_isomorphisms(d, d)
    # the centre comparison's roots (as columns) and Cartan matrix, the simple
    # coroots (the same on both sides), M = [alpha | B0], and the congruence
    # in the 4 entries of C and 2 x 4 slacks
    assert [(len(rows), cols) for cols, rows in seen] == [(4, 2), (2, 2), (2, 4), (4, 4), (8, 12)]
    assert (ka.cols, ka._data) not in seen
    payload = [[x.to_rows() for x in reduce(IntMatrix(rows, cols=cols))] for cols, rows in seen]
    assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == GAP_TWO_SNF_PIN


def _reductions(monkeypatch, run):
    calls = []
    reduce = lattice._smith

    def counted(m):
        calls.append(m)
        return reduce(m)

    monkeypatch.setattr(lattice, "_smith", counted)
    run()
    return calls


def test_search_reduces_each_system_once(monkeypatch):
    d1, d2 = presets.datum("GSpin6"), presets.datum("G6")
    reduced = _reductions(monkeypatch, lambda: search_isomorphisms(d1, d2))
    assert len(reduced) <= 3
    assert all(m.cols <= d1.rank for m in reduced)


@pytest.mark.parametrize("name", ["gspin4_in_gl2xgl2", "gspin6_in_gl1xgl4"])
def test_exact_sequence_reduces_each_map_once(monkeypatch, name):
    maps = presets.sequence(name)
    assert len(_reductions(monkeypatch, lambda: verify_exact_sequence(maps))) <= 2


@pytest.mark.parametrize(
    "build, d, v",
    [
        (similitude_kernel_datum, presets.datum("GL1xGL4"), (-2, 1, 1, 1, 1)),
        (central_torus_quotient_datum, presets.datum("GL1xGL4").dual(), (-2, 1, 1, 1, 1)),
        (similitude_kernel_datum, presets.datum("GL2xGL2"), (1, 1, -1, -1)),
        (central_torus_quotient_datum, presets.datum("GL2xGL2"), (-1, -1, 1, 1)),
    ],
    ids=["kernel-GL1xGL4", "torus-GL1xGL4", "kernel-GL2xGL2", "torus-GL2xGL2"],
)
def test_complement_restriction_reduces_two_matrices(monkeypatch, build, d, v):
    # the row v once, and its kernel basis C once for every solve
    reduced = _reductions(monkeypatch, lambda: build(d, v))
    assert [(m.rows, m.cols) for m in reduced] == [(1, d.rank), (d.rank, d.rank - 1)]


def test_invariants_match_the_stored_diagonal_suite_500():
    for m in _suite_500():
        ds = [x for x in diag(smith_normal_form(m)[1]) if x]
        want = AbelianGroupStructure(m.rows - len(ds), [x for x in ds if x > 1])
        fresh = IntMatrix(m.to_rows())
        assert cokernel_structure(fresh) == want
        assert matrix_rank(IntMatrix(m.to_rows())) == len(ds)
        # the invariant-only reduction stores nothing
        assert getattr(fresh, "_snf", None) is None
        # and a stored triple is read, not reduced again
        assert cokernel_structure(m) == want and matrix_rank(m) == len(ds)


def test_invariants_need_no_smith_triple(monkeypatch):
    names = presets.datum_names()
    assert len(names) == 9

    def centers(d):
        return center_structure(d), dual_sc_center(d) if d.simple_roots else None

    want = [centers(presets.datum(n)) for n in names]

    def refuse(m):
        raise AssertionError("the Smith triple was built")

    monkeypatch.setattr(lattice, "smith_normal_form", refuse)
    monkeypatch.setattr(root_datum, "smith_normal_form", refuse)
    for name, (center, sc) in zip(names, want):
        d = presets.datum(name)
        assert centers(d) == (center, sc)
        roots = d.simple_roots
        assert cokernel_structure(IntMatrix.from_columns(roots, rows=d.rank)) == center
        assert matrix_rank(IntMatrix.from_columns(roots, rows=d.rank)) == len(roots)


def test_snf_second_call_returns_same_triple():
    m = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    first = smith_normal_form(m)
    fresh = smith_normal_form(IntMatrix(m.to_rows()))
    assert smith_normal_form(m) == first == fresh


def _exact_int_rows(m):
    return all(
        type(row) is tuple and all(type(x) is int for x in row) for row in m.iter_rows()
    )


def _as_constructed(m, shape):
    """m has the given shape, exact int rows of that shape, and is the validated matrix."""
    rows = list(m.iter_rows())
    assert (m.rows, m.cols) == shape == (len(rows), m.cols)
    assert type(m._data) is tuple and all(len(row) == m.cols for row in rows)
    assert _exact_int_rows(m)
    built = IntMatrix(m.to_rows(), cols=m.cols)
    assert m == built and built == m and hash(m) == hash(built)
    return True


def test_library_results_have_exact_int_rows():
    rng = random.Random(4242)
    for _ in range(60):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], cols=c)
        other = IntMatrix([[rng.randint(-9, 9) for _ in range(2)] for _ in range(c)], cols=2)
        u, d, v = smith_normal_form(m)
        k = kernel_basis(m)
        expected = [
            (u, (r, r)), (d, (r, c)), (v, (c, c)), (k, (c, c - matrix_rank(m))),
            (m * other, (r, 2)), (m.transpose(), (c, r)),
            (IntMatrix.identity(c), (c, c)), (other.transpose() * m.transpose(), (2, r)),
        ]
        # the completion oracle's candidates and directions
        vec = [rng.randint(-9, 9) for _ in range(c * c)]
        expected.append((_matrix_from_vec(vec, c), (c, c)))
        expected.append((_completion_directions(k, k), (c * c, k.cols**2)))
        assert all(_as_constructed(x, shape) for x, shape in expected)
    for d1, d2 in SHIPPED_PAIRS:
        for f in search_isomorphisms(d1, d2):
            assert _as_constructed(f.iota, (d2.rank, d1.rank))
            assert _as_constructed(f.iota_vee, (d1.rank, d2.rank))
    # entries that are not exact ints still go through int()
    converted = IntMatrix([[True, Fraction(2), "3"], (4, 5, 6)])
    assert converted.to_rows() == [[1, 2, 3], [4, 5, 6]]
    assert _exact_int_rows(converted)
    with pytest.raises(ValueError, match="ragged"):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged"):
        IntMatrix([[1, 2]], cols=3)
