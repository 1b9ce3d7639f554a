"""Isomorphisms of based root data: verification and exhaustive search.

A map is a pair of integer matrices (iota, iota_vee); iota carries the
character lattice of the source to that of the target (columns are images
of basis vectors), iota_vee carries cocharacters the other way. With the
standard pairings on both sides, adjointness is the matrix identity
iota_vee = transpose(iota).

The search lists the Cartan-compatible bijections pi of simple roots by a
breadth-first walk of the source's Cartan graph, whose cost follows the
answers, not s!, and reads each isomorphism S = iota extending pi off one
basis of X (x) Q:
M = [alpha_1 ... alpha_s | B0], with B0 a saturated basis of
X0 = {x : <x, alpha_i^vee> = 0 for every i}, the lattice the source's
simple coroots annihilate. An isomorphism maps X0 onto the target's X0'
and so is S = [beta_pi(1) ... beta_pi(s) | Y0 T] M^-1, with Y0 a saturated
basis of X0' and T in GL_(n-s)(Z) for rank n and s simple roots (proofs at
``search_isomorphisms``). A search reduces M once with the Smith engine,
U M V = D, at every gap n - s. At n - s = 0, T is empty; at n - s = 1,
T = +-1, and det S = det T det[beta_pi | Y0] / det M fixes T for each
target determinant: at most two candidates per bijection, and none is
built whose determinant is wrong. At n - s >= 2, T ranges over an
infinite group, so the isomorphisms extending a bijection are none or
infinitely many (a coset of the automorphisms fixing every simple root
and coroot). The search answers none there when the centers differ or no
bijection has an integral completion (an integral C, perhaps not
unimodular, with [beta_pi | Y0 C] M^-1 integral: one ``solve_integral``),
and otherwise refuses rather than truncate.
"""
from __future__ import annotations

from itertools import combinations
from operator import eq, floordiv
from typing import Callable, List, Optional, Sequence, Tuple

from .lattice import (
    IntMatrix,
    Vector,
    _trusted,
    diagonal_of,
    kernel_basis,
    smith_normal_form,
    solve_integral,
)
from .root_datum import (
    BasedRootDatum,
    center_structure,
    central_torus_quotient_datum,
    dual_sc_center,
    gspin_datum,
)


class InfiniteFamilyError(RuntimeError):
    """The isomorphism search met a family it cannot list: rank - |Delta| >= 2."""


class RootDatumMap:
    __slots__ = ("iota", "iota_vee")

    def __init__(self, iota: IntMatrix, iota_vee: IntMatrix):
        self.iota = iota
        self.iota_vee = iota_vee

    def is_adjoint_pair(self) -> bool:
        """iota_vee == transpose(iota), compared row by row without building the transpose."""
        iota, vee = self.iota, self.iota_vee
        if vee.rows != iota.cols or vee.cols != iota.rows:
            return False
        # with no rows, iota has no columns to zip, and every row of vee is empty
        return all(map(eq, vee.iter_rows(), zip(*iota.iter_rows())))

    def to_dict(self) -> dict:
        return {"iota": self.iota.to_rows(), "iota_vee": self.iota_vee.to_rows()}

    @classmethod
    def from_dict(cls, d: dict) -> "RootDatumMap":
        return cls(IntMatrix(d["iota"]), IntMatrix(d["iota_vee"]))


def check_isomorphism(f: RootDatumMap, d1: BasedRootDatum, d2: BasedRootDatum) -> bool:
    """Full verification of an isomorphism of based root data d1 -> d2.

    iota adjoint to iota_vee with det +-1, and iota alpha_i = beta_j with
    iota_vee beta_j^vee = alpha_i^vee for each i, is the whole definition:
    det +-1 makes iota injective and the simple roots are distinct, so all s
    targets are hit, and the target's coroots pull back onto the source's.
    """
    if f.iota.rows != d2.rank or f.iota.cols != d1.rank:
        raise ValueError("map dimensions do not match the data")
    if f.iota_vee.rows != d1.rank or f.iota_vee.cols != d2.rank:
        raise ValueError("map dimensions do not match the data")
    if d1.rank != d2.rank or len(d1.simple_roots) != len(d2.simple_roots):
        return False
    if not f.is_adjoint_pair():
        return False
    # iota_vee = iota^T is square (equal ranks) with the same determinant
    if f.iota.det() not in (1, -1):
        return False
    coroot_of = dict(zip(d2.simple_roots, d2.simple_coroots))
    for a, av in zip(d1.simple_roots, d1.simple_coroots):
        bv = coroot_of.get(f.iota.apply(a))
        if bv is None or f.iota_vee.apply(bv) != av:
            return False
    return True


def cartan_compatible_bijections(
    d1: BasedRootDatum, d2: BasedRootDatum, assignment: Optional[Sequence[int]] = None
) -> List[Tuple[int, ...]]:
    """Bijections pi of simple roots preserving the Cartan matrix, sorted as permutations are.

    pi(i) is placed one source root at a time, breadth-first through the source's Cartan
    graph (i ~ j when <alpha_i, alpha_j^vee> != 0), each image checked both ways against those
    placed (diagonals are 2 on both sides): the cost follows the answers, not s!.
    ``assignment`` offers one image per root.
    """
    s = len(d1.simple_roots)
    if s != len(d2.simple_roots):
        return []
    c1, c2 = d1.cartan_matrix(), d2.cartan_matrix()
    choices = [range(s)] * s if assignment is None else [(j,) for j in assignment]
    order: List[int] = []
    images: List[Tuple[int, ...]] = [()]  # img[t] = pi(order[t])
    for t in range(s):
        if t == len(order):  # the next component, from its least index
            order.append(next(j for j in range(s) if j not in order))
        i = order[t]
        order += [j for j, c in enumerate(c1[i]) if c and j not in order]
        entries = [(c1[i][k], c1[k][i]) for k in order[:t]]
        images = [
            img + (j,) for img in images for j in choices[i]
            if j not in img and [(c2[j][q], c2[q][j]) for q in img] == entries
        ]
    where = sorted(range(s), key=order.__getitem__)  # img[where[i]] = pi(i)
    return sorted(tuple([img[t] for t in where]) for img in images)


def _completion_test(
    d2: BasedRootDatum, y0: IntMatrix, v_rows: Sequence[Vector], divisors: Sequence[int]
) -> Callable[[Sequence[int]], bool]:
    """pi -> does some integral C make [beta_pi | Y0 C] M^-1 integral? (U M V = D)

    With W = sum_i beta_pi(i) (x) (row i of V) and V_bot the rows of V past
    s, column j of [beta_pi | Y0 C] V is W[:, j] + Y0 C V_bot[:, j], and
    d_j must divide it: Y0 C V_bot[:, j] + d_j k_j = -W[:, j], k_j in Z^n,
    for each d_j != 1. Only W depends on pi, so the system in the entries
    of C (row-major) and the k_j is built and reduced once.
    """
    n, g = y0.rows, y0.cols
    v_bot = v_rows[n - g :]
    odd = [j for j, dj in enumerate(divisors) if dj != 1]
    width = g * g + n * len(odd)
    rows = []
    for t, j in enumerate(odd):
        for r, yr in enumerate(y0.iter_rows()):
            row = [ya * vb[j] for ya in yr for vb in v_bot] + [0] * (n * len(odd))
            row[g * g + t * n + r] = divisors[j]
            rows.append(tuple(row))
    system = _trusted(tuple(rows), width)

    def completes(pi: Sequence[int]) -> bool:
        beta = [d2.simple_roots[k] for k in pi]
        rhs = [-sum(b[r] * v[j] for b, v in zip(beta, v_rows)) for j in odd for r in range(n)]
        return solve_integral(system, rhs) is not None

    return completes


def _parity(pi: Sequence[int]) -> int:
    """The sign of the permutation pi: -1 to the number of inversions."""
    return -1 if sum(a > b for a, b in combinations(pi, 2)) % 2 else 1


def search_isomorphisms(
    d1: BasedRootDatum,
    d2: BasedRootDatum,
    assignment: Optional[Sequence[int]] = None,
    det_sign: Optional[int] = None,
) -> List[RootDatumMap]:
    """All based-root-datum isomorphisms d1 -> d2 under the constraints.

    ``assignment`` fixes iota(alpha_i) = beta_assignment[i]; ``det_sign``
    restricts det(iota) to +1 or -1. At rank - |Delta| >= 2, data whose
    centers differ have none; otherwise InfiniteFamilyError is raised when
    some bijection has an integral completion (below): the isomorphisms are
    then none or infinitely many, with or without the constraints.

    Only Cartan-compatible bijections are tried; any other assignment gives
    [] before anything is built. An isomorphism S extending pi is one:
    <beta_pi(j), beta_pi(i)^vee> = <alpha_j, S^T beta_pi(i)^vee> =
    <alpha_j, alpha_i^vee>.

    Every isomorphism is read off M = [alpha_1 ... alpha_s | B0] (rank n,
    s simple roots), B0 a saturated basis of the lattice X0 that the simple
    coroots alpha_i^vee annihilate, and Y0 the same for the target's X0'.
    M is reduced once, U M V = D, so M^-1 = V D^-1 U.

    M is invertible over Q. B0 has n - s columns, as the simple coroots are
    independent. If sum_i c_i alpha_i + B0 e = 0, pairing with each
    alpha_j^vee gives C c = 0 for the Cartan matrix C, which finite type
    makes invertible, so c = 0, and then e = 0.

    Every isomorphism S extending pi is a candidate. For x in X0,
    <S x, beta_pi(i)^vee> = <x, S^T beta_pi(i)^vee> = <x, alpha_i^vee> = 0,
    so S maps X0 into X0'; S^-1 maps X0' into X0 the same way. Y0 is
    saturated, so S B0 = Y0 T with T in GL_(n-s)(Z): empty at n - s = 0,
    +-1 at n - s = 1. Hence S M = N_T = [beta_pi(1) ... beta_pi(s) | Y0 T]
    and S = N_T M^-1, with det S = det T sgn(pi) det[beta | Y0] / det M.
    So each allowed det S fixes det T, and with it T; where that det T is
    not a unit (not 1 at n - s = 0) there is no candidate, and nothing is
    built. N_T M^-1 = (N_T V) D^-1 U is integral exactly when column j of
    N_T V is divisible by the j-th diagonal entry of D.

    Every candidate of a Cartan-compatible pi is an isomorphism. It is
    integral with det +-1 and maps alpha_i to beta_pi(i) by construction.
    The forms x -> <S x, beta_pi(i)^vee> and x -> <x, alpha_i^vee> agree on
    the columns of M: on alpha_j both are a Cartan entry,
    <beta_pi(j), beta_pi(i)^vee> = <alpha_j, alpha_i^vee> by compatibility,
    and on B0 both vanish, as S B0 = Y0 T lies in X0'. So
    S^T beta_pi(i)^vee = alpha_i^vee, the coroot condition. Every candidate
    still goes through ``check_isomorphism``.

    At n - s >= 2 the refusal asks whether pi has an integral completion,
    an integral S of any determinant with S alpha_i = beta_pi(i) and
    S^T beta_pi(i)^vee = alpha_i^vee. One exists exactly when some integral
    (n - s) x (n - s) C makes N_C M^-1 integral (``_completion_test``).
    (=>) The coroot condition puts S B0 in X0', as above; Y0 is saturated,
    so S B0 = Y0 C with C integral, and S = N_C M^-1. (<=) S = N_C M^-1 is
    integral and maps alpha_i to beta_pi(i), and S B0 = Y0 C lies in X0',
    so the forms agree on the columns of M as for a candidate (T = C).
    """
    if d1.rank != d2.rank or len(d1.simple_roots) != len(d2.simple_roots):
        return []
    n, s = d1.rank, len(d1.simple_roots)
    if assignment is not None and (len(assignment) != s or not set(assignment) <= set(range(s))):
        raise ValueError(
            f"assignment {tuple(assignment)} does not map {s} simple roots to indices 0..{s - 1}"
        )
    bijections = cartan_compatible_bijections(d1, d2, assignment)
    if not bijections:
        return []
    if n - s >= 2 and (
        center_structure(d1) != center_structure(d2)
        or (s and dual_sc_center(d1) != dual_sc_center(d2))
    ):
        return []
    b0 = kernel_basis(IntMatrix(d1.simple_coroots, cols=n))
    y0 = kernel_basis(IntMatrix(d2.simple_coroots, cols=n))
    # square, so the rows are the zipped columns even at n = 0
    m = _trusted(tuple(zip(*d1.simple_roots, *b0.columns())), n)
    u, dm, v = smith_normal_form(m)
    divisors = diagonal_of(dm)
    v_rows = tuple(v.iter_rows())
    if n - s >= 2:
        if any(map(_completion_test(d2, y0, v_rows, divisors), bijections)):
            raise InfiniteFamilyError(
                f"rank {n}, |Delta| = {s}: the completions form a {(n - s) ** 2}-parameter "
                "family, so the isomorphisms are none or infinitely many; refusing to enumerate"
            )
        return []
    beta_y0 = _trusted(tuple(zip(*d2.simple_roots, *y0.columns())), n)
    det_m, det_beta = m.det(), beta_y0.det()
    # the rows of V past s, times T = 1 and T = -1
    tails = {1: v_rows[s:], -1: tuple([tuple([-x for x in row]) for row in v_rows[s:]])}
    units = (1, -1) if n > s else (1,)
    dets = (1, -1) if det_sign is None else (det_sign,)
    results = []
    for pi in bijections:
        # diag(P_pi, T) V: row pi(i) is row i of V, then T times the rows past s
        moved: List[Vector] = [()] * s
        for i, j in enumerate(pi):
            moved[j] = v_rows[i]
        det_n = _parity(pi) * det_beta  # det[beta_pi | Y0]
        for t in dets:
            det_t, rem = divmod(t * det_m, det_n)
            if rem or det_t not in units:
                continue
            nv = beta_y0 * _trusted((*moved, *tails[det_t]), n)  # N_T V
            if any(x % dj for row in nv.iter_rows() for x, dj in zip(row, divisors)):
                continue
            scaled = [tuple(map(floordiv, row, divisors)) for row in nv.iter_rows()]
            mat = _trusted(tuple(scaled), n) * u  # (N_T V) D^-1 U
            f = RootDatumMap(mat, mat.transpose())
            if check_isomorphism(f, d1, d2):
                results.append(f)
    return sorted(results, key=lambda f: f.iota.to_rows())


# ---------------------------------------------------------------------------
# dual-group identifications


_DUAL_CASES = {
    "GSpin4": {
        "spin_rank": 2,
        "similitude_char": (1, 1, -1, -1),
        "kernel_cochar": (-1, -1, 1, 1),
    },
    "GSpin6": {
        "spin_rank": 3,
        "similitude_char": (-2, 1, 1, 1, 1),
        "kernel_cochar": (-2, 1, 1, 1, 1),
    },
}


def verify_dual_identification(
    case: str,
    ambient: BasedRootDatum,
    kernel: Optional[Sequence[int]] = None,
) -> Tuple[bool, dict]:
    """Check the quotient presentation of the dual group at datum level.

    The dual of the general spin datum must be isomorphic to the quotient of
    the ambient product's dual by the one-parameter central subgroup whose
    cocharacter is the dual of the similitude character. A perturbed kernel
    fails the cocharacter validation even when the quotient datum is
    abstractly isomorphic.
    """
    if case not in _DUAL_CASES:
        raise ValueError(f"unknown case {case!r}")
    info = _DUAL_CASES[case]
    kern = tuple(kernel) if kernel is not None else info["kernel_cochar"]
    chi = info["similitude_char"]
    detail: dict = {"case": case, "kernel": list(kern)}
    central = all(
        sum(a * b for a, b in zip(root, kern)) == 0 for root in ambient.simple_roots
    )
    detail["kernel_central"] = central
    kernel_matches = central and (kern == chi or kern == tuple(-x for x in chi))
    detail["kernel_matches_similitude_dual"] = kernel_matches
    gsp = gspin_datum(info["spin_rank"])
    found = False
    if central:
        quotient = central_torus_quotient_datum(ambient.dual(), kern)
        maps = search_isomorphisms(gsp.dual(), quotient)
        found = bool(maps)
        detail["quotient_isomorphic_to_dual"] = found
        detail["sc_center"] = list(dual_sc_center(gsp).torsion)
    return kernel_matches and found, detail
