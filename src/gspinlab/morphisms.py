"""Isomorphisms of based root data: verification and exhaustive search.

A map is a pair of integer matrices (iota, iota_vee); iota carries the
character lattice of the source to that of the target (columns are images
of basis vectors), iota_vee carries cocharacters the other way. With the
standard pairings on both sides, adjointness is the matrix identity
iota_vee = transpose(iota).

The search enumerates Cartan-compatible assignments of simple roots, then
completes each assignment to a lattice isomorphism by solving the linear
constraints over Z. The constraints S alpha_i = beta_pi(i) and
S^T beta_pi(i)^vee = alpha_i^vee split into one system on the rows of S,
with the source's simple roots as coefficient rows, and one on its columns,
with the target's simple coroots as coefficient rows. Both matrices are
s x n for rank n and s simple roots, the same for every bijection pi, so a
search reduces each once and solves them with a right-hand side per
bijection. The solutions form the affine family S0 + K_Z E K_A^T, with
K_A and K_Z the saturated kernels of the two matrices (n x (n - s) each)
and E any integral (n - s) x (n - s) matrix: (n - s)^2 directions.
At n - s = 0 the family is one matrix. At n - s = 1 it is a line S0 + cK
with K of rank one, so det(S0 + cK) is affine in c and each target
determinant gives at most one c. At n - s >= 2 the isomorphisms extending a
bijection are none or infinitely many (a coset of an infinite group of
automorphisms fixing every simple root and coroot). The search answers
none there when the centers differ, and otherwise refuses rather than
truncate.
"""
from __future__ import annotations

import math
from itertools import permutations
from operator import eq
from typing import Dict, List, Optional, Sequence, Tuple

from .lattice import IntMatrix, Vector, _trusted, kernel_basis, solve_integral
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
    """Full verification of an isomorphism of based root data d1 -> d2."""
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
    targets = {b: i for i, b in enumerate(d2.simple_roots)}
    hit = set()
    for a, av in zip(d1.simple_roots, d1.simple_coroots):
        img = f.iota.apply(a)
        if img not in targets:
            return False
        j = targets[img]
        hit.add(j)
        if f.iota_vee.apply(d2.simple_coroots[j]) != av:
            return False
    if len(hit) != len(d2.simple_roots):
        return False
    back = {f.iota_vee.apply(bv) for bv in d2.simple_coroots}
    if back != set(d1.simple_coroots):
        return False
    return True


def cartan_compatible_bijections(
    d1: BasedRootDatum, d2: BasedRootDatum
) -> List[Tuple[int, ...]]:
    """Bijections pi of simple roots with identical Cartan matrices."""
    s = len(d1.simple_roots)
    if s != len(d2.simple_roots):
        return []
    c1 = d1.cartan_matrix()
    c2 = d2.cartan_matrix()
    out = []
    for pi in permutations(range(s)):
        if all(c2[pi[i]][pi[j]] == c1[i][j] for i in range(s) for j in range(s)):
            out.append(pi)
    return out


def _solve_each(m: IntMatrix, rhs: Sequence[Sequence[int]]) -> Optional[List[Vector]]:
    """An integral x with m x = b for each b in rhs, or None when one has none."""
    out = [solve_integral(m, b) for b in rhs]
    return None if None in out else out


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
        bijections = cartan_compatible_bijections(d1, d2)
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
