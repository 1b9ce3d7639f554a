"""Isomorphisms of based root data: verification and exhaustive search.

A map is a pair of integer matrices (iota, iota_vee); iota carries the
character lattice of the source to that of the target (columns are images
of basis vectors), iota_vee carries cocharacters the other way. With the
standard pairings on both sides, adjointness is the matrix identity
iota_vee = transpose(iota).

The search enumerates Cartan-compatible assignments of simple roots, then
completes each assignment to a lattice isomorphism by solving the linear
constraints over Z. The constraints S alpha_i = beta_pi(i) and
S^T beta_j^vee = alpha_pi^-1(j)^vee have one coefficient matrix for every
bijection pi, so a search builds and reduces one system and solves it with
one right-hand side per bijection. The solutions form the affine family
s0 + span(K), and K has (n - s)^2 columns for rank n and s simple roots.
At n - s = 0 the family is one matrix. At n - s = 1, K has rank one, so
det(s0 + cK) is affine in c and each target determinant gives at most one
c. At n - s >= 2 the isomorphisms extending a bijection are none or
infinitely many (a coset of an infinite group of automorphisms fixing
every simple root and coroot). The search answers none there when the
centers differ, and otherwise refuses rather than truncate.
"""
from __future__ import annotations

import math
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from .lattice import IntMatrix, kernel_basis, solve_integral
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
        return self.iota_vee == self.iota.transpose()

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
    if not f.iota.is_unimodular() or not f.iota_vee.is_unimodular():
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


def _completion_system(d1: BasedRootDatum, d2: BasedRootDatum) -> IntMatrix:
    """Coefficients of the equations on the entries of S, read row-major.

    Rows n*i + r give (S alpha_i)_r; the rows after them, n*j + c, give
    (S^T beta_j^vee)_c. Indexing the coroot equations by the target coroot
    makes the matrix the same for every bijection.
    """
    n = d1.rank
    rows: List[List[int]] = []
    for a in d1.simple_roots:
        for r in range(n):
            row = [0] * (n * n)
            row[r * n : (r + 1) * n] = a
            rows.append(row)
    for bv in d2.simple_coroots:
        for c in range(n):
            row = [0] * (n * n)
            row[c::n] = bv
            rows.append(row)
    return IntMatrix(rows, cols=n * n)


def _completion_rhs(
    d1: BasedRootDatum, d2: BasedRootDatum, pi: Sequence[int]
) -> List[int]:
    """Right-hand side for pi: S alpha_i = beta_pi(i), S^T beta_j^vee = alpha_pi^-1(j)^vee."""
    back = [0] * len(pi)
    for i, j in enumerate(pi):
        back[j] = i
    rhs: List[int] = []
    for j in pi:
        rhs.extend(d2.simple_roots[j])
    for i in back:
        rhs.extend(d1.simple_coroots[i])
    return rhs


def _matrix_from_vec(vec: Sequence[int], n: int) -> IntMatrix:
    return IntMatrix([list(vec[i * n : (i + 1) * n]) for i in range(n)])


def _completions(
    s0: List[int], kern: IntMatrix, n: int, dets: Tuple[int, ...]
) -> List[IntMatrix]:
    """Candidate matrices S in the family s0 + span(kern) with det(S) in dets.

    S is fixed on the root span and free only as a map from the source's
    central part to the target's, so kern has (rank - |Delta|)^2 columns.
    """
    m = kern.cols
    if m == 0:
        return [_matrix_from_vec(s0, n)]
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

    Every bijection shares one coefficient matrix (``_completion_system``)
    and its one Smith reduction; only the right-hand side changes.
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
    system = _completion_system(d1, d2)
    kern = kernel_basis(system)
    dets = (1, -1) if det_sign is None else (det_sign,)
    results: Dict[IntMatrix, RootDatumMap] = {}
    for pi in bijections:
        part = solve_integral(system, _completion_rhs(d1, d2, pi))
        if part is None:
            continue
        for mat in _completions(list(part), kern, n, dets):
            f = RootDatumMap(mat, mat.transpose())
            if mat.det() in dets and check_isomorphism(f, d1, d2):
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
