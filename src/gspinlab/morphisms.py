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
one right-hand side per bijection. When the solution set is a
positive-dimensional affine family, a determinant constraint cuts it down
exactly (integer roots of the determinant polynomial in the one-parameter
case, bounded enumeration with max |entry| <= 8 otherwise); unconstrained
infinite families are reported, never truncated silently.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Dict, List, Optional, Sequence, Tuple

from .lattice import (
    IntMatrix,
    kernel_basis,
    rational_left_inverse,
    solve_integral,
)
from .root_datum import (
    BasedRootDatum,
    central_torus_quotient_datum,
    dual_sc_center,
    gspin_datum,
)

BOX_ENUM_LIMIT = 2_000_000
ENTRY_BOUND = 8  # largest |entry| of iota tried when a completion family is bounded


class InfiniteFamilyError(RuntimeError):
    """The isomorphism search found an infinite unimodular family."""


@dataclass(frozen=True)
class RootDatumMap:
    iota: IntMatrix
    iota_vee: IntMatrix

    def is_adjoint_pair(self) -> bool:
        return self.iota_vee == self.iota.transpose()

    def inverse(self) -> "RootDatumMap":
        from .lattice import inverse_unimodular

        inv = inverse_unimodular(self.iota)
        return RootDatumMap(inv, inv.transpose())

    def compose(self, other: "RootDatumMap") -> "RootDatumMap":
        """self after other (characters), matching cocharacter composite."""
        iota = self.iota * other.iota
        return RootDatumMap(iota, iota.transpose())

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


def _det_poly_coeffs(s0: Sequence[int], kvec: Sequence[int], n: int) -> List[int]:
    """Integer coefficients of det(S0 + c*K), degree <= n, by interpolation.

    Newton form at the nodes 0..n: the k-th forward difference of the
    values at 0, divided exactly by k!, is the coefficient of the falling
    factorial c(c-1)...(c-k+1); Horner's rule then expands into powers of c.
    """
    diffs = [
        _matrix_from_vec([a + c * b for a, b in zip(s0, kvec)], n).det() for c in range(n + 1)
    ]
    newton = []
    fact = 1
    for k in range(n + 1):
        if k:
            fact *= k
            diffs = [y - x for x, y in zip(diffs, diffs[1:])]
        q, r = divmod(diffs[0], fact)
        if r:
            raise AssertionError("interpolated coefficient is not an integer")
        newton.append(q)
    coeffs = [newton[n]]
    for k in range(n - 1, -1, -1):
        # coeffs <- coeffs * (c - k) + newton[k]
        coeffs = [0] + coeffs
        for t in range(len(coeffs) - 1):
            coeffs[t] -= k * coeffs[t + 1]
        coeffs[0] += newton[k]
    return coeffs


def _integer_roots(coeffs: Sequence[int]) -> Optional[List[int]]:
    """Integer roots of a polynomial; None signals the zero polynomial."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return None
    found = set()
    while cs[0] == 0:
        found.add(0)
        cs = cs[1:]
    if len(cs) > 1:
        const = abs(cs[0])
        divisors = set()
        d = 1
        while d * d <= const:
            if const % d == 0:
                divisors.update({d, const // d})
            d += 1
        for cand in divisors:
            for c in (cand, -cand):
                val = 0
                for a in reversed(cs):
                    val = val * c + a
                if val == 0:
                    found.add(c)
    return sorted(found)


def _line_box_range(
    s0: Sequence[int], kvec: Sequence[int], entry_bound: int
) -> List[int]:
    """Integers c with all |s0 + c*kvec| entries <= entry_bound."""
    lo, hi = None, None
    for a, k in zip(s0, kvec):
        if k == 0:
            if abs(a) > entry_bound:
                return []
            continue
        # -bound <= a + c k <= bound
        left = Fraction(-entry_bound - a, k)
        right = Fraction(entry_bound - a, k)
        if left > right:
            left, right = right, left
        lo = left if lo is None else max(lo, left)
        hi = right if hi is None else min(hi, right)
    if lo is None or hi is None or lo > hi:
        return []
    import math

    return list(range(math.ceil(lo), math.floor(hi) + 1))


def _det_constant_on_grid(
    s0: Sequence[int], kcols: List[Tuple[int, ...]], n: int
) -> Optional[int]:
    """det(S0 + sum c_i K_i) when constant as a polynomial, else None."""
    m = len(kcols)
    grid = product(*[range(n + 1)] * m)
    value = None
    for cs in grid:
        vec = list(s0)
        for ci, kv in zip(cs, kcols):
            if ci:
                for t in range(len(vec)):
                    vec[t] += ci * kv[t]
        d = _matrix_from_vec(vec, n).det()
        if value is None:
            value = d
        elif d != value:
            return None
    return value


def _completions(
    s0: List[int],
    kern: IntMatrix,
    n: int,
    dets: Tuple[int, ...],
    det_sign: Optional[int],
) -> List[IntMatrix]:
    """Candidate matrices S in the family s0 + span(kern) with det(S) in dets."""
    m = kern.cols
    candidates: List[IntMatrix] = []
    if m == 0:
        candidates.append(_matrix_from_vec(s0, n))
    elif m == 1:
        kvec = kern.col(0)
        coeffs = _det_poly_coeffs(s0, kvec, n)
        cvals = set()
        hit_infinite = False
        for target in dets:
            shifted = [coeffs[0] - target] + list(coeffs[1:])
            roots = _integer_roots(shifted)
            if roots is None:
                hit_infinite = True
            else:
                cvals.update(roots)
        if hit_infinite:
            if det_sign is None:
                raise InfiniteFamilyError(
                    "one-parameter family of unimodular completions; "
                    f"base {_matrix_from_vec(s0, n).to_rows()}, "
                    f"direction {_matrix_from_vec(kvec, n).to_rows()}"
                )
            cvals.update(_line_box_range(s0, kvec, ENTRY_BOUND))
        for c in sorted(cvals):
            candidates.append(
                _matrix_from_vec([a + c * b for a, b in zip(s0, kvec)], n)
            )
    else:
        kcols = kern.columns()
        if det_sign is None:
            const = _det_constant_on_grid(s0, kcols, n)
            if const in (1, -1):
                raise InfiniteFamilyError(
                    "multi-parameter family of unimodular completions; "
                    "refusing to truncate"
                )
        left = rational_left_inverse(kern)
        smax = max(abs(x) for x in s0) if s0 else 0
        reach = ENTRY_BOUND + smax
        bounds = []
        for i in range(m):
            bi = sum(abs(fr) for fr in left[i]) * reach
            bounds.append(int(bi) + 1)
        total = 1
        for b in bounds:
            total *= 2 * b + 1
        if total > BOX_ENUM_LIMIT:
            from .finite_groups import CapExceededError

            raise CapExceededError(
                f"bounded completion search too large ({total} points)"
            )
        for cs in product(*[range(-b, b + 1) for b in bounds]):
            vec = list(s0)
            for ci, kv in zip(cs, kcols):
                if ci:
                    for t in range(n * n):
                        vec[t] += ci * kv[t]
            if max(abs(x) for x in vec) > ENTRY_BOUND:
                continue
            mat = _matrix_from_vec(vec, n)
            if mat.det() in dets:
                candidates.append(mat)
    return candidates


def search_isomorphisms(
    d1: BasedRootDatum,
    d2: BasedRootDatum,
    assignment: Optional[Sequence[int]] = None,
    det_sign: Optional[int] = None,
) -> List[RootDatumMap]:
    """All based-root-datum isomorphisms d1 -> d2 under the constraints.

    ``assignment`` fixes iota(alpha_i) = beta_assignment[i]; ``det_sign``
    restricts det(iota) to +1 or -1. Raises InfiniteFamilyError when the
    unconstrained solution set is provably infinite.

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
    system = _completion_system(d1, d2)
    kern = kernel_basis(system)
    dets = (1, -1) if det_sign is None else (det_sign,)
    results: Dict[IntMatrix, RootDatumMap] = {}
    for pi in bijections:
        part = solve_integral(system, _completion_rhs(d1, d2, pi))
        if part is None:
            continue
        for mat in _completions(list(part), kern, n, dets, det_sign):
            f = RootDatumMap(mat, mat.transpose())
            if mat.det() in dets and check_isomorphism(f, d1, d2):
                results[mat] = f
    return sorted(results.values(), key=lambda f: f.iota.to_rows())


# ---------------------------------------------------------------------------
# dual-group identifications


_DUAL_CASES = {
    "GSpin4": {
        "spin_rank": 2,
        "ambient_label": "GL2xGL2",
        "similitude_char": (1, 1, -1, -1),
        "kernel_cochar": (-1, -1, 1, 1),
        "expected_sc_center": (2, 2),
    },
    "GSpin6": {
        "spin_rank": 3,
        "ambient_label": "GL1xGL4",
        "similitude_char": (-2, 1, 1, 1, 1),
        "kernel_cochar": (-2, 1, 1, 1, 1),
        "expected_sc_center": (4,),
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
