"""Twisted centralizers of finite parameter images in GSO4(C) and GSO6(C).

A parameter is given by the images of abstract generators w_1..w_k: pairs
of 2x2 matrices for the GSO4 ambient (modulo the antidiagonal scalar
kernel), or (scalar, 4x4 matrix) pairs for GSO6 (modulo (z^-2, z)).

For each twist character nu on the generators, the twisted centralizer
space {h : h g_j = nu(w_j) g_j h} is solved exactly over Q(i). In the
elliptic case every such space has dimension at most one; the union of the
determinant-normalized solution lines inside the simply connected cover
(SL2 x SL2 or SL4) assembles the component-group extension: the full group
is S_phi_sc, its quotient by the center of the cover is S_phi, and the
center itself is the kernel of the extension.

At the level of the similitude quotient only quadratic twists survive (the
scalar slot forces nu^2 = 1); twists of order four appear for the larger
projective-linear centralizer, computed by ``sl_level_group``. Both levels
assemble their groups from the solution lines through one routine, and the
twist enumerations are one product over a root set.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import List, Optional, Sequence, Tuple

from .gaussian import FOURTH_ROOTS, QI, GaussianMatrix, format_qi, parse_qi, qi_nullspace
from .finite_groups import (
    GROUP_ID_MAX_ORDER,
    FiniteMatrixGroup,
    NotFiniteError,
    closure_tree,
    elem_mul,
    generate_closure,
    group_id,
)
from .lattice import AbelianGroupStructure

MU2 = (QI(1), QI(-1))


class NotEllipticError(RuntimeError):
    """A twisted solution space has dimension >= 2; parameter is not elliptic."""


class NormalizationError(RuntimeError):
    """A solution line admits no determinant-1 scaling inside Q(i)."""


def _first_nonzero(m: GaussianMatrix) -> QI:
    for i in range(m.n):
        for x in m.row(i):
            if not x.is_zero():
                return x
    raise ValueError("zero matrix")


def qi_pow(z: QI, e: int) -> QI:
    if e < 0:
        return qi_pow(z.inverse(), -e)
    out = QI(1)
    for _ in range(e):
        out = out * z
    return out


@dataclass(frozen=True)
class TwistCharacter:
    """Values of a twist on the abstract generators, exact roots of unity."""

    values: Tuple[QI, ...]

    def validate(self, relations: Sequence[Sequence[Tuple[int, int]]]) -> None:
        if not _relation_ok(self.values, relations):
            raise ValueError("twist character violates a generator relation")

    def is_trivial(self) -> bool:
        return all(v == QI(1) for v in self.values)


def _relation_ok(values: Sequence[QI], relations) -> bool:
    for word in relations:
        acc = QI(1)
        for idx, e in word:
            acc = acc * qi_pow(values[idx], e)
        if acc != QI(1):
            return False
    return True


def _twists(roots: Sequence[QI], k: int, relations) -> List[TwistCharacter]:
    """Every assignment of ``roots`` to k generators that satisfies the relations."""
    return [
        TwistCharacter(vals)
        for vals in product(roots, repeat=k)
        if _relation_ok(vals, relations)
    ]


def quadratic_twists(k: int, relations=()) -> List[TwistCharacter]:
    return _twists(MU2, k, relations)


def quartic_twists(k: int, relations=()) -> List[TwistCharacter]:
    return _twists(FOURTH_ROOTS, k, relations)


def _center_scalars(n: int) -> Tuple[QI, ...]:
    """The scalars of SL_n(Q(i)) for the supported sizes: mu_2 or mu_4."""
    return MU2 if n == 2 else FOURTH_ROOTS


def _cover_element(combo: Sequence[GaussianMatrix]):
    """A matrix for a one-factor cover, a tuple for SL2 x SL2."""
    return tuple(combo) if len(combo) > 1 else combo[0]


def cover_center(sizes: Sequence[int]) -> Tuple[tuple, tuple]:
    """(elements, generators) of the center of the cover with factors SL_n, n in ``sizes``.

    The elements run over the products of the factors' scalars, mu_2 x mu_2
    for sizes (2, 2) and mu_4 for (4,); generator f is the second scalar of
    factor f (-1 in SL2, i in SL4) with the identity in every other factor.
    """
    elements = tuple(
        _cover_element([GaussianMatrix.scalar(n, z) for n, z in zip(sizes, zs)])
        for zs in product(*map(_center_scalars, sizes))
    )
    generators = []
    for f, n in enumerate(sizes):
        combo = [GaussianMatrix.identity(m) for m in sizes]
        combo[f] = GaussianMatrix.scalar(n, _center_scalars(n)[1])
        generators.append(_cover_element(combo))
    return elements, tuple(generators)


def twisted_centralizer_space(
    images: Sequence[GaussianMatrix], nu: Sequence[QI]
) -> List[GaussianMatrix]:
    """Exact basis of {h : h g_j = nu_j g_j h for all j}."""
    if not images:
        raise ValueError("no generator images")
    n = images[0].n
    if any(g.n != n for g in images):
        raise ValueError("generator images of mixed size")
    if len(nu) != len(images):
        raise ValueError("one twist value per generator required")
    for g in images:
        if g.det().is_zero():
            raise ValueError("generator images must be invertible")
    rows: List[List[QI]] = []
    for g, z in zip(images, nu):
        for r in range(n):
            for c in range(n):
                row = [QI(0)] * (n * n)
                for s in range(n):
                    row[r * n + s] = row[r * n + s] + g.entry(s, c)
                    row[s * n + c] = row[s * n + c] - z * g.entry(r, s)
                rows.append(row)
    basis = qi_nullspace(rows, n * n)
    out = []
    for vec in basis:
        first = next(x for x in vec if not x.is_zero())
        inv = first.inverse()
        out.append(GaussianMatrix([[inv * vec[i * n + j] for j in range(n)] for i in range(n)]))
    return out


def sl_normalize(h: GaussianMatrix) -> GaussianMatrix:
    """Scale h into SL_n over Q(i), or report the obstruction."""
    n = h.n
    d = h.det()
    if d.is_zero():
        raise ValueError("cannot normalize a singular matrix")
    target = d.inverse()
    if n == 2:
        t = target.sqrt()
        if t is None:
            raise NormalizationError(
                f"normalization impossible: 1/det = {format_qi(target)} has no square root in Q(i)"
            )
        return h.scale(t)
    if n == 4:
        s = target.sqrt()
        if s is not None:
            for cand in (s, -s):
                t = cand.sqrt()
                if t is not None:
                    return h.scale(t)
        raise NormalizationError(
            f"normalization impossible: 1/det = {format_qi(target)} has no fourth root in Q(i)"
        )
    raise ValueError(f"unsupported matrix size {n}")


@dataclass(frozen=True)
class ParameterImage:
    """Generator images of an elliptic parameter in a similitude quotient."""

    ambient: str  # "GSO4" | "GSO6"
    generators: Tuple[tuple, ...]
    labels: Tuple[str, ...] = ()
    relations: Tuple[Tuple[Tuple[int, int], ...], ...] = ()

    def __post_init__(self):
        if self.ambient not in ("GSO4", "GSO6"):
            raise ValueError(f"unknown ambient {self.ambient!r}")
        if not self.generators:
            raise ValueError("parameter needs at least one generator")
        for g in self.generators:
            if self.ambient == "GSO4":
                if len(g) != 2 or any(not isinstance(m, GaussianMatrix) or m.n != 2 for m in g):
                    raise ValueError("GSO4 generators are pairs of 2x2 matrices")
                if any(m.det().is_zero() for m in g):
                    raise ValueError("generators must be invertible")
            else:
                if len(g) != 2 or not isinstance(g[0], QI) or not isinstance(g[1], GaussianMatrix):
                    raise ValueError("GSO6 generators are (scalar, 4x4 matrix) pairs")
                if g[0].is_zero() or g[1].det().is_zero() or g[1].n != 4:
                    raise ValueError("generators must be invertible 4x4 with nonzero scalar")
        for word in self.relations:
            for idx, _ in word:
                if not 0 <= idx < len(self.generators):
                    raise ValueError("relation refers to a missing generator")
        self.projective_closure_order()  # elliptic use case: image must be finite

    def factor_images(self) -> List[List[GaussianMatrix]]:
        if self.ambient == "GSO4":
            return [[g[0] for g in self.generators], [g[1] for g in self.generators]]
        return [[g[1] for g in self.generators]]

    def projective_canonical(self, g: tuple) -> tuple:
        """Canonical representative modulo the ambient's scalar kernel."""
        if self.ambient == "GSO4":
            h1, h2 = g
            c = _first_nonzero(h2)
            return (h1.scale(c), h2.scale(c.inverse()))
        a, h = g
        c = _first_nonzero(h)
        return (a * c * c, h.scale(c.inverse()))

    def projective_closure_order(self, cap: int = 4096) -> int:
        """Order of the image in the projectivized quotient; errors past cap."""
        if self.ambient == "GSO4":
            ident = (GaussianMatrix.identity(2), GaussianMatrix.identity(2))
        else:
            ident = (QI(1), GaussianMatrix.identity(4))
        tree, _ = closure_tree(
            self.projective_canonical(ident),
            [self.projective_canonical(g) for g in self.generators],
            lambda x, y: self.projective_canonical((x[0] * y[0], x[1] * y[1])),
            cap,
            f"projective image not finite within cap {cap}",
        )
        return len(tree)

    def to_dict(self) -> dict:
        gens = []
        for g in self.generators:
            if self.ambient == "GSO4":
                gens.append([g[0].to_strings(), g[1].to_strings()])
            else:
                gens.append([format_qi(g[0]), g[1].to_strings()])
        return {
            "kind": "parameter",
            "ambient": self.ambient,
            "labels": list(self.labels),
            "generators": gens,
            "relations": [[list(t) for t in word] for word in self.relations],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ParameterImage":
        ambient = d["ambient"]
        gens = []
        for g in d["generators"]:
            if ambient == "GSO4":
                gens.append(
                    (GaussianMatrix.from_strings(g[0]), GaussianMatrix.from_strings(g[1]))
                )
            else:
                gens.append((parse_qi(g[0]), GaussianMatrix.from_strings(g[1])))
        relations = tuple(
            tuple((int(i), int(e)) for i, e in word) for word in d.get("relations", [])
        )
        return cls(ambient, tuple(gens), tuple(d.get("labels", [])), relations)


@dataclass
class CentralizerReport:
    ambient: str
    s_phi_sc: FiniteMatrixGroup
    s_phi_sc_label: str
    s_phi_label: str
    s_phi_order: int
    z_hat: AbelianGroupStructure
    z_elements: Tuple[object, ...]
    extension_ok: bool
    twists: Tuple[TwistCharacter, ...]

    def to_dict(self) -> dict:
        return {
            "ambient": self.ambient,
            "s_phi_sc_order": self.s_phi_sc.order,
            "s_phi_sc": self.s_phi_sc_label,
            "s_phi": self.s_phi_label,
            "s_phi_order": self.s_phi_order,
            "z_hat": str(self.z_hat),
            "z_hat_order": self.z_hat.torsion_order(),
            "extension_ok": self.extension_ok,
            "twists": [[format_qi(v) for v in t.values] for t in self.twists],
        }


def s_groups(
    phi: ParameterImage,
    candidate_twists: Optional[Sequence[TwistCharacter]] = None,
    cap: int = 512,
) -> CentralizerReport:
    """Assemble S_phi_sc, S_phi and the central extension data for phi."""
    k = len(phi.generators)
    if candidate_twists is None:
        twists = quadratic_twists(k, phi.relations)
    else:
        twists = list(candidate_twists)
        if not any(t.is_trivial() for t in twists):
            raise ValueError("candidate twists must include the trivial character")
        for t in twists:
            t.validate(phi.relations)
    group, used = _assemble_lines(phi.factor_images(), twists, cap)
    sizes = [images[0].n for images in phi.factor_images()]
    z_elements, _ = cover_center(sizes)
    z_hat = AbelianGroupStructure(0, tuple(len(_center_scalars(n)) for n in sizes))
    for z in z_elements:
        if z not in group:
            raise RuntimeError("center of the cover is missing from the assembly")
    squot = group.quotient(z_elements)
    s_phi_order = squot.order
    s_phi_label = group_id(squot) if squot.order <= GROUP_ID_MAX_ORDER else f"order {squot.order}"
    s_sc_label = group_id(group) if group.order <= GROUP_ID_MAX_ORDER else f"order {group.order}"
    extension_ok = group.order == z_hat.torsion_order() * s_phi_order
    return CentralizerReport(
        ambient=phi.ambient,
        s_phi_sc=group,
        s_phi_sc_label=s_sc_label,
        s_phi_label=s_phi_label,
        s_phi_order=s_phi_order,
        z_hat=z_hat,
        z_elements=z_elements,
        extension_ok=extension_ok,
        twists=tuple(used),
    )


def verify_extension(report: CentralizerReport) -> bool:
    """Exactness of 1 -> Z_hat -> S_phi_sc -> S_phi -> 1 for the report."""
    group = report.s_phi_sc
    for z in report.z_elements:
        if z not in group:
            return False
        if any(elem_mul(z, x) != elem_mul(x, z) for x in group.elements):
            return False
    cosets = {frozenset(elem_mul(x, z) for z in report.z_elements) for x in group.elements}
    if len(cosets) != report.s_phi_order:
        return False
    if len(report.z_elements) != report.z_hat.torsion_order():
        return False
    return group.order == len(report.z_elements) * len(cosets)


def sl_level_group(
    images: Sequence[GaussianMatrix], relations=(), cap: int = 512
) -> FiniteMatrixGroup:
    """Centralizer cover for a single factor at the projective-linear level.

    Twists run over mu_2 for 2x2 factors and mu_4 for 4x4 factors (the
    determinant constraint); the union of normalized lines, scaled by the
    full scalar group of the cover, is returned as an explicit group.
    """
    twists = _twists(_center_scalars(images[0].n), len(images), relations)
    return _assemble_lines([images], twists, cap)[0]


def _assemble_lines(
    factors: Sequence[Sequence[GaussianMatrix]], twists: Sequence[TwistCharacter], cap: int
) -> Tuple[FiniteMatrixGroup, List[TwistCharacter]]:
    """The group of determinant-1 twisted centralizers, one factor per cover slot.

    For each twist, every factor's twisted solution line is solved; a twist
    with a zero line in some factor is dead and skipped. The live lines are
    normalized into SL_n and scaled by the scalars of SL_n, giving matrices
    (one factor) or tuples (several). The group is generated by one line per
    live twist and the scalars of each factor, so closing it costs n*k
    products. Returns the closed group and the live twists.
    """
    generators = list(cover_center([images[0].n for images in factors])[1])
    elements = set()
    live = []
    for nu in twists:
        lines = []
        for images in factors:
            basis = twisted_centralizer_space(images, nu.values)
            if len(basis) > 1:
                raise NotEllipticError(
                    "not elliptic: a twisted solution space has dimension "
                    f"{len(basis)}"
                )
            if not basis:
                break
            lines.append(basis[0])
        else:
            live.append(nu)
            normalized = [sl_normalize(h) for h in lines]
            generators.append(_cover_element(normalized))
            scaled = [[h.scale(z) for z in _center_scalars(h.n)] for h in normalized]
            elements.update(map(_cover_element, product(*scaled)))
    if len(elements) > cap:
        raise NotFiniteError(f"assembled group exceeds cap {cap}")
    # every element is a product of the generators, so the set is closed
    # exactly when it is their closure; a larger closure stops at its size
    try:
        group = generate_closure(generators, cap=len(elements))
        closed = set(group.elements) == elements
    except NotFiniteError:
        closed = False
    if not closed:
        raise RuntimeError("assembled twisted-centralizer set failed to close")
    return group, live
