"""Twisted centralizers of finite parameter images in GSO4(C) and GSO6(C).

A parameter is given by the images of abstract generators w_1..w_k: pairs
of 2x2 matrices for the GSO4 ambient (modulo the antidiagonal scalar
kernel), or (scalar, 4x4 matrix) pairs for GSO6 (modulo (z^-2, z)); the
image is closed as plain matrices h1 (x) h2 in GL4 or a * Lambda^2 h in GL6.

A twist is a tuple nu = (nu_1, ..., nu_k) of scalars, one per generator,
and its twisted centralizer space {h : h g_j = nu_j g_j h} is solved
exactly over Q(i). In the elliptic case every such space has dimension at
most one; the union of the determinant-normalized solution lines inside the
simply connected cover (SL2 x SL2 or SL4) assembles the component-group
extension: the full group is S_phi_sc, its quotient by the center of the
cover is S_phi, and the center itself is the kernel of the extension.
SL2 x SL2 is held block-diagonally in SL4: (h1, h2) is diag(h1, h2).
Distinct live twists give disjoint cosets of the center Z, so the assembly
counts cosets instead of listing them (see ``_assemble_lines``), and
``verify_extension`` checks exactness once, on the group's Cayley table.

At the level of the similitude quotient only quadratic twists survive (the
scalar slot forces nu^2 = 1); twists of order four appear for the larger
projective-linear centralizer, computed by ``sl_level_group``. Both levels
run one routine over every tuple of a root set, unpruned: if a word w holds
in the image up to scalars, h w(g) = w(nu) w(g) h forces h = 0 unless
w(nu) = 1, so a twist that breaks a true relation is dead anyway.
"""
from __future__ import annotations

from itertools import combinations, product
from operator import mul
from typing import List, Sequence, Tuple

from .gaussian import (
    FOURTH_ROOTS,
    QI,
    GaussianMatrix,
    _matrix,
    format_qi,
    parse_qi,
    qi_nullspace,
)
from .finite_groups import (
    GROUP_ID_MAX_ORDER,
    FiniteMatrixGroup,
    NotFiniteError,
    closure_tree,
    generate_closure,
    group_id,
)
from .lattice import AbelianGroupStructure

MU2 = (QI(1), QI(-1))


class NotEllipticError(RuntimeError):
    """A twisted solution space has dimension >= 2; parameter is not elliptic."""


class NormalizationError(RuntimeError):
    """A solution line admits no determinant-1 scaling inside Q(i)."""


def _center_scalars(n: int) -> Tuple[QI, ...]:
    """The scalars of SL_n(Q(i)) for the supported sizes: mu_2 or mu_4."""
    return MU2 if n == 2 else FOURTH_ROOTS


def cover_center(sizes: Sequence[int]) -> Tuple[tuple, tuple]:
    """(elements, generators) of the center of the cover with factors SL_n, n in ``sizes``.

    The elements are the block-diagonal products of the factors' scalars,
    mu_2 x mu_2 for sizes (2, 2) and mu_4 for (4,); generator f is the
    second scalar of factor f (-1 in SL2, i in SL4) with the identity in
    every other block.
    """
    elements = tuple(
        GaussianMatrix.block_diagonal(*map(GaussianMatrix.scalar, sizes, zs))
        for zs in product(*map(_center_scalars, sizes))
    )
    generators = []
    for f, n in enumerate(sizes):
        blocks = [GaussianMatrix.identity(m) for m in sizes]
        blocks[f] = GaussianMatrix.scalar(n, _center_scalars(n)[1])
        generators.append(GaussianMatrix.block_diagonal(*blocks))
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
        if not g.det():
            raise ValueError("generator images must be invertible")
    rows: List[List[QI]] = []
    for g, z in zip(images, nu):
        # h g = z g h is homogeneous in g, so g's numerators give the same rows
        ge = [QI(x, y) for x, y in zip(g.a, g.b)]
        for r in range(n):
            for c in range(n):
                row = [QI(0)] * (n * n)
                for s in range(n):
                    row[r * n + s] = row[r * n + s] + ge[s * n + c]
                    row[s * n + c] = row[s * n + c] - z * ge[r * n + s]
                rows.append(row)
    basis = qi_nullspace(rows, n * n)
    out = []
    for vec in basis:
        first = next(x for x in vec if x)
        inv = first.inverse()
        out.append(GaussianMatrix([[inv * vec[i * n + j] for j in range(n)] for i in range(n)]))
    return out


def sl_normalize(h: GaussianMatrix) -> GaussianMatrix:
    """Scale h into SL_n over Q(i), or report the obstruction."""
    n = h.n
    d = h.det()
    if not d:
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


_TENSOR_ROWS = tuple(product(range(2), repeat=2))
_WEDGE_ROWS = tuple(combinations(range(4), 2))


def _standard_image(ambient: str, g: tuple) -> GaussianMatrix:
    """g in its ambient's faithful representation, whose kernel is the scalar kernel.

    GSO4: h1 (x) h2 in GL4, entry [(i,k),(j,l)] = h1[i][j] * h2[k][l].
    GSO6: a * Lambda^2 h in GL6 on the pairs i < j in lexicographic order,
    entry [(i,j),(k,l)] = h[i][k] * h[j][l] - h[i][l] * h[j][k].
    Both are formed on the Z[i] numerators over the product of the
    denominators; a 2x2 minor skips each product with a zero factor.
    """
    if ambient == "GSO4":
        x, y = g
        real, imag = [], []
        for i, k in _TENSOR_ROWS:
            for j, l in _TENSOR_ROWS:
                p, q, c, e = x.a[2 * i + j], x.b[2 * i + j], y.a[2 * k + l], y.b[2 * k + l]
                real.append(p * c - q * e)
                imag.append(p * e + q * c)
        return _matrix(4, tuple(real), tuple(imag), x.d * y.d)
    z, h = g
    ha, hb = h.a, h.b
    real, imag = [], []
    for i, j in _WEDGE_ROWS:
        for k, l in _WEDGE_ROWS:
            mr = mi = 0
            for s, t, sign in ((4 * i + k, 4 * j + l, 1), (4 * i + l, 4 * j + k, -1)):
                p, q, c, e = ha[s], hb[s], ha[t], hb[t]
                if (p or q) and (c or e):
                    mr += sign * (p * c - q * e)
                    mi += sign * (p * e + q * c)
            real.append(z.a * mr - z.b * mi)
            imag.append(z.a * mi + z.b * mr)
    return _matrix(6, tuple(real), tuple(imag), z.d * h.d * h.d)


class ParameterImage:
    """Generator images of an elliptic parameter in GSO4(C) or GSO6(C).

    Construction checks the generators and closes their image (it must be
    finite) in ``__post_init__``, which ``__init__`` calls once the fields are set.
    """

    __slots__ = ("ambient", "generators", "labels")

    def __init__(
        self,
        ambient: str,  # "GSO4" | "GSO6"
        generators: Tuple[tuple, ...],
        labels: Tuple[str, ...] = (),
    ):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "labels", labels)
        self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError("ParameterImage is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ParameterImage)
            and self.ambient == other.ambient
            and self.generators == other.generators
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.generators, self.labels))

    def __post_init__(self):
        if self.ambient not in ("GSO4", "GSO6"):
            raise ValueError(f"unknown ambient {self.ambient!r}")
        if not self.generators:
            raise ValueError("parameter needs at least one generator")
        for g in self.generators:
            if self.ambient == "GSO4":
                if len(g) != 2 or any(not isinstance(m, GaussianMatrix) or m.n != 2 for m in g):
                    raise ValueError("GSO4 generators are pairs of 2x2 matrices")
                if not all(m.det() for m in g):
                    raise ValueError("generators must be invertible")
            else:
                if len(g) != 2 or not isinstance(g[0], QI) or not isinstance(g[1], GaussianMatrix):
                    raise ValueError("GSO6 generators are (scalar, 4x4 matrix) pairs")
                if not g[0] or not g[1].det() or g[1].n != 4:
                    raise ValueError("generators must be invertible 4x4 with nonzero scalar")
        self.projective_closure_order()  # elliptic use case: image must be finite

    def factor_images(self) -> List[List[GaussianMatrix]]:
        if self.ambient == "GSO4":
            return [[g[0] for g in self.generators], [g[1] for g in self.generators]]
        return [[g[1] for g in self.generators]]

    def projective_closure_order(self, cap: int = 4096) -> int:
        """Order of the image in GSO4(C) or GSO6(C); NotFiniteError past ``cap``."""
        images = [_standard_image(self.ambient, g) for g in self.generators]
        message = f"projective image not finite within cap {cap}"
        tree, _ = closure_tree(GaussianMatrix.identity(images[0].n), images, mul, cap, message)
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
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ParameterImage":
        """Inverse of ``to_dict``; the keys ``kind`` and ``relations`` are ignored."""
        ambient = d["ambient"]
        gens = []
        for g in d["generators"]:
            if ambient == "GSO4":
                gens.append(
                    (GaussianMatrix.from_strings(g[0]), GaussianMatrix.from_strings(g[1]))
                )
            else:
                gens.append((parse_qi(g[0]), GaussianMatrix.from_strings(g[1])))
        return cls(ambient, tuple(gens), tuple(d.get("labels", [])))


def _label(group: FiniteMatrixGroup) -> str:
    """The group's ``group_id`` label, or ``order n`` past GROUP_ID_MAX_ORDER."""
    return group_id(group) if group.order <= GROUP_ID_MAX_ORDER else f"order {group.order}"


class CentralizerReport:
    """S_phi_sc, S_phi = S_phi_sc / Z and Z_hat of a parameter.

    Derived: the labels are ``_label`` of the two groups, ``s_phi_order`` is
    |S_phi|, and ``extension_ok`` is ``verify_extension`` of the report.
    """

    __slots__ = (
        "ambient", "s_phi_sc", "s_phi_sc_label", "s_phi_label", "s_phi_order",
        "z_hat", "z_elements", "extension_ok", "twists", "s_phi",
    )

    def __init__(
        self,
        ambient: str,
        s_phi_sc: FiniteMatrixGroup,
        s_phi: FiniteMatrixGroup,
        z_hat: AbelianGroupStructure,
        z_elements: Tuple[GaussianMatrix, ...],
        twists: Tuple[Tuple[QI, ...], ...],  # the live twists
    ):
        self.ambient = ambient
        self.s_phi_sc = s_phi_sc
        self.s_phi = s_phi
        self.z_hat = z_hat
        self.z_elements = z_elements
        self.twists = twists
        self.s_phi_sc_label = _label(s_phi_sc)
        self.s_phi_label = _label(s_phi)
        self.s_phi_order = s_phi.order
        self.extension_ok = verify_extension(self)

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
            "twists": [[format_qi(v) for v in t] for t in self.twists],
        }


def s_groups(phi: ParameterImage, cap: int = 512) -> CentralizerReport:
    """S_phi_sc, S_phi and the extension, checked by verify_extension, over every sign twist."""
    factors = phi.factor_images()
    group, used, z_elements = _assemble_lines(factors, MU2, cap)
    z_hat = AbelianGroupStructure(0, tuple(len(_center_scalars(f[0].n)) for f in factors))
    # Z lies in the group: its generators are among the closure's
    squot = group.quotient(z_elements)
    return CentralizerReport(phi.ambient, group, squot, z_hat, z_elements, tuple(used))


def verify_extension(report: CentralizerReport) -> bool:
    """Exactness of 1 -> Z_hat -> S_phi_sc -> S_phi -> 1 for the report, on S_phi_sc's Cayley table."""
    group = report.s_phi_sc
    if any(z not in group for z in report.z_elements):
        return False
    mt, zs = group.cayley_table, [group.index(z) for z in report.z_elements]
    if any(mt[z][x] != mt[x][z] for z in zs for x in range(group.order)):
        return False
    cosets = {frozenset(mt[x][z] for z in zs) for x in range(group.order)}
    if len(cosets) != report.s_phi_order:
        return False
    if len(report.z_elements) != report.z_hat.torsion_order():
        return False
    return group.order == len(report.z_elements) * len(cosets)


def sl_level_group(images: Sequence[GaussianMatrix], cap: int = 512) -> FiniteMatrixGroup:
    """Centralizer cover for a single factor at the projective-linear level.

    Twists are every tuple over mu_2 (2x2) or mu_4 (4x4), the determinant
    constraint; the union of normalized lines, scaled by the full scalar
    group of the cover, is returned as an explicit group.
    """
    return _assemble_lines([images], _center_scalars(images[0].n), cap)[0]


def _assemble_lines(
    factors: Sequence[Sequence[GaussianMatrix]], roots: Sequence[QI], cap: int
) -> Tuple[FiniteMatrixGroup, List[Tuple[QI, ...]], tuple]:
    """The group of determinant-1 twisted centralizers, one factor per cover slot.

    The twists are every tuple of ``roots``, one value per generator. For
    each twist, every factor's twisted solution line is solved; a twist
    with a zero line in some factor is dead and skipped. Each live line,
    normalized into SL_n, is one block-diagonal h_nu, and with the center Z
    of the cover it gives the coset h_nu Z of |Z| elements. Distinct twists
    give disjoint cosets: if h_nu = c h_nu' with c in Z, c is scalar in
    every block, so h_nu g_j = nu'_j g_j h_nu and (nu_j - nu'_j) g_j h_nu = 0
    for every j, hence nu = nu'. So the cosets are counted, not listed: the
    work stops as soon as |Z| times the number of live twists passes
    ``cap``. The closure of one line per live twist and the generators of
    Z (n*k products) holds every coset, and it is accepted only at exactly
    that count: more means the cosets are not closed, fewer that two lines
    share a coset, which no true solution does. Returns the closed group,
    the live twists and the elements of Z. Refusals name the twist.
    """
    z_elements, generators = cover_center([images[0].n for images in factors])
    generators = list(generators)
    live = []
    for nu in product(roots, repeat=len(factors[0])):
        lines = []
        for f, images in enumerate(factors):
            basis = twisted_centralizer_space(images, nu)
            if len(basis) > 1:
                raise NotEllipticError(
                    "not elliptic: a twisted solution space has dimension "
                    f"{len(basis)} at twist ({', '.join(map(format_qi, nu))}), factor {f}"
                )
            if not basis:
                break
            lines.append(basis[0])
        else:
            live.append(nu)
            try:
                normalized = [sl_normalize(h) for h in lines]
            except NormalizationError as exc:
                raise NormalizationError(f"{exc} at twist ({', '.join(map(format_qi, nu))})")
            generators.append(GaussianMatrix.block_diagonal(*normalized))
            if len(z_elements) * len(live) > cap:
                raise NotFiniteError(f"assembled group exceeds cap {cap}")
    count = len(z_elements) * len(live)
    try:
        group = generate_closure(generators, cap=count)
    except NotFiniteError:
        group = None
    if group is None or group.order != count:
        raise RuntimeError("assembled twisted-centralizer set failed to close")
    return group, live, z_elements
