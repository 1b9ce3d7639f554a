"""Based root data for the split groups of interest and their relatives.

A based root datum is stored as (rank, simple roots, simple coroots) with
the standard pairing between Z^rank and its dual: `<x, y> = sum x_i y_i`.
Constructors cover general linear, special linear, projective linear, and
general spin groups, plus the three lattice-level operations everything
else is built from: products, kernels of central characters (similitude
kernels), and quotients by finite central subgroups or central tori.

Validity is checked at entry; derivations carry it. The public
``BasedRootDatum(...)`` (and so ``from_dict`` and the presets) runs the
validator. The GL, SL, PGL and GSpin constructors build data of a known
type, A_{n-1} or D_n, and carry that type's root count; ``dual``, products,
similitude kernels and central quotients build their result from a valid
datum by a derivation that provably keeps it valid. Neither runs the
validator, and both carry the size of the reflection closure.

The full root set is generated on demand by reflection closure with a hard
cap; a datum whose closure does not terminate below the cap is rejected,
which also rules out non-finite-type Cartan data. A reflection s_a with
<b, a^> = 0 fixes b, so the closure builds no vectors for it; it only checks
that the coroot side agrees (<a, b^> = 0 as well). Each root in the closure
carries its pairings with the simple coroots, and each coroot its pairings
with the simple roots, so a reflection updates them with one row or column
of the Cartan matrix instead of pairing over the whole rank.

Validation decides that the simple roots and coroots are independent on
the Cartan matrix C = A^T B (A, B with the simple roots, coroots as
columns): C has rank at most min(rank A, rank B), so det C != 0 proves both
families independent. Only when det C = 0 (never for finite type) does it
fall back to the Smith-form rank of A and of B.
"""
from __future__ import annotations

from operator import mul
from typing import Dict, List, Sequence, Tuple

from .lattice import (
    AbelianGroupStructure,
    IntMatrix,
    cokernel_structure,
    diagonal_of,
    kernel_basis,
    matrix_rank,
    smith_normal_form,
    solve_integral,
)

Vector = Tuple[int, ...]

ROOT_CLOSURE_CAP = 10000


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(mul, x, y))


class BasedRootDatum:
    """A based root datum (X, R, Delta, X^, R^, Delta^) in coordinates.

    ``simple_roots`` live in X = Z^rank, ``simple_coroots`` in the dual
    copy of Z^rank; validity (pairing 2 on diagonal, generalized Cartan
    conditions, finite reflection closure) is checked at entry, by this
    constructor; derivations carry it (see ``_derived``). The private
    ``_root_count`` is the size of the proven reflection closure; equality,
    hashing and ``to_dict`` ignore it.
    """

    __slots__ = ("rank", "simple_roots", "simple_coroots", "label", "_root_count")

    def __init__(
        self,
        rank: int,
        simple_roots: Sequence[Sequence[int]],
        simple_coroots: Sequence[Sequence[int]],
        label: str = "",
    ):
        object.__setattr__(self, "rank", int(rank))
        object.__setattr__(
            self, "simple_roots", tuple(tuple(int(x) for x in a) for a in simple_roots)
        )
        object.__setattr__(
            self, "simple_coroots", tuple(tuple(int(x) for x in a) for a in simple_coroots)
        )
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_root_count", self._validate())

    def __setattr__(self, name, value):
        raise AttributeError("BasedRootDatum is immutable")

    def _validate(self) -> int:
        """The number of roots; ValueError unless this is a finite-type based root datum.

        Independence of the simple roots and of the simple coroots is read
        off det C of the Cartan matrix; the two Smith-form ranks run only
        when det C = 0, to say which family is dependent, if either is.
        """
        if self.rank < 0:
            raise ValueError("negative rank")
        if len(self.simple_roots) != len(self.simple_coroots):
            raise ValueError("number of simple roots and coroots differ")
        for a in self.simple_roots + self.simple_coroots:
            if len(a) != self.rank:
                raise ValueError("root/coroot length does not match rank")
        n = len(self.simple_roots)
        if len(set(self.simple_roots)) != n or len(set(self.simple_coroots)) != n:
            raise ValueError("repeated simple roots or coroots")
        c = self.cartan_matrix()
        for i in range(n):
            if c[i][i] != 2:
                raise ValueError(f"<alpha_{i}, alpha_{i}^> = {c[i][i]} != 2")
            for j in range(n):
                if i != j:
                    if c[i][j] > 0:
                        raise ValueError("positive off-diagonal Cartan entry")
                    if (c[i][j] == 0) != (c[j][i] == 0):
                        raise ValueError("Cartan zero pattern is not symmetric")
        if n and not IntMatrix(c).det():
            if matrix_rank(IntMatrix.from_columns(self.simple_roots, rows=self.rank)) != n:
                raise ValueError("simple roots are linearly dependent")
            if matrix_rank(IntMatrix.from_columns(self.simple_coroots, rows=self.rank)) != n:
                raise ValueError("simple coroots are linearly dependent")
        return len(self._closure(c, ROOT_CLOSURE_CAP))  # raises when it is not finite

    def cartan_matrix(self) -> List[List[int]]:
        """Entries <alpha_i, alpha_j^>."""
        return [
            [_dot(a, b) for b in self.simple_coroots]
            for a in self.simple_roots
        ]

    def pairing(self, x: Sequence[int], y: Sequence[int]) -> int:
        if len(x) != self.rank:
            raise ValueError("character length does not match rank")
        if len(y) != self.rank:
            raise ValueError("cocharacter length does not match rank")
        return _dot(x, y)

    def roots(self, cap: int = ROOT_CLOSURE_CAP) -> Tuple[Tuple[Vector, Vector], ...]:
        """All (root, coroot) pairs, by reflection closure of the simple ones."""
        return self._closure(self.cartan_matrix(), cap)

    def _closure(
        self, c: List[List[int]], cap: int
    ) -> Tuple[Tuple[Vector, Vector], ...]:
        """Reflection closure, with pairings read from the Cartan matrix c.

        A frontier entry (b, bv, p, q) has p_j = <b, alpha_j^> and
        q_j = <alpha_j, bv>; s_j subtracts k = p_j times row j of c from p
        and kv = q_j times column j from q.
        """
        simple = list(zip(self.simple_roots, self.simple_coroots, c, zip(*c)))
        seen: Dict[Vector, Vector] = {a: av for a, av, _, _ in simple}
        frontier = simple
        while frontier:
            new = []
            for b, bv, p, q in frontier:
                for j, (a, av, row, col) in enumerate(simple):
                    k, kv = p[j], q[j]
                    if not k:
                        # s_a fixes b, so its coroot must stay bv
                        if kv:
                            raise ValueError("inconsistent root/coroot reflection closure")
                        continue
                    rb = tuple([x - k * y for x, y in zip(b, a)])
                    rbv = tuple([x - kv * y for x, y in zip(bv, av)])
                    if rb not in seen:
                        seen[rb] = rbv
                        p2 = [x - k * y for x, y in zip(p, row)]
                        q2 = [x - kv * y for x, y in zip(q, col)]
                        new.append((rb, rbv, p2, q2))
                    elif seen[rb] != rbv:
                        raise ValueError("inconsistent root/coroot reflection closure")
            frontier = new
            if len(seen) > cap:
                raise ValueError(f"root closure exceeded cap {cap}")
        return tuple(sorted(seen.items()))

    def dual(self) -> "BasedRootDatum":
        """Roots and coroots swapped.

        The Cartan matrix becomes its transpose, and the reflection closure
        swaps each (root, coroot) pair, so the dual is valid with as many roots.
        """
        return _derived(
            self.rank, self.simple_coroots, self.simple_roots, f"dual({self.label})",
            self._root_count,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BasedRootDatum)
            and self.rank == other.rank
            and self.simple_roots == other.simple_roots
            and self.simple_coroots == other.simple_coroots
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.simple_roots, self.simple_coroots))

    def __repr__(self) -> str:
        return f"BasedRootDatum(rank={self.rank}, label={self.label!r}, |Delta|={len(self.simple_roots)})"

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "rank": self.rank,
            "simple_roots": [list(a) for a in self.simple_roots],
            "simple_coroots": [list(a) for a in self.simple_coroots],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BasedRootDatum":
        return cls(d["rank"], d["simple_roots"], d["simple_coroots"], d.get("label", ""))


_SETTERS = tuple(getattr(BasedRootDatum, f).__set__ for f in BasedRootDatum.__slots__)


def _derived(
    rank: int,
    roots: Sequence[Vector],
    coroots: Sequence[Vector],
    label: str,
    root_count: int,
) -> BasedRootDatum:
    """A datum that its derivation proves valid, with ``root_count`` roots.

    The fields are set as given (int tuples) and ``_validate`` does not
    run; each caller states in its docstring why the result is valid.
    """
    d = object.__new__(BasedRootDatum)
    for put, value in zip(_SETTERS, (rank, tuple(roots), tuple(coroots), label, root_count)):
        put(d, value)
    return d


def _counted(
    rank: int, roots: Sequence[Vector], coroots: Sequence[Vector], label: str, root_count: int
) -> BasedRootDatum:
    """``_derived``, refused like the validator refuses: "root closure exceeded
    cap" when ``root_count`` is above ROOT_CLOSURE_CAP (read at call time)."""
    if root_count > ROOT_CLOSURE_CAP:
        raise ValueError(f"root closure exceeded cap {ROOT_CLOSURE_CAP}")
    return _derived(rank, roots, coroots, label, root_count)


def _units(n: int) -> List[Vector]:
    return [tuple([int(j == i) for j in range(n)]) for i in range(n)]


def _type_a_cartan(n: int) -> List[Vector]:
    return [
        tuple([2 if j == i else -1 if abs(j - i) == 1 else 0 for j in range(n)])
        for i in range(n)
    ]


def _type_a_roots(n: int) -> List[Vector]:
    """e_i - e_{i+1} in Z^n, i < n - 1."""
    return [
        tuple([1 if j == i else -1 if j == i + 1 else 0 for j in range(n)])
        for i in range(n - 1)
    ]


# The named constructors build their data directly: the simple roots and
# coroots are independent and pair to the Cartan matrix of type A_{n-1}
# (GL, SL, PGL) or D_n (GSpin, with D_2 = A_1 x A_1 and D_3 = A_3), so the
# reflection closure is the root system of that type: n(n - 1) roots for
# A_{n-1}, 2n(n - 1) for D_n.


def gl_datum(n: int) -> BasedRootDatum:
    """GL_n on the character basis e_1..e_n; roots e_i - e_{i+1}."""
    if n < 1:
        raise ValueError("gl_datum requires n >= 1")
    roots = _type_a_roots(n)
    return _counted(n, roots, roots, f"GL{n}", n * (n - 1))


def sl_datum(n: int) -> BasedRootDatum:
    """SL_n on the fundamental-weight basis: roots are Cartan matrix rows."""
    if n < 1:
        raise ValueError("sl_datum requires n >= 1")
    return _counted(n - 1, _type_a_cartan(n - 1), _units(n - 1), f"SL{n}", n * (n - 1))


def pgl_datum(n: int) -> BasedRootDatum:
    """PGL_n, the dual datum of SL_n."""
    if n < 1:
        raise ValueError("pgl_datum requires n >= 1")
    return _counted(n - 1, _units(n - 1), _type_a_cartan(n - 1), f"PGL{n}", n * (n - 1))


def gspin_datum(n: int) -> BasedRootDatum:
    """General spin group of rank n (type D_n flavour), lattice rank n+1.

    Basis e_0, e_1, ..., e_n of X; simple roots e_1-e_2, ..., e_{n-1}-e_n,
    e_{n-1}+e_n; the last simple coroot is e_{n-1}* + e_n* - e_0*.
    """
    if n < 2:
        raise ValueError("gspin_datum requires n >= 2")
    rank = n + 1
    roots = [(0,) + v for v in _type_a_roots(n)]
    last = [0] * rank
    last[n - 1], last[n] = 1, 1
    lastv = [0] * rank
    lastv[0], lastv[n - 1], lastv[n] = -1, 1, 1
    return _counted(
        rank, roots + [tuple(last)], roots + [tuple(lastv)], f"GSpin{2 * n}", 2 * n * (n - 1)
    )


def product_datum(d1: BasedRootDatum, d2: BasedRootDatum) -> BasedRootDatum:
    """Direct sum of lattices, concatenation of simple data.

    The Cartan matrix is block diagonal, diag(C1, C2), and the reflection
    closure is the disjoint union of the factors' closures, so the product
    is valid with n1 + n2 roots, refused past the cap (``_counted``).
    """
    r1, r2 = d1.rank, d2.rank
    roots = [tuple(a) + (0,) * r2 for a in d1.simple_roots]
    roots += [(0,) * r1 + tuple(a) for a in d2.simple_roots]
    coroots = [tuple(a) + (0,) * r2 for a in d1.simple_coroots]
    coroots += [(0,) * r1 + tuple(a) for a in d2.simple_coroots]
    label = f"{d1.label} x {d2.label}" if d1.label and d2.label else ""
    return _counted(r1 + r2, roots, coroots, label, d1._root_count + d2._root_count)


def _restricted(
    c: IntMatrix, inner: Sequence[Vector], outer: Sequence[Vector]
) -> Tuple[List[Vector], List[Vector]]:
    """Restrict one side to the sublattice spanned by the independent columns of c.

    Each inner v, which the caller has shown to lie in that span, is read as
    the unique u with c u = v; each outer w maps to c^T w. Every pairing is
    kept, <c u, w> = <u, c^T w>, so the Cartan matrix is kept. The simple
    roots and coroots stay distinct: two equal images would give the Cartan
    matrix two equal rows (or columns) i and j, which c_ii = 2 and c_ji <= 0
    forbid. The maps intertwine the simple reflections, and a root is fixed
    by its pairings with the simple coroots (the Cartan matrix of a finite
    type is invertible), so the map is a bijection on the reflection
    closure: the result is valid with as many roots.
    """
    ct = c.transpose()
    return [solve_integral(c, v) for v in inner], [ct.apply(w) for w in outer]


def _complement_restricted(
    v: Sequence[int], rank: int, inner: Sequence[Vector], outer: Sequence[Vector]
) -> Tuple[List[Vector], List[Vector]]:
    """``_restricted`` to v^perp, for a primitive v (read off the row's Smith form).

    The kernel basis of the row v is saturated, so it spans every vector
    of v^perp: each inner vector solves once it pairs to 0 with v.
    """
    if len(v) != rank:
        raise ValueError("character length does not match rank")
    row = IntMatrix([v], cols=rank)
    g = sum(diagonal_of(smith_normal_form(row)[1]))  # gcd of v; 0 when v = 0
    if g == 0:
        raise ValueError("similitude character must be nonzero")
    if g != 1:
        raise ValueError("similitude character must be a lattice direct-summand generator")
    if any(_dot(v, w) for w in inner):
        raise ValueError("similitude character must be central (pair to 0 with coroots)")
    return _restricted(kernel_basis(row), inner, outer)


def similitude_kernel_datum(
    d: BasedRootDatum, chi: Sequence[int], label: str = ""
) -> BasedRootDatum:
    """Datum of the kernel of a central character chi of d.

    Cocharacters become the orthogonal complement of chi, read in a basis C
    of it; characters become X / Z*chi, mapped by C^T. chi must be
    primitive and pair to zero with every coroot. A lattice restriction
    keeps validity and the root count (``_restricted``).
    """
    coroots, roots = _complement_restricted(chi, d.rank, d.simple_coroots, d.simple_roots)
    return _derived(d.rank - 1, roots, coroots, label or f"ker-chi({d.label})", d._root_count)


def central_quotient_datum(
    d: BasedRootDatum,
    subgroup: Sequence[Tuple[Sequence[int], int]],
    label: str = "",
) -> BasedRootDatum:
    """Quotient of d by the finite central subgroup generated by y_i(zeta_{n_i}).

    Each generator is a pair (cocharacter y, order n); centrality means
    <alpha, y> = 0 mod n for every root alpha. Characters shrink to the
    sublattice pairing integrally with the extended cocharacter lattice
    X^ + sum Z*(y_i/n_i); the result is re-coordinatized so the standard
    pairing survives.

    That sublattice X' = {x : <x, y_i> = 0 mod n_i} is the projection of the
    kernel of [Y | -diag(n_i)], {(x, t) : <x, y_i> = n_i t_i}; x fixes t, so
    the projection is a bijection and the kernel has r columns, whose first
    r rows C are a basis of X' (det C != 0, as X' contains (n_1...n_k) X).
    Centrality, checked first, puts every simple root in X', so each one
    solves, and the lattice restriction keeps validity and the root count
    (``_restricted``). A subgroup of orders 1 only copies d under the new label.
    """
    gens = [(tuple(int(x) for x in y), int(n)) for y, n in subgroup]
    r = d.rank
    for y, n in gens:
        if len(y) != r:
            raise ValueError("cocharacter length does not match rank")
        if n < 1:
            raise ValueError("generator order must be >= 1")
        for a in d.simple_roots:
            if _dot(a, y) % n:
                raise ValueError("subgroup is not central (a root is nontrivial on it)")
    gens = [(y, n) for y, n in gens if n > 1]
    if not gens:
        return _derived(r, d.simple_roots, d.simple_coroots, label or d.label, d._root_count)
    k = len(gens)
    # x in X' iff <x, y_i> = 0 mod n_i for all i; encode as a kernel problem
    rows = []
    for idx, (y, n) in enumerate(gens):
        row = list(y) + [0] * k
        row[r + idx] = -n
        rows.append(row)
    kern = kernel_basis(IntMatrix(rows, cols=r + k))
    c = IntMatrix(kern.to_rows()[:r], cols=r)
    roots, coroots = _restricted(c, d.simple_roots, d.simple_coroots)
    return _derived(r, roots, coroots, label or f"({d.label})/Z", d._root_count)


def central_torus_quotient_datum(
    d: BasedRootDatum, y: Sequence[int], label: str = ""
) -> BasedRootDatum:
    """Quotient of d by the central one-parameter subgroup with cocharacter y.

    Mirror of the similitude kernel: characters become the complement of y,
    read in a basis C of it, and cocharacters X^ / Z*y, mapped by C^T. A
    lattice restriction keeps validity and the root count (``_restricted``).
    """
    roots, coroots = _complement_restricted(y, d.rank, d.simple_roots, d.simple_coroots)
    return _derived(d.rank - 1, roots, coroots, label or f"({d.label})/GL1", d._root_count)


def center_structure(d: BasedRootDatum) -> AbelianGroupStructure:
    """X / ZR as free rank plus invariant factors; pi0 is the torsion part."""
    m = IntMatrix.from_columns(d.simple_roots, rows=d.rank)
    return cokernel_structure(m)


def dual_sc_center(d: BasedRootDatum) -> AbelianGroupStructure:
    """Center of the simply connected cover of the dual derived group.

    Computed as the cokernel of the Cartan matrix of the dual root system
    (weight lattice modulo root lattice).
    """
    if not d.simple_roots:
        raise ValueError("no semisimple part")
    c = [[_dot(b, av) for b in d.simple_coroots] for av in d.simple_roots]
    # transpose of the Cartan matrix; cokernel class is transpose-invariant
    out = cokernel_structure(IntMatrix(c))
    if out.free_rank != 0:
        raise AssertionError("dual simply connected center is infinite")
    return out


def is_central_cocharacter_of_order_two(d: BasedRootDatum, y: Sequence[int]) -> bool:
    """Does y(-1) define a central element of exact order 2?"""
    y = tuple(int(x) for x in y)
    if len(y) != d.rank:
        raise ValueError("cocharacter length does not match rank")
    # the simple roots span the root lattice, so they decide evenness
    evenly = all(_dot(a, y) % 2 == 0 for a in d.simple_roots)
    nontrivial = any(x % 2 for x in y)
    return evenly and nontrivial


def verify_exact_sequence(maps: Sequence[IntMatrix]) -> bool:
    """Exactness of 0 -> Z^a0 -> Z^a1 -> ... -> Z^ak -> 0.

    The maps are the contravariant character-lattice maps of a short (or
    longer) exact sequence of diagonalizable/reductive groups read right to
    left. Checks injectivity at the start, surjectivity at the end, and
    kernel = image at every interior node: g * f = 0 gives im f in ker g, and each
    column v of g's saturated kernel basis solving f * x = v gives ker g in im f;
    so im f = ker g, which implies rank f = f.rows - rank g.
    """
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
    # after the loop, so that the last map's reduction is the stored one
    # kernel_basis made (the first map's, for a single map)
    cok = cokernel_structure(maps[-1])
    return cok.free_rank == 0 and not cok.torsion
