"""Finite matrix groups over Q(i): closure, classes, exact character tables.

Group elements are ``GaussianMatrix`` objects or tuples of them (tuples for
product ambient groups such as SL2 x SL2). A ``FiniteMatrixGroup`` is its
sorted elements, its integer Cayley table, the identity's position and the
generators' positions, and nothing else. ``generate_closure`` is the only
builder that multiplies matrices: the closure's products are the
generators' right action, and the table is filled along the closure's word
tree by lookups alone. Every group algorithm (inverses, orders, center,
classes, class sums, central characters, quotients by central subgroups)
reads that table, and the matrices stay as element labels. The center and
quotients call the constructor with a table induced from the parent's.

Character tables are computed by an exact Dixon-style method: the class-sum
matrices are simultaneously diagonalized over a prime field F_p with
p = 1 mod exponent, and the character values are lifted back to Z[i] via
root-of-unity multiplicities. Every table, up to the 512 cap, is then
checked on integers by ``_validate_table``: the classes are certified from
the Cayley table, both orthogonality relations must hold, and each row must
pass the regular-representation cross-check (the projection built from the
row must be idempotent), a second path independent of the eigen-split.

The mod-p eigen-split runs on the same Gauss-Jordan routine as the Q(i)
solves (``gaussian.gauss_jordan``), and every closure in the package,
including projective images and central-character values, is the word tree
built by ``closure_tree``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt, lcm
from operator import mul
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .gaussian import FOURTH_ROOTS, QI, GaussianMatrix, gauss_jordan, nullspace
from .lattice import AbelianGroupStructure


class NotFiniteError(RuntimeError):
    """Closure generation exceeded the configured cap."""


class CapExceededError(RuntimeError):
    """Input is larger than the supported size for this operation."""


class FieldInsufficientError(RuntimeError):
    """Exact values would leave Q(i); refusing to approximate."""


Element = object  # GaussianMatrix or tuple of GaussianMatrix

GROUP_ID_MAX_ORDER = 64  # the largest order ``group_id`` will identify


def elem_mul(x: Element, y: Element) -> Element:
    if isinstance(x, tuple):
        return tuple(a * b for a, b in zip(x, y))
    return x * y


def elem_identity_like(x: Element) -> Element:
    if isinstance(x, tuple):
        return tuple(GaussianMatrix.identity(a.n) for a in x)
    return GaussianMatrix.identity(x.n)


def elem_key(x: Element):
    if isinstance(x, tuple):
        return tuple(a.sort_key() for a in x)
    return (x.sort_key(),)


def elem_is_invertible(x: Element) -> bool:
    if isinstance(x, tuple):
        return all(not a.det().is_zero() for a in x)
    return not x.det().is_zero()


class FiniteMatrixGroup:
    """A finite group of (tuples of) matrices given by its integer Cayley table.

    ``cayley_table[a][b]`` is the position of elements[a] * elements[b];
    ``identity_index`` and ``generator_index`` are positions too. The
    elements are sorted by ``elem_key`` (``generate_closure`` sorts them, and
    centers and quotients keep their parent's order), so positions compare
    like keys. Every group algorithm reads the table; the matrices are labels.
    """

    def __init__(
        self,
        elements: Iterable[Element],
        cayley_table: Sequence[Tuple[int, ...]],
        identity_index: int,
        generator_index: Iterable[int],
    ):
        self.elements: Tuple[Element, ...] = tuple(elements)
        self.cayley_table = cayley_table
        self.identity_index = identity_index
        self.generator_index: Tuple[int, ...] = tuple(generator_index)
        self._cache: Dict[str, object] = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _positions(self) -> Dict[Element, int]:
        return {x: i for i, x in enumerate(self.elements)}

    def __contains__(self, x: Element) -> bool:
        return x in self._positions

    def index(self, x: Element) -> int:
        """Position of ``x`` in ``elements``; KeyError when it is not there."""
        return self._positions[x]

    @cached_property
    def inverse_index(self) -> Tuple[int, ...]:
        return tuple(row.index(self.identity_index) for row in self.cayley_table)

    @cached_property
    def element_orders(self) -> Tuple[int, ...]:
        mt, e = self.cayley_table, self.identity_index
        orders = []
        for a in range(self.order):
            y, n = a, 1
            while y != e:
                y, n = mt[y][a], n + 1
            orders.append(n)
        return tuple(orders)

    def element_order(self, x: Element) -> int:
        return self.element_orders[self.index(x)]

    def _central(self, z: int) -> bool:
        mt = self.cayley_table
        return all(mt[z][g] == mt[g][z] for g in self.generator_index)

    def is_abelian(self) -> bool:
        return all(self._central(g) for g in self.generator_index)

    def exponent(self) -> int:
        return lcm(*self.element_orders)

    def conjugacy_classes(self) -> Tuple["ConjClass", ...]:
        if "classes" not in self._cache:
            self._cache["classes"] = _conjugacy_classes(self)
        return self._cache["classes"]

    def _induced(
        self, reps: List[int], image: Sequence[int], gens: Iterable[int]
    ) -> "FiniteMatrixGroup":
        """The group on ``reps`` with product image[a * b], read off this table."""
        mt = self.cayley_table
        return FiniteMatrixGroup(
            (self.elements[a] for a in reps),
            [tuple(image[mt[a][b]] for b in reps) for a in reps],
            image[self.identity_index],
            sorted(set(gens)),
        )

    def center(self) -> "FiniteMatrixGroup":
        zs = [z for z in range(self.order) if self._central(z)]
        image = {z: i for i, z in enumerate(zs)}
        return self._induced(zs, image, range(len(zs)))

    def quotient(self, z_elements: Iterable[Element]) -> "FiniteMatrixGroup":
        """Quotient by a central subgroup; each coset is labelled by its first element."""
        mt = self.cayley_table
        zs = {self.index(z) for z in z_elements}
        closed = all(mt[a][b] in zs for a in zs for b in zs)
        if self.identity_index not in zs or not closed or not all(map(self._central, zs)):
            raise ValueError("quotient needs a central subgroup")
        coset: List[int] = [-1] * self.order
        reps: List[int] = []
        for a in range(self.order):
            if coset[a] < 0:
                for z in zs:
                    coset[mt[a][z]] = len(reps)
                reps.append(a)
        return self._induced(reps, coset, (coset[g] for g in self.generator_index))

    def character_table(self) -> "CharacterTable":
        if "table" not in self._cache:
            self._cache["table"] = _character_table(self)
        return self._cache["table"]


def generate_closure(generators: Sequence[Element], cap: int = 512) -> FiniteMatrixGroup:
    """Close a generating set under multiplication; error beyond ``cap``.

    The only group builder that multiplies matrices. The closure's products
    x * g are the generators' right action on the sorted elements, and the
    table is filled column by column along the closure's word tree: if
    b = c * g then a * b = (a * c) * g, one lookup.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("no generators")
    for g in gens:
        if not elem_is_invertible(g):
            raise ValueError("generators must be invertible")
    identity = elem_identity_like(gens[0])
    tree, products = closure_tree(identity, gens, elem_mul, cap, f"not finite within cap {cap}")
    elements = sorted(tree, key=elem_key)
    n = len(elements)
    pos = {x: i for i, x in enumerate(elements)}
    action = [[0] * n for _ in gens]
    for x, row in zip(tree, products):
        for j, y in enumerate(row):
            action[j][pos[x]] = pos[y]
    cols: Dict[int, Sequence[int]] = {}
    for y, (x, j) in tree.items():
        cols[pos[y]] = range(n) if x is None else [action[j][a] for a in cols[pos[x]]]
    table = list(zip(*(cols[b] for b in range(n))))
    return FiniteMatrixGroup(elements, table, pos[identity], (pos[g] for g in gens))


def closure_tree(
    identity: Element,
    generators: Sequence[Element],
    mul: Callable[[Element, Element], Element],
    cap: Optional[int] = None,
    cap_message: str = "",
) -> Tuple[Dict[Element, Tuple[Optional[Element], Optional[int]]], List[List[Element]]]:
    """Breadth-first word tree of the monoid generated from ``identity``.

    Returns ``(tree, products)``. ``tree`` maps each element y to (x, j)
    with y = mul(x, generators[j]), in discovery order; the identity maps
    to (None, None). ``products[i][j]`` is mul(x, generators[j]) for the
    i-th element x of ``tree``. Raises ``NotFiniteError(cap_message)`` once
    more than ``cap`` elements appear.
    """
    tree: Dict[Element, Tuple[Optional[Element], Optional[int]]] = {identity: (None, None)}
    products: List[List[Element]] = []
    frontier = [identity]
    while frontier:
        fresh = []
        for x in frontier:
            row = []
            for j, g in enumerate(generators):
                y = mul(x, g)
                row.append(y)
                if y not in tree:
                    tree[y] = (x, j)
                    fresh.append(y)
                    if cap is not None and len(tree) > cap:
                        raise NotFiniteError(cap_message)
            products.append(row)
        frontier = fresh
    return tree, products


@dataclass(frozen=True)
class ConjClass:
    rep: Element
    members: Tuple[Element, ...]
    order: int
    positions: Tuple[int, ...]  # of the members, in the group's element order

    @property
    def size(self) -> int:
        return len(self.members)


def _conjugacy_classes(group: FiniteMatrixGroup) -> Tuple[ConjClass, ...]:
    mt, inv, orders = group.cayley_table, group.inverse_index, group.element_orders
    gens = group.generator_index
    seen = [False] * group.order
    orbits = []
    for x in range(group.order):
        if seen[x]:
            continue
        orbit = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for g in gens:
                z = mt[inv[g]][mt[y][g]]
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        for y in orbit:
            seen[y] = True
        orbits.append(sorted(orbit))
    orbits.sort(key=lambda m: (orders[m[0]], len(m), m[0]))
    elems = group.elements
    return tuple(
        ConjClass(elems[m[0]], tuple(elems[p] for p in m), orders[m[0]], tuple(m)) for m in orbits
    )


def abelian_invariants(group: FiniteMatrixGroup) -> AbelianGroupStructure:
    """Invariant factors of a finite abelian group, by peeling maximal orders."""
    if not group.is_abelian():
        raise ValueError("abelian_invariants needs an abelian group")
    peeled: List[int] = []
    while group.order > 1:
        orders, mt = group.element_orders, group.cayley_table
        best = max(orders)
        g = orders.index(best)
        powers = [group.identity_index]
        while len(powers) < best:
            powers.append(mt[powers[-1]][g])
        peeled.append(best)
        group = group.quotient(group.elements[p] for p in powers)
    for a, b in zip(peeled, peeled[1:]):
        if a % b:
            raise AssertionError("invariant factors fail to divide each other")
    return AbelianGroupStructure(0, tuple(reversed(peeled)))


def group_id(group: FiniteMatrixGroup) -> str:
    """Identify a small group against a fixed catalogue."""
    n = group.order
    if n > GROUP_ID_MAX_ORDER:
        raise CapExceededError(f"group_id supports order <= {GROUP_ID_MAX_ORDER}")
    if group.is_abelian():
        inv = abelian_invariants(group).torsion
        if not inv:
            return "1"
        if all(d == 2 for d in inv):
            return "Z/2" if len(inv) == 1 else f"(Z/2)^{len(inv)}"
        if inv == (4,):
            return "Z/4"
        if inv == (2, 4):
            return "Z/2 x Z/4"
        if inv[-1] == 4 and all(d == 2 for d in inv[:-1]) and len(inv) >= 3:
            return f"(Z/2)^{len(inv) - 1} x Z/4"
        factors = ",".join(str(d) for d in inv)
        return f"abelian order {n} (invariant factors {factors})"
    orders = group.element_orders
    involutions = orders.count(2)
    if n == 8:
        return "Q8" if involutions == 1 else "D4"
    if n == 16:
        zinv = abelian_invariants(group.center()).torsion
        mt = group.cayley_table
        squares = {mt[x][x] for x in range(n) if orders[x] == 4}
        # center (Z/2)^2, all order-4 squares equal, 3 involutions: that is
        # Q8 x Z/2 (Z/4:Z/4 has two squares, D4 x Z/2 has 11 involutions)
        if zinv == (2, 2) and len(squares) == 1 and involutions == 3:
            return "Q8 x Z/2"
    return f"unrecognized (order={n}, abelian=no, exponent={group.exponent()})"


# ---------------------------------------------------------------------------
# character tables


@dataclass(frozen=True)
class CharacterRow:
    degree: int
    values: Tuple[QI, ...]

    def sort_key(self):
        return (self.degree, tuple(v.sort_key() for v in self.values))


@dataclass
class CharacterTable:
    group: FiniteMatrixGroup
    classes: Tuple[ConjClass, ...]
    rows: Tuple[CharacterRow, ...]
    class_of: Tuple[int, ...]  # class index of every element position

    def degrees(self) -> Tuple[int, ...]:
        return tuple(r.degree for r in self.rows)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _choose_prime(exponent: int, order: int) -> int:
    p = 2 * isqrt(order) + 2
    while True:
        if _is_prime(p) and (p - 1) % exponent == 0:
            return p
        p += 1


def _primitive_eth_root(p: int, e: int) -> int:
    # factor p-1, find a generator, take its (p-1)/e power
    m = p - 1
    facs = set()
    d = 2
    while d * d <= m:
        while m % d == 0:
            facs.add(d)
            m //= d
        d += 1
    if m > 1:
        facs.add(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in facs):
            return pow(g, (p - 1) // e, p)
    raise RuntimeError("no generator found")


def _character_table(group: FiniteMatrixGroup) -> CharacterTable:
    n = group.order
    if n > 512:
        raise CapExceededError("character_table supports order <= 512")
    e = group.exponent()
    if 4 % e:
        raise FieldInsufficientError(
            f"field insufficient: exponent {e} does not divide 4, values leave Q(i)"
        )
    classes = group.conjugacy_classes()
    k = len(classes)
    mt, inv = group.cayley_table, group.inverse_index
    class_of = [0] * n
    for i, c in enumerate(classes):
        for x in c.positions:
            class_of[x] = i
    reps = [c.positions[0] for c in classes]
    sizes = [c.size for c in classes]
    inv_class = [class_of[inv[r]] for r in reps]
    power = []
    for r in reps:
        row = []
        y = group.identity_index
        for _ in range(e):
            row.append(class_of[y])
            y = mt[y][r]
        power.append(row)

    m_mats = []
    for i in range(k):
        mat = [[0] * k for _ in range(k)]
        for t in range(k):
            zt = reps[t]
            for x in classes[i].positions:
                mat[t][class_of[mt[inv[x]][zt]]] += 1
        m_mats.append(mat)

    p = _choose_prime(e, n)
    zroot = _primitive_eth_root(p, e)

    def inverse(x: int) -> int:
        return pow(x, p - 2, p)

    def reduce(row: List[int]) -> List[int]:
        return [x % p for x in row]

    # split F_p^k into common eigenlines of the class-sum matrices
    spaces: List[List[List[int]]] = [
        [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    ]
    for i in range(k):
        if all(len(b) == 1 for b in spaces):
            break
        mat = m_mats[i]
        fresh: List[List[List[int]]] = []
        for basis in spaces:
            if len(basis) == 1:
                fresh.append(basis)
                continue
            mdim = len(basis)
            images = [
                [sum(mat[t][j] * vec[j] for j in range(k)) % p for t in range(k)]
                for vec in basis
            ]
            # coordinates of every image in the basis: reduce [basis^T | images^T]
            aug = [[vec[t] for vec in basis] + [img[t] for img in images] for t in range(k)]
            red, pivots = gauss_jordan(aug, mdim, inverse, reduce)
            rmat = [[0] * mdim for _ in range(mdim)]
            for row, c in zip(red, pivots):
                rmat[c] = row[mdim:]
            found = 0
            for lam in range(p):
                if found == mdim:
                    break  # the eigenspaces fill the basis; no other lam is an eigenvalue
                shifted = [
                    [(rmat[a][b] - (lam if a == b else 0)) % p for b in range(mdim)]
                    for a in range(mdim)
                ]
                null = nullspace(shifted, mdim, inverse, 1, reduce)
                if null:
                    sub = [
                        [
                            sum(coef[t] * basis[t][j] for t in range(mdim)) % p
                            for j in range(k)
                        ]
                        for coef in null
                    ]
                    fresh.append(sub)
                    found += len(null)
        spaces = fresh

    omegas_list = []
    for basis in spaces:
        if len(basis) != 1:
            raise AssertionError("class-sum matrices failed to split to lines")
        v = basis[0]
        t0 = next(t for t in range(k) if v[t] % p)
        om = []
        for i in range(k):
            img = sum(m_mats[i][t0][j] * v[j] for j in range(k)) % p
            om.append((img * pow(v[t0], p - 2, p)) % p)
        omegas_list.append(om)

    einv = pow(e, p - 2, p)
    rows = []
    for om in omegas_list:
        s = 0
        for i in range(k):
            s = (s + om[i] * om[inv_class[i]] * pow(sizes[i], p - 2, p)) % p
        d2 = (n * pow(s, p - 2, p)) % p
        deg = None
        for dd in range(1, isqrt(n) + 1):
            if (dd * dd) % p == d2:
                deg = dd
                break
        if deg is None:
            raise AssertionError("no degree matches the mod-p data")
        chi_p = [(deg * om[i] * pow(sizes[i], p - 2, p)) % p for i in range(k)]
        values = []
        for i in range(k):
            re = im = 0
            for j in range(e):
                mj = 0
                for t in range(e):
                    mj = (mj + chi_p[power[i][t]] * pow(zroot, (-j * t) % (p - 1), p)) % p
                mj = (mj * einv) % p
                if mj > deg:
                    raise AssertionError("multiplicity lift out of range")
                root = FOURTH_ROOTS[(4 // e * j) % 4]  # the j-th power of i^(4/e)
                re, im = re + mj * root.a, im + mj * root.b
            values.append(QI(re, im))
        rows.append(CharacterRow(deg, tuple(values)))

    rows.sort(key=lambda r: r.sort_key())
    table = CharacterTable(group, classes, tuple(rows), tuple(class_of))
    _validate_table(table)
    return table


def _zi_dot(ure, uim, vre, vim) -> Tuple[int, int]:
    """(re, im) of the sum of u_t * v_t over Z[i], u and v given by their int parts."""
    return (
        sum(map(mul, ure, vre)) - sum(map(mul, uim, vim)),
        sum(map(mul, ure, vim)) + sum(map(mul, uim, vre)),
    )


def _validate_table(table: CharacterTable) -> None:
    """Check a character table on integers, independently of the eigen-split.

    The classes are certified first: ``class_of`` is closed under conjugation
    by the generators, and |K| * |C_G(rep)| = |G| for each class K. Then come
    the counts, degrees and both orthogonality relations, and the regular
    representation check T^2 = (|G|/chi(1)) T with T[u][v] = chi(g_v g_u^-1).
    T is a group matrix, so that is the convolution sum_x chi(x) chi(y x^-1)
    = (|G|/chi(1)) chi(y), a class function of y: one y per class is checked.
    """
    group = table.group
    n, mt, inv = group.order, group.cayley_table, group.inverse_index
    classes, class_of, rows = table.classes, table.class_of, table.rows
    sizes = [c.size for c in classes]
    reps = [c.positions[0] for c in classes]
    if sum(sizes) != n or any(class_of[x] != i for i, c in enumerate(classes) for x in c.positions):
        raise AssertionError("classes and class_of do not partition the group alike")
    for g in group.generator_index:
        if any(class_of[mt[inv[g]][mt[x][g]]] != class_of[x] for x in range(n)):
            raise AssertionError("a class is not closed under conjugation")
    for r, size in zip(reps, sizes):
        if size * sum(mt[x][r] == mt[r][x] for x in range(n)) != n:
            raise AssertionError("a class is not a single conjugacy class")
    if any(v.d != 1 for row in rows for v in row.values):
        raise AssertionError("character value is not an algebraic integer in Z[i]")
    parts = [([v.a for v in row.values], [v.b for v in row.values]) for row in rows]
    if len(rows) != len(classes):
        raise AssertionError("number of characters differs from class count")
    if sum(r.degree * r.degree for r in rows) != n:
        raise AssertionError("degrees fail sum of squares = |G|")
    if any(n % r.degree for r in rows):
        raise AssertionError("degree does not divide group order")
    for a, (are, aim) in enumerate(parts):
        wre = [s * x for s, x in zip(sizes, are)]
        wim = [s * x for s, x in zip(sizes, aim)]
        for b, (bre, bim) in enumerate(parts):
            if _zi_dot(wre, wim, bre, [-x for x in bim]) != (n if a == b else 0, 0):
                raise AssertionError("row orthogonality fails")
    cols = [([re[i] for re, _ in parts], [im[i] for _, im in parts]) for i in range(len(classes))]
    for i, (ire, iim) in enumerate(cols):
        for j, (jre, jim) in enumerate(cols):
            if _zi_dot(ire, iim, jre, [-x for x in jim]) != (n // sizes[i] if i == j else 0, 0):
                raise AssertionError("column orthogonality fails")
    yx = [[mt[y][inv[x]] for x in range(n)] for y in reps]
    for row, (re, im) in zip(rows, parts):
        scale = n // row.degree
        fre = [re[c] for c in class_of]
        fim = [im[c] for c in class_of]
        for i, pos in enumerate(yx):
            conv = _zi_dot(fre, fim, [fre[z] for z in pos], [fim[z] for z in pos])
            if conv != (scale * re[i], scale * im[i]):
                raise AssertionError("regular representation cross-check fails")


@dataclass(frozen=True)
class CentralCharacter:
    """A character of a designated central subgroup, given on generators."""

    assignments: Tuple[Tuple[Element, QI], ...]

    def extend(self, group: FiniteMatrixGroup) -> Dict[int, QI]:
        """Values on the generated subgroup of ``group``, keyed by element
        position; error when not multiplicative."""
        mt = group.cayley_table
        gens = [group.index(g) for g, _ in self.assignments]
        tree, products = closure_tree(group.identity_index, gens, lambda x, g: mt[x][g])
        values: Dict[int, QI] = {}
        for y, (x, j) in tree.items():
            values[y] = QI(1) if x is None else values[x] * self.assignments[j][1]
        for x, row in zip(tree, products):
            for y, (_, val) in zip(row, self.assignments):
                if values[y] != values[x] * val:
                    raise ValueError("central character is not multiplicative")
        return values


def irreps_with_central_character(
    group: FiniteMatrixGroup,
    z_elements: Sequence[Element],
    zeta: CentralCharacter,
    table: Optional[CharacterTable] = None,
) -> List[CharacterRow]:
    """Rows of the character table whose restriction to Z is zeta-isotypic."""
    zset = set(z_elements)
    for z in zset:
        if z not in group:
            raise ValueError("designated subgroup is not inside the group")
        if not group._central(group.index(z)):
            raise ValueError("designated subgroup is not central")
    for g, _ in zeta.assignments:
        if g not in zset:
            raise ValueError("central character generator lies outside the designated subgroup")
    values = zeta.extend(group)
    if set(values) != {group.index(z) for z in zset}:
        raise ValueError("central character generators do not generate the subgroup")
    if table is None:
        table = group.character_table()
    return [
        row
        for row in table.rows
        if all(row.values[table.class_of[z]] == QI(row.degree) * val for z, val in values.items())
    ]
