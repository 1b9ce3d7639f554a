"""Finite matrix groups over Q(i): closure, classes, exact character tables.

Group elements are ``GaussianMatrix`` objects (Z[i] numerators over one
denominator, hashed as int tuples), block-diagonal for products such as
SL2 x SL2. A ``FiniteMatrixGroup`` is its sorted elements, its
integer Cayley table, the identity's position and the generators'
positions, and nothing else. Only ``generate_closure`` multiplies
matrices to make a group: the closure's products are the generators'
right action, and the table is filled along the closure's word tree by
lookups alone. Every group algorithm (inverses, orders, center,
classes, class sums, central characters, quotients by central subgroups)
reads that table, and the matrices stay as element labels. The center and
quotients call the constructor with a table induced from the parent's.

Character tables are computed by an exact Dixon-style method (Dixon, Numer.
Math. 10, 1967; Schneider, J. Symbolic Comput. 9, 1990): the class-sum
matrices are simultaneously diagonalized over a prime field F_p with p = 1
mod exponent, and the centre Z goes first. A central z permutes the classes
(K -> zK), so F_p^k splits into one block per character lambda of Z, read
off the Z-orbits of the classes with no solve: one vector sum lambda(z)^-1
e_zK per orbit whose stabilizer lambda kills. An abelian table is read off
whole, with no class-sum matrix. A block of dimension >= 2 is split by the
class sums of one class per noncentral orbit, kept as sparse rows (row t of
M_K has at most |K| nonzero entries) and built only where a split reads
them. Every space of the split is a basis in reduced echelon form, so a
class-sum matrix restricts to it by reading its images at the pivot columns.
Each space is split at the roots of the restricted matrix's characteristic
polynomial mod p (Hessenberg form and its recurrence, evaluated at every
residue): one solve per eigenvalue, each of which must give a line, and
together the eigenspaces must fill the space. The common eigenline of chi is
chi(g^-1) / chi(1) at the class of g, so a value chi(g) = a + b i is lifted
from the conjugate pair chi_p(g), chi_p(g^-1): a and b are the centred
residues of their half sum and of their half difference over a square root
of -1 mod p (or over 1 when p = 3 mod 4, since then the exponent divides 2
and every value is an integer), exact as |a|, |b| <= chi(1) < p/2. Every
table, up to the 512 cap, is then checked on integers by ``_validate_table``,
which is independent of the class-sum matrices: the classes are certified
from the Cayley table; each row must be a character of Z times itself under
the central generators (chi(zK) = lambda(z) chi(K)); and on each central
block both orthogonality relations must hold, over the Z-orbits, and each
row must pass the regular-representation cross-check (the projection built
from the row must be idempotent), summed over the cosets of Z. The
docstring of ``_validate_table`` proves that these block checks are the full
relations.

The mod-p eigen-split runs on the same Gauss-Jordan routine as the Q(i)
solves (``gaussian.gauss_jordan``). Every closure and orbit of group
elements is the word tree built by ``closure_tree``: groups, parameter
images (plain 4x4 and 6x6 matrices, see ``centralizers``), central-character
values, conjugacy classes and the cyclic subgroups of ``abelian_invariants``.
The centre is the exception: ``_central_generators`` builds it from the
powers of one new generator at a time, so that each element has exactly one
word. A class is its elements' order and positions. The reflection closure
of a root datum stays separate (``root_datum``): it starts from every simple
root, carries the Cartan pairings, and refuses with ``ValueError`` where
``closure_tree`` raises ``NotFiniteError``.
"""
from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import isqrt, lcm
from operator import mul
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .gaussian import QI, GaussianMatrix, gauss_jordan, nullspace, sorted_matrices
from .lattice import AbelianGroupStructure


class NotFiniteError(RuntimeError):
    """Closure generation exceeded the configured cap."""


class CapExceededError(RuntimeError):
    """Input is larger than the supported size for this operation."""


class FieldInsufficientError(RuntimeError):
    """Exact values would leave Q(i); refusing to approximate."""


GROUP_ID_MAX_ORDER = 64  # the largest order ``group_id`` will identify


class FiniteMatrixGroup:
    """A finite group of matrices given by its integer Cayley table.

    ``cayley_table[a][b]`` is the position of elements[a] * elements[b];
    ``identity_index`` and ``generator_index`` are positions too. The
    elements are in their entries' (re, im) order (``generate_closure`` sorts
    them with ``sorted_matrices``, exactly across denominators, and centers
    and quotients keep their parent's order), so positions compare like
    keys. Every group algorithm reads the table; the matrices are labels.
    """

    def __init__(
        self,
        elements: Iterable[GaussianMatrix],
        cayley_table: Sequence[Tuple[int, ...]],
        identity_index: int,
        generator_index: Iterable[int],
    ):
        self.elements: Tuple[GaussianMatrix, ...] = tuple(elements)
        self.cayley_table = cayley_table
        self.identity_index = identity_index
        self.generator_index: Tuple[int, ...] = tuple(generator_index)
        self._cache: Dict[str, object] = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _positions(self) -> Dict[GaussianMatrix, int]:
        return {x: i for i, x in enumerate(self.elements)}

    def __contains__(self, x: GaussianMatrix) -> bool:
        return x in self._positions

    def index(self, x: GaussianMatrix) -> int:
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

    def quotient(self, z_elements: Iterable[GaussianMatrix]) -> "FiniteMatrixGroup":
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


def generate_closure(generators: Sequence[GaussianMatrix], cap: int = 512) -> FiniteMatrixGroup:
    """Close a generating set under multiplication; error beyond ``cap``.

    The only group builder that multiplies matrices. The closure's products
    x * g are the generators' right action on the sorted elements, and the
    table is filled column by column along the closure's word tree: if
    b = c * g then a * b = (a * c) * g, one lookup.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("no generators")
    if not all(g.det() for g in gens):
        raise ValueError("generators must be invertible")
    identity = GaussianMatrix.identity(gens[0].n)
    tree, products = closure_tree(identity, gens, mul, cap, f"not finite within cap {cap}")
    elements = sorted_matrices(tree)
    n = len(elements)
    pos = {x: i for i, x in enumerate(elements)}
    image = dict(zip(tree, products))
    action = list(zip(*([pos[y] for y in image[x]] for x in elements)))
    cols: Dict[int, Sequence[int]] = {}
    for y, (x, j) in tree.items():
        cols[pos[y]] = range(n) if x is None else [action[j][a] for a in cols[pos[x]]]
    table = list(zip(*(cols[b] for b in range(n))))
    return FiniteMatrixGroup(elements, table, pos[identity], (pos[g] for g in gens))


def closure_tree(
    identity: Hashable,
    generators: Sequence[Hashable],
    mul: Callable[[Hashable, Hashable], Hashable],
    cap: Optional[int] = None,
    cap_message: str = "",
) -> Tuple[Dict[Hashable, Tuple[Optional[Hashable], Optional[int]]], List[List[Hashable]]]:
    """Breadth-first word tree of the monoid generated from ``identity``.

    Returns ``(tree, products)``. ``tree`` maps each element y to (x, j)
    with y = mul(x, generators[j]), in discovery order; the identity maps
    to (None, None). ``products[i][j]`` is mul(x, generators[j]) for the
    i-th element x of ``tree``. Raises ``NotFiniteError(cap_message)`` once
    more than ``cap`` elements appear.
    """
    tree: Dict[Hashable, Tuple[Optional[Hashable], Optional[int]]] = {identity: (None, None)}
    products: List[List[Hashable]] = []
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


class ConjClass:
    """A conjugacy class: its elements' order and their positions, sorted."""

    __slots__ = ("order", "positions")

    def __init__(self, order: int, positions: Tuple[int, ...]):
        self.order = order
        self.positions = positions

    @property
    def size(self) -> int:
        return len(self.positions)


def _conjugacy_classes(group: FiniteMatrixGroup) -> Tuple[ConjClass, ...]:
    """Each class is the orbit of its first element under conjugation by the
    generators, y -> g^-1 y g, as the keys of one ``closure_tree``."""
    mt, inv, orders = group.cayley_table, group.inverse_index, group.element_orders

    def conj(y: int, g: int) -> int:
        return mt[inv[g]][mt[y][g]]

    seen = [False] * group.order
    orbits = []
    for x in range(group.order):
        if not seen[x]:
            orbit = sorted(closure_tree(x, group.generator_index, conj)[0])
            for y in orbit:
                seen[y] = True
            orbits.append(orbit)
    orbits.sort(key=lambda m: (orders[m[0]], len(m), m[0]))
    return tuple(ConjClass(orders[m[0]], tuple(m)) for m in orbits)


def abelian_invariants(group: FiniteMatrixGroup) -> AbelianGroupStructure:
    """Invariant factors of a finite abelian group, by peeling maximal orders."""
    if not group.is_abelian():
        raise ValueError("abelian_invariants needs an abelian group")
    peeled: List[int] = []
    while group.order > 1:
        orders, mt = group.element_orders, group.cayley_table
        best = max(orders)
        g = orders.index(best)
        powers = closure_tree(group.identity_index, (g,), lambda x, y: mt[x][y])[0]
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


class CharacterRow:
    __slots__ = ("degree", "values")

    def __init__(self, degree: int, values: Tuple[QI, ...]):
        self.degree = degree
        self.values = values

    def sort_key(self):
        # the values are Gaussian integers (d == 1), ordered as (re, im)
        return (self.degree, tuple((v.a, v.b) for v in self.values))


class CharacterTable:
    __slots__ = ("group", "classes", "rows", "class_of")

    def __init__(
        self,
        group: FiniteMatrixGroup,
        classes: Tuple[ConjClass, ...],
        rows: Tuple[CharacterRow, ...],
        class_of: Tuple[int, ...],  # class index of every element position
    ):
        self.group = group
        self.classes = classes
        self.rows = rows
        self.class_of = class_of


# Miller-Rabin on these bases is exact below psi_13 (Sorenson-Webster, Math. Comp. 2017)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin. A witness proves n composite at any size; an
    n >= ``PRIME_TEST_BOUND`` that passes every base raises CapExceededError."""
    if n < 2 or any(n % q == 0 for q in PRIME_BASES):
        return n in PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # the power of 2 in n - 1
    d = (n - 1) >> s
    for a in PRIME_BASES:
        x = pow(a, d, n)  # a is a witness unless x = 1 or some x^(2^r), r < s, is n - 1
        if x not in (1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    if n >= PRIME_TEST_BOUND:
        raise CapExceededError(
            f"primality of {n} is undecided: the test is exact only below {PRIME_TEST_BOUND}"
        )
    return True


def _choose_prime(exponent: int, order: int) -> int:
    p = 2 * isqrt(order) + 2
    while True:
        if is_prime(p) and (p - 1) % exponent == 0:
            return p
        p += 1


def _charpoly(a: Sequence[Sequence[int]], p: int) -> List[int]:
    """det(x I - a) mod p for a square matrix ``a``, coefficients from x^0 up.

    ``a`` is brought to upper Hessenberg form h by elementary similarities,
    then det(x I - h) follows from the recurrence along its subdiagonal
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9).
    """
    m = len(a)
    h = [[x % p for x in row] for row in a]
    for c in range(m - 2):
        r = next((r for r in range(c + 1, m) if h[r][c]), None)
        if r is None:
            continue
        if r != c + 1:  # swap rows and then columns r and c + 1
            h[r], h[c + 1] = h[c + 1], h[r]
            for row in h:
                row[r], row[c + 1] = row[c + 1], row[r]
        t = pow(h[c + 1][c], p - 2, p)
        pivot = h[c + 1]
        for r in range(c + 2, m):
            u = h[r][c] * t % p
            if u:  # row r -= u * row c + 1, then column c + 1 += u * column r
                h[r] = [(x - u * y) % p for x, y in zip(h[r], pivot)]
                for row in h:
                    row[c + 1] = (row[c + 1] + u * row[r]) % p
    # polys[j] = det(x I - h[:j, :j]); the last row of each step expands
    # through the chain of subdiagonal entries above it
    polys: List[List[int]] = [[1]]
    for j in range(m):
        new = [0] + polys[j]
        for d, q in enumerate(polys[j]):
            new[d] -= h[j][j] * q
        chain = 1
        for i in range(1, j + 1):
            chain = chain * h[j - i + 1][j - i] % p
            coef = h[j - i][j] * chain % p
            if coef:
                for d, q in enumerate(polys[j - i]):
                    new[d] -= coef * q
        polys.append([q % p for q in new])
    return polys[m]


def _horner(poly: Sequence[int], x: int, p: int) -> int:
    """The value mod p of the polynomial with coefficients ``poly`` (x^0 up) at x."""
    value = 0
    for c in reversed(poly):
        value = (value * x + c) % p
    return value


def _central_generators(
    group: FiniteMatrixGroup, classes: Sequence[ConjClass]
) -> Tuple[List[int], List[Tuple[int, Tuple[int, ...]]], Dict[int, Tuple[int, ...]]]:
    """Generators g_1, g_2, ... of the subgroup Z' that the classes of size 1 generate.

    Each g_j is the first of them outside H = <g_1, ..., g_(j-1)>, and m_j is
    its least power in H, so every element of Z' is g_1^a_1 ... g_r^a_r for
    exactly one exponent word with 0 <= a_j < m_j. Returns the generators, the
    relations (m_j, word of g_j^m_j over the generators before it) and the
    word of every element of Z', keyed by position.
    """
    mt, e = group.cayley_table, group.identity_index
    words: Dict[int, Tuple[int, ...]] = {e: ()}
    gens: List[int] = []
    relations: List[Tuple[int, Tuple[int, ...]]] = []
    for z in (c.positions[0] for c in classes if c.size == 1):
        if z in words:
            continue
        powers, y = [e], z
        while y not in words:
            powers.append(y)
            y = mt[y][z]
        relations.append((len(powers), words[y]))
        words = {mt[h][w]: a + (j,) for h, a in words.items() for j, w in enumerate(powers)}
        gens.append(z)
    return gens, relations, words


def _central_orbits(
    group: FiniteMatrixGroup, class_of: Sequence[int], reps: Sequence[int], zs: Iterable[int]
) -> List[Tuple[int, Dict[int, int], List[int]]]:
    """The orbits K -> zK of the classes under the central subgroup ``zs``.

    Each orbit is its least class K_0, the map from its classes K to an
    element z with zK_0 = K, and the stabilizer of K_0, in the order of K_0.
    """
    mt, zs = group.cayley_table, list(zs)
    orbits: List[Tuple[int, Dict[int, int], List[int]]] = []
    seen = set()
    for c, r in enumerate(reps):
        if c not in seen:
            members: Dict[int, int] = {}
            for z in zs:
                members.setdefault(class_of[mt[z][r]], z)
            seen.update(members)
            orbits.append((c, members, [z for z in zs if class_of[mt[z][r]] == c]))
    return orbits


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
    p = _choose_prime(e, n)

    def inverse(x: int) -> int:
        return pow(x, p - 2, p)

    def reduce(row: List[int]) -> List[int]:
        return [x % p for x in row]

    # i^t mod p; when p = 3 mod 4 the exponent divides 2 and only t = 0, 2 occur
    iota = next((r for r in range(p) if r * r % p == p - 1), 1)
    turns = (1, iota, p - 1, p - iota)

    # row t of the class-sum matrix M_i counts the x in K_i by the class of
    # x^-1 z_t: at most |K_i| nonzero entries, kept as (column, count) pairs,
    # and built only for the rows that a split reads
    m_rows: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {}

    def class_sum_row(i: int, t: int) -> Tuple[Tuple[int, int], ...]:
        if (i, t) not in m_rows:
            counts = Counter(class_of[mt[inv[x]][reps[t]]] for x in classes[i].positions)
            m_rows[i, t] = tuple(counts.items())
        return m_rows[i, t]

    # the eigenvector of chi is v_t = chi(g_t^-1) / chi(1). A central z maps
    # the classes K -> zK and v_zK = lambda(z)^-1 v_K, with lambda the
    # character of Z under chi, so F_p^k splits into one block per lambda,
    # spanned by b_O = sum lambda(z)^-1 e_zK0 over each orbit O = Z K0 whose
    # stabilizer lambda kills. b_O is 1 at its least class and the orbits are
    # disjoint, so a block in these coordinates is a reduced echelon basis.
    _, relations, words = _central_generators(group, classes)
    orbits = _central_orbits(group, class_of, reps, words)
    orbit_of = [0] * k
    for o, (_, members, _) in enumerate(orbits):
        for c in members:
            orbit_of[c] = o
    # the central class sums act on a block as scalars and M_zK as lambda(z) M_K:
    # only the least class of each noncentral orbit splits
    splitters = [c for c, _, _ in orbits if sizes[c] > 1]
    chars: List[Tuple[int, ...]] = [()]  # lambda(g_j) = i^t_j, with m_j t_j = lambda(g_j^m_j)
    for m, word in relations:
        chars = [t + (s,) for t in chars for s in range(4) if (m * s - sum(map(mul, word, t))) % 4 == 0]

    lines = []
    for t in chars:
        lam = {z: sum(map(mul, word, t)) % 4 for z, word in words.items()}  # lambda(z) = i^lam[z]
        block = [o for o, (_, _, stab) in enumerate(orbits) if not any(lam[z] for z in stab)]
        at = {o: b for b, o in enumerate(block)}
        coef = {c: turns[-lam[z] % 4] for o in block for c, z in orbits[o][1].items()}
        d = len(block)
        # split the block into common eigenlines of the class-sum matrices; each
        # space is a reduced echelon basis with its pivot columns, so the
        # coordinates of a vector of the space are its entries at the pivots
        spaces = [([[1 if a == b else 0 for b in range(d)] for a in range(d)], list(range(d)))]
        for i in splitters:
            if all(len(basis) == 1 for basis, _ in spaces):
                break
            # M_i on the block: row a holds M_i b_O at the least class of block[a]
            m_i = []
            for o in block:
                row: Dict[int, int] = {}
                for c, count in class_sum_row(i, orbits[o][0]):
                    if c in coef:
                        b = at[orbit_of[c]]
                        row[b] = row.get(b, 0) + count * coef[c]
                m_i.append(row.items())
            fresh = []
            for basis, pivots in spaces:
                mdim = len(basis)
                if mdim == 1:
                    fresh.append((basis, pivots))
                    continue
                # the restriction of M_i: column b holds the coordinates of M_i * basis[b];
                # it is diagonalizable, so its eigenvalues are the roots of its
                # characteristic polynomial and their eigenspaces fill the basis
                rmat = [[sum(x * vec[b] for b, x in m_i[c]) % p for vec in basis] for c in pivots]
                cp = _charpoly(rmat, p)
                found = 0
                for root in range(p):
                    if _horner(cp, root, p):
                        continue
                    shifted = [
                        [(rmat[a][b] - (root if a == b else 0)) % p for b in range(mdim)]
                        for a in range(mdim)
                    ]
                    null = nullspace(shifted, mdim, inverse, 1, reduce)
                    if not null:
                        raise AssertionError(
                            "a root of a class-sum matrix's characteristic polynomial has no eigenline"
                        )
                    sub = []
                    for x in null:  # the combination x of the basis, over its nonzero terms
                        vec = [0] * d
                        for scalar, w in zip(x, basis):
                            if scalar:
                                vec = [u + scalar * y for u, y in zip(vec, w)]
                        sub.append(vec)
                    fresh.append(gauss_jordan(sub, d, inverse, reduce))
                    found += len(null)
                if found != mdim:
                    raise AssertionError("the eigenspaces of a class-sum matrix do not fill its space")
            spaces = fresh
        for basis, _ in spaces:
            if len(basis) != 1:
                raise AssertionError("class-sum matrices failed to split to lines")
            line = basis[0]
            lines.append([line[at[orbit_of[c]]] * coef[c] % p if c in coef else 0 for c in range(k)])

    # chi(g^-1) is the conjugate of chi(g) = a + b i, and |a|, |b| <= chi(1) < p/2:
    # a and b are read from chi_p(g) +- chi_p(g^-1), with iota^2 = -1 mod p when
    # p = 1 mod 4; otherwise e divides 2, the values are integers and iota = 1
    half, half_iota = inverse(2), inverse(2 * iota)

    def centred(x: int) -> int:
        x %= p
        return x - p if 2 * x > p else x

    rows = []
    for v in lines:
        # the line is 1 at the identity's class, so chi_p(g_t) = chi(1) v at g_t^-1
        s = sum(size * x * v[j] for size, x, j in zip(sizes, v, inv_class))
        d2 = n * inverse(s % p) % p
        deg = next((d for d in range(1, isqrt(n) + 1) if d * d % p == d2), None)
        if deg is None:
            raise AssertionError("no degree matches the mod-p data")
        values = []
        for x, y in zip(v, inv_class):  # chi_p(g) = deg v[class of g^-1], chi_p(g^-1) = deg x
            a, b = centred(deg * (v[y] + x) * half), centred(deg * (v[y] - x) * half_iota)
            if abs(a) > deg or abs(b) > deg:
                raise AssertionError("character value lift out of range")
            values.append(QI(a, b))
        rows.append(CharacterRow(deg, tuple(values)))

    rows.sort(key=lambda r: r.sort_key())
    table = CharacterTable(group, classes, tuple(rows), tuple(class_of))
    _validate_table(table)
    return table


def _zi_dot(ure, uim, vre, vim) -> Tuple[int, int]:
    """(re, im) of the sum of u_t * v_t over Z[i], u and v given by their int parts;
    an imaginary part that is all zero is multiplied by nothing."""
    re, im = sum(map(mul, ure, vre)), 0
    if any(uim):
        re -= sum(map(mul, uim, vim))
        im += sum(map(mul, uim, vre))
    if any(vim):
        im += sum(map(mul, ure, vim))
    return re, im


def _validate_table(table: CharacterTable) -> None:
    """Check a character table on integers, independently of the eigen-split.

    The classes are certified first: ``class_of`` is closed under conjugation
    by the generators, and |K| * |C_G(rep)| = |G| for each class K. Then come
    the counts and degrees. The rest runs on central blocks. Z' is the
    subgroup generated by central elements g_1, ..., g_r (taken from the
    classes of size 1); it permutes the classes by K -> zK, and each orbit O
    is read at its least class K_O, with stabilizer S_O. Each step below,
    together with the steps before it, is equivalent to the full relation.

    1. Certificate: for each row chi and generator g_j, chi(g_j) = u_j chi(1)
       for a unit u_j of Z[i], and chi(g_j K) = u_j chi(K) for every class K.
       Then chi(zK) = lambda(z) chi(K) for all z in Z', where lambda is a
       character of Z' because chi is nonzero (step 3). Rows fall into blocks
       by (u_1, ..., u_r), one block per character.
    2. The blocks number |Z'|, so every character of Z' is one, and the
       orbits U where some row of a block is nonzero number k over all
       blocks. A row nonzero at K_O has lambda(s) = 1 on S_O (sK_O = K_O),
       and over all lambda the orbits whose stabilizer lambda kills number
       sum |Z'/S_O| = sum |O| = k: so each U is exactly its block's orbits
       with stabilizer killed, and the rows vanish on every other orbit.
    3. Row orthogonality within each block, over U with weights |O| |K_O|:
       chi conj psi is constant on an orbit when chi and psi share lambda.
       Rows in different blocks differ at some u_j, and <chi, psi> = sum |K|
       chi(K) conj psi(K) is unchanged by K -> g_j K, so it equals u_j conj
       u'_j <chi, psi> with u_j conj u'_j != 1: it is 0 with nothing to sum.
    4. Column orthogonality within each block, over pairs of U: C_lambda(O, Q)
       = sum over the block of chi(K_O) conj chi(K_Q) = n / (|O| |K_O|) if
       O = Q, else 0. The rows of the block turn its sum at (zK_O, wK_Q)
       into lambda(z w^-1) C_lambda(O, Q), so the full relation reads: for
       every z in Z', sum over lambda of lambda(z) C_lambda(O, Q) =
       (n / |K_O|) [zK_O = K_Q]. By Fourier inversion over the characters
       of Z', that holds iff C_lambda(O, Q) = (1 / |Z'|) sum over z of
       conj lambda(z) (n / |K_O|) [zK_O = K_Q], which is n / (|O| |K_O|)
       when O = Q and lambda kills S_O, and 0 otherwise; off U both are 0.
    5. The regular representation check T^2 = (|G|/chi(1)) T with T[u][v] =
       chi(g_v g_u^-1). T is a group matrix, so that is the convolution
       sum_x chi(x) chi(y x^-1) = (|G|/chi(1)) chi(y), a class function of y.
       Its summand is the same at zx as at x for z in Z' (lambda(z) times
       lambda(z)^-1), so the sum is |Z'| times the sum over a transversal of
       G/Z'. Both sides are multiplied by lambda(z) when y is, and vanish
       off U: one y per orbit of U is checked.
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

    gens, _, words = _central_generators(group, classes)
    orbits = [(c, len(members)) for c, members, _ in _central_orbits(group, class_of, reps, words)]
    one = class_of[group.identity_index]
    perms = [[class_of[mt[z][r]] for r in reps] for z in gens]
    blocks: Dict[Tuple[int, ...], List[int]] = {}
    for a, (re, im) in enumerate(parts):
        nre, nim = [-x for x in re], [-x for x in im]
        turned = [(re, im), (nim, re), (nre, nim), (im, nre)]  # i^u times the row
        units = []
        for perm in perms:
            z = perm[one]  # the class of g_j
            u = next((u for u, (tre, tim) in enumerate(turned) if (tre[one], tim[one]) == (re[z], im[z])), 0)
            if ([re[c] for c in perm], [im[c] for c in perm]) != turned[u]:
                raise AssertionError("a row is not a central character times itself")
            units.append(u)
        blocks.setdefault(tuple(units), []).append(a)
    supports = [
        [(c, size) for c, size in orbits if any(parts[a][0][c] or parts[a][1][c] for a in members)]
        for members in blocks.values()
    ]
    if len(blocks) != len(words) or sum(map(len, supports)) != len(classes):
        raise AssertionError("the rows' central blocks do not match the centre's characters")
    transversal, seen = [], [False] * n
    for x in range(n):
        if not seen[x]:
            transversal.append(x)
            for z in words:
                seen[mt[z][x]] = True
    x_class = [class_of[x] for x in transversal]
    yx = {c: [class_of[mt[reps[c]][inv[x]]] for x in transversal] for c, _ in orbits}
    for members, support in zip(blocks.values(), supports):
        weights = [size * sizes[c] for c, size in support]
        at = [c for c, _ in support]
        block = [([re[c] for c in at], [im[c] for c in at]) for re, im in (parts[a] for a in members)]
        conj = [(re, [-x for x in im]) for re, im in block]
        for a, (are, aim) in enumerate(block):
            wre = [s * x for s, x in zip(weights, are)]
            wim = [s * x for s, x in zip(weights, aim)]
            for b, (bre, bim) in enumerate(conj):
                if _zi_dot(wre, wim, bre, bim) != (n if a == b else 0, 0):
                    raise AssertionError("row orthogonality fails")
        cols = [([re[i] for re, _ in block], [im[i] for _, im in block]) for i in range(len(support))]
        conj = [(re, [-x for x in im]) for re, im in cols]
        for i, (ire, iim) in enumerate(cols):
            for j, (jre, jim) in enumerate(conj):
                dre, dim = _zi_dot(ire, iim, jre, jim)
                if (weights[i] * dre, dim) != (n if i == j else 0, 0):
                    raise AssertionError("column orthogonality fails")
        for a in members:
            re, im = parts[a]
            scale = n // rows[a].degree
            fre = [re[c] for c in x_class]
            fim = [im[c] for c in x_class]
            for c in at:
                cre, cim = _zi_dot(fre, fim, [re[y] for y in yx[c]], [im[y] for y in yx[c]])
                if (len(words) * cre, len(words) * cim) != (scale * re[c], scale * im[c]):
                    raise AssertionError("regular representation cross-check fails")


class CentralCharacter:
    """A character of a designated central subgroup, given on generators."""

    __slots__ = ("assignments",)

    def __init__(self, assignments: Tuple[Tuple[GaussianMatrix, QI], ...]):
        self.assignments = assignments

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
    z_elements: Sequence[GaussianMatrix],
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
