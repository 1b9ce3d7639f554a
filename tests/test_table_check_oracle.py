"""The central-block table check against the full one it replaced.

``oracle_validate_table`` is ``finite_groups._validate_table`` as it was before
the checks ran on central blocks: both orthogonality relations over every pair
and the regular-representation convolution over the whole group at every
class. On a seeded sweep of groups drawn the way ``tools/table_digests.py``
draws them, abelian and not, the two checks must pass the true table and
reject exactly the same corrupted ones.
"""
import functools
import importlib.util
import random
from operator import mul
from pathlib import Path

import pytest

from gspinlab import finite_groups
from gspinlab.finite_groups import CharacterRow, CharacterTable, ConjClass, NotFiniteError, generate_closure
from gspinlab.gaussian import QI, GaussianMatrix

ROOT = Path(__file__).resolve().parents[1]
GROUPS = 16  # 10 nonabelian and 6 abelian, of order <= 64


def _zi_dot(ure, uim, vre, vim):
    """(re, im) of the sum of u_t * v_t over Z[i], u and v given by their int parts."""
    return (
        sum(map(mul, ure, vre)) - sum(map(mul, uim, vim)),
        sum(map(mul, ure, vim)) + sum(map(mul, uim, vre)),
    )


def oracle_validate_table(table):
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


def _tool():
    spec = importlib.util.spec_from_file_location("table_digests", ROOT / "tools" / "table_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@functools.lru_cache(maxsize=None)
def sweep():
    """The first nonabelian and abelian draws of the digest sweep's seed whose
    tables stay in Z[i], each group once."""
    tool = _tool()
    rng = random.Random(tool.SEED)
    picked = {False: [], True: []}
    seen = set()
    while len(picked[False]) < 10 or len(picked[True]) < 6:
        name, gens = tool.draw(rng)
        mats = [
            GaussianMatrix.block_diagonal(*(GaussianMatrix.from_strings(tool.block_strings(b)) for b in g))
            for g in gens
        ]
        try:
            group = generate_closure(mats, cap=64)
        except NotFiniteError:
            continue
        kind = group.is_abelian()
        full = len(picked[kind]) == (6 if kind else 10)
        if full or frozenset(group.elements) in seen or 4 % group.exponent():
            continue
        seen.add(frozenset(group.elements))
        picked[kind].append((name, group))
    return picked[False] + picked[True]


def corrupted(table, rng):
    """(kind, table) for each corruption of the sweep; the kinds ending in
    '!' never leave a character table."""
    rows, k = table.rows, len(table.classes)

    def with_rows(new):
        return CharacterTable(table.group, table.classes, tuple(new), table.class_of)

    def replaced(a, values):
        new = list(rows)
        new[a] = CharacterRow(rows[a].degree, tuple(values))
        return new

    a, b = rng.sample(range(k), 2)
    c = rng.randrange(k)
    values = list(rows[a].values)
    values[c] = values[c] + rng.choice((QI(1), QI(0, 1), QI(-1), QI(0, -1)))
    yield "value changed!", with_rows(replaced(a, values))
    swapped = replaced(a, rows[b].values)
    swapped[b] = CharacterRow(rows[b].degree, rows[a].values)  # each row keeps its degree
    yield "rows swapped", with_rows(swapped)
    yield "row conjugated", with_rows(replaced(a, (QI(v.a, -v.b) for v in rows[a].values)))
    unit = rng.choice((QI(-1), QI(0, 1), QI(0, -1)))
    yield "row times a unit!", with_rows(replaced(a, (unit * v for v in rows[a].values)))
    i, j = sorted(rng.sample(range(k), 2))
    positions = tuple(sorted(table.classes[i].positions + table.classes[j].positions))
    merged = ConjClass(table.classes[i].order, positions)
    classes = table.classes[:i] + (merged,) + table.classes[i + 1 : j] + table.classes[j + 1 :]
    class_of = tuple(i if x == j else x - (x > j) for x in table.class_of)
    merged_rows = [CharacterRow(r.degree, r.values[:j] + r.values[j + 1 :]) for r in rows]
    yield "classes merged!", CharacterTable(table.group, classes, tuple(merged_rows), class_of)


def accepts(check, table):
    try:
        check(table)
    except AssertionError:
        return False
    return True


def test_sweep_reaches_both_kinds_of_group():
    groups = sweep()
    assert len(groups) == GROUPS
    assert [g.is_abelian() for _, g in groups] == [False] * 10 + [True] * 6
    assert max(g.order for _, g in groups) == 64


@pytest.mark.parametrize("index", range(GROUPS))
def test_block_check_rejects_what_the_full_check_rejects(index):
    name, group = sweep()[index]
    table = group.character_table()
    assert accepts(oracle_validate_table, table) and accepts(finite_groups._validate_table, table)
    rng = random.Random(f"{name} {index}")
    for _ in range(3):
        for kind, doctored in corrupted(table, rng):
            verdict = accepts(oracle_validate_table, doctored)
            assert accepts(finite_groups._validate_table, doctored) == verdict, (name, kind)
            if kind.endswith("!"):
                assert not verdict, (name, kind)
