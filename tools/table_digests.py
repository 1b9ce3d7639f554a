"""Record character-table row digests, for diffing two checkouts (stdlib only; not part of Tier-1).

Builds a seeded sweep of finite matrix groups and writes one JSON object:
each group's name maps to its order, its class count and the sha256 of its
table's rows (one line per row, values as ``format_qi`` prints them), or to
the refusal that the table raised. The sweep:

- seeded draws of two to four block-diagonal generators, one to three
  2x2 blocks each, every block monomial with entries in {1, -1, i, -i}
  and most of them of determinant +-1;
  a draw is skipped when its closure passes 128 elements or repeats an
  earlier group, and drawing stops at ``COUNT`` tables, from the fixed
  ``SEED`` (the draws whose exponent does not divide 4 are recorded with
  their refusal on the way);
- the large tables: Q8^3, Q8^2 x D4, Q8^2 x (Z/2)^3 and (Z/4)^4 x Z/2 at
  the order-512 cap, and (Z/4)^3 and (Z/4)^4 below it.

Record each side with its own ``src/`` and compare the two files:

    python tools/table_digests.py /tmp/new.json
    python tools/table_digests.py /tmp/old.json --src ../parent/src
    diff /tmp/old.json /tmp/new.json

The seconds each large table took (closure and table) are printed to stderr;
at the parent of the central-block split, (Z/4)^4 x Z/2 alone took about
two minutes.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SEED = 2026
COUNT = 100  # tables of order <= 128

UNITS = ("1", "-1", "i", "-i")
NEGATED = {"1": "-1", "-1": "1", "i": "-i", "-i": "i"}
Block = Tuple[bool, str, str]  # (antidiagonal?, first nonzero entry, second nonzero entry)


def block_strings(block: Block) -> List[List[str]]:
    anti, u, v = block
    return [["0", u], [v, "0"]] if anti else [[u, "0"], ["0", v]]


def block_name(block: Block) -> str:
    anti, u, v = block
    return f"{'a' if anti else 'd'}({u},{v})"


def draw_block(rng: random.Random) -> Block:
    """A monomial block; three in four have determinant +-1 (second entry +-u
    for first entry u), and generators with only such blocks make groups of
    exponent dividing 4, whose tables stay in Z[i]."""
    u = rng.choice(UNITS)
    v = rng.choice(UNITS) if rng.random() < 0.25 else rng.choice((u, NEGATED[u]))
    return rng.random() < 0.5, u, v


def draw(rng: random.Random) -> Tuple[str, List[List[Block]]]:
    """One seeded generating set, named by its generators' blocks."""
    blocks = rng.randint(1, 3)
    gens = [[draw_block(rng) for _ in range(blocks)] for _ in range(rng.randint(2, 4))]
    return " ; ".join(" + ".join(block_name(b) for b in g) for g in gens), gens


def large() -> List[Tuple[str, List[List[Block]]]]:
    a, b = (False, "i", "-i"), (True, "1", "-1")  # Q8
    x, one = (False, "1", "-1"), (False, "1", "1")  # with b, D4
    z4, z4_ = (False, "i", "1"), (False, "1", "i")  # two independent Z/4

    def embed(block: Block, at: int, slots: int = 3) -> List[Block]:
        return [block if k == at else one for k in range(slots)]

    q8_q8 = [embed(g, k, 4) for k in range(2) for g in (a, b)]
    z4_pairs = [embed(g, k) for k in range(2) for g in (z4, z4_)]
    return [
        ("Q8^3", [embed(g, k) for k in range(3) for g in (a, b)]),
        ("Q8^2 x D4", [embed(g, k) for k in range(2) for g in (a, b)] + [embed(b, 2), embed(x, 2)]),
        ("Q8^2 x (Z/2)^3", q8_q8 + [embed(x, 2, 4), embed((False, "-1", "1"), 2, 4), embed(x, 3, 4)]),
        ("(Z/4)^3", z4_pairs[:3]),
        ("(Z/4)^4", z4_pairs),
        ("(Z/4)^4 x Z/2", z4_pairs + [embed(x, 2)]),
    ]


def record(src: Path) -> Dict[str, dict]:
    sys.path.insert(0, str(src))
    from gspinlab.finite_groups import NotFiniteError, generate_closure
    from gspinlab.gaussian import GaussianMatrix, format_qi

    def matrix(blocks: List[Block]) -> GaussianMatrix:
        return GaussianMatrix.block_diagonal(*(GaussianMatrix.from_strings(block_strings(b)) for b in blocks))

    def entry(group) -> dict:
        try:
            table = group.character_table()
        except (AssertionError, RuntimeError) as exc:
            return {"order": group.order, "refused": f"{type(exc).__name__}: {exc}"}
        text = "\n".join(" ".join(format_qi(v) for v in row.values) for row in table.rows)
        rows = hashlib.sha256(text.encode()).hexdigest()
        return {"order": group.order, "classes": len(table.classes), "rows": rows}

    out: Dict[str, dict] = {}
    seen = set()
    rng = random.Random(SEED)
    for _ in range(20 * COUNT):
        if sum("rows" in v for v in out.values()) == COUNT:
            break
        name, gens = draw(rng)
        try:
            group = generate_closure([matrix(g) for g in gens], cap=128)
        except NotFiniteError:
            continue
        if frozenset(group.elements) not in seen:
            seen.add(frozenset(group.elements))
            out[name] = entry(group)
    for name, gens in large():
        start = time.perf_counter()
        out[name] = entry(generate_closure([matrix(g) for g in gens]))
        print(f"{name}: {time.perf_counter() - start:.2f} s", file=sys.stderr)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ to import gspinlab from")
    args = parser.parse_args()
    out = record(args.src.resolve())
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    tables = sum("rows" in v for v in out.values())
    print(f"{len(out)} groups: {tables} tables, {len(out) - tables} refusals -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
