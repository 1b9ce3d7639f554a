"""Element-order guard: Cayley tables of the shipped groups against stored digests.

Positions in a ``FiniteMatrixGroup`` follow the sorted order of its
elements, and the classes, character tables and packet counts are read off
those positions. Each digest covers the rows of ``cayley_table``, then
``identity_index`` and ``generator_index``, so it moves as soon as any
element changes its place. The goldens are read, never written.
"""
import hashlib
import json
from pathlib import Path

import pytest

from gspinlab import presets
from gspinlab.centralizers import s_groups
from gspinlab.finite_groups import generate_closure
from gspinlab.gaussian import QI, GaussianMatrix
from gspinlab.packets import canonical_group_for_label

GOLDENS = json.loads(
    (Path(__file__).resolve().parent / "goldens" / "cayley_tables.json").read_text(encoding="utf-8")
)["groups"]

A = GaussianMatrix.from_strings([["i", "0"], ["0", "-i"]])
B = GaussianMatrix.from_strings([["0", "1"], ["-1", "0"]])
I2 = GaussianMatrix.identity(2)
NEG = I2.scale(QI(-1))

CANONICAL_LABELS = (
    "(Z/2)^2",
    "(Z/2)^3",
    "abelian order 8",
    "abelian order 16 (invariant factors 4,4)",
    "Q8 x Z/2",
)


product = GaussianMatrix.block_diagonal  # SL2 x ... x SL2, one block per factor

PRODUCT_GENERATORS = {
    16: [product(A, A), product(B, B), product(I2, NEG)],  # Q8 x Z/2
    64: [product(A, I2), product(I2, A), product(B, I2), product(I2, B)],  # Q8 x Q8
    128: [  # Q8 x Q8 x Z/2
        product(A, I2, I2),
        product(I2, A, I2),
        product(B, I2, I2),
        product(I2, B, I2),
        product(I2, I2, NEG),
    ],
}


def _gso4_witnesses():
    return [
        w
        for w in presets.witness_names()
        if presets.witness(w).get("kind") == "parameter" and presets.witness(w)["ambient"] == "GSO4"
    ]


def table_digest(group) -> str:
    lines = [" ".join(map(str, row)) for row in group.cayley_table]
    lines.append(str(group.identity_index))
    lines.append(" ".join(map(str, group.generator_index)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def build(name: str):
    kind, _, key = name.partition(" ")
    if kind == "s_phi_sc":
        return s_groups(presets.witness_parameter(key)).s_phi_sc
    if kind == "canonical":
        return canonical_group_for_label(key, "GSpin4")
    return generate_closure(PRODUCT_GENERATORS[int(key)])


def test_goldens_cover_the_pinned_groups():
    names = (
        [f"s_phi_sc {w}" for w in _gso4_witnesses()]
        + [f"canonical {label}" for label in CANONICAL_LABELS]
        + [f"product_table {order}" for order in sorted(PRODUCT_GENERATORS)]
    )
    assert sorted(GOLDENS) == sorted(names)
    assert len(names) == 11


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_cayley_table_matches_golden(name):
    group = build(name)
    assert (group.order, table_digest(group)) == (
        GOLDENS[name]["order"],
        GOLDENS[name]["sha256"],
    )
