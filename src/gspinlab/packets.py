"""Packet sizes, multiplicities, and character-stabilizer bookkeeping.

The classification rules for rank-four scenarios follow the trichotomy of
two-dimensional parameters (reducible cases, primitive, dihedral with one
or with three quadratic self-twists). A scenario determines the stabilizer
group I of twisting characters, the structure of the component-group
extension, and the packet size for each inner form via counts of
irreducible characters with a fixed central character.

Each family is one row of ``_FAMILIES``: its parameters' ambient, the
factors of the simply connected cover, whose center (mu_2 x mu_2 or mu_4) is
the designated central subgroup, and each inner form's Kottwitz character
on it (Hiraga-Saito, Mem. AMS 1013, 2012). ``scenario_report`` is the one
report path; it runs an optional witness, a parameter image, through
``centralizers`` once. The witness's S_phi must be isomorphic to I, and
where the rules fix the extension so must its S_phi_sc have that structure;
the non-abelian order-16 branch is only reported as possible until a
witness confirms it.
"""
from __future__ import annotations

import sys
from functools import lru_cache
from math import isqrt
from typing import Dict, List, Optional, Tuple

from .centralizers import CentralizerReport, ParameterImage, cover_center, s_groups
from .finite_groups import (
    CentralCharacter,
    FiniteMatrixGroup,
    abelian_invariants,
    generate_closure,
    irreps_with_central_character,
    is_prime,
)
from .gaussian import QI, GaussianMatrix
from .lattice import AbelianGroupStructure

_ONE, _NEG = QI(1), QI(-1)
# family -> (ambient of its parameters, matrix sizes of the factors of the
# simply connected cover, each inner form's Kottwitz character as its values
# on the cover-center generators, split form first)
_FAMILIES: Dict[str, Tuple[str, Tuple[int, ...], Dict[str, Tuple[QI, ...]]]] = {
    "GSpin4": ("GSO4", (2, 2), {"split": (_ONE, _ONE), "2-1": (_ONE, _NEG), "1-1": (_NEG, _NEG)}),
    "GSpin6": ("GSO6", (4,), {"split": (_ONE,), "2-0": (_NEG,), "1-0": (QI(0, 1),)}),
}

# factor kind -> (rank of I^{SL_2}, irreducible?, number of named quadratic labels)
FACTOR_KINDS: Dict[str, Tuple[int, bool, int]] = {
    "reducible_generic": (0, False, 0),
    "reducible_two_constituents": (1, False, 1),
    "primitive_or_sl2_nontrivial": (0, True, 0),
    "dihedral_one": (1, True, 1),
    "dihedral_three": (2, True, 3),
}


class FactorSpec:
    __slots__ = ("kind", "labels")

    def __init__(self, kind: str, labels: Tuple[str, ...] = ()):
        if kind not in FACTOR_KINDS:
            raise ValueError(f"unknown factor kind {kind!r}")
        _, _, nlabels = FACTOR_KINDS[kind]
        if labels and len(labels) != nlabels:
            raise ValueError(f"kind {kind!r} carries {nlabels} named quadratic characters")
        if len(set(labels)) != len(labels):
            raise ValueError("repeated quadratic-character labels")
        self.kind = kind
        self.labels = labels

    @property
    def i_rank(self) -> int:
        return FACTOR_KINDS[self.kind][0]

    @property
    def irreducible(self) -> bool:
        return FACTOR_KINDS[self.kind][1]


class GSpin4Scenario:
    __slots__ = ("factor1", "factor2", "twist_equivalent", "p", "f", "witness")

    def __init__(
        self,
        factor1: FactorSpec,
        factor2: FactorSpec,
        twist_equivalent: bool,
        p: int,
        f: int = 1,
        witness: Optional[str] = None,
    ):
        if twist_equivalent:
            if factor1.kind != factor2.kind:
                raise ValueError("twist-equivalent factors must have the same parameter kind")
            if factor1.labels and factor2.labels and set(factor1.labels) != set(factor2.labels):
                raise ValueError(
                    "inconsistent labels: twist-equivalent factors with different "
                    "quadratic-character sets"
                )
        self.factor1 = factor1
        self.factor2 = factor2
        self.twist_equivalent = twist_equivalent
        self.p = p
        self.f = f
        self.witness = witness

    @property
    def reducible(self) -> bool:
        return not (self.factor1.irreducible and self.factor2.irreducible)


class GSpin6Scenario:
    __slots__ = ("i_sl4", "p", "f", "witness")

    def __init__(
        self, i_sl4: AbelianGroupStructure, p: int, f: int = 1, witness: Optional[str] = None
    ):
        self.i_sl4 = i_sl4
        self.p = p
        self.f = f
        self.witness = witness


def igroup_gspin4(s: GSpin4Scenario) -> AbelianGroupStructure:
    """The group of characters fixing the pair, an elementary 2-group."""
    if s.twist_equivalent:
        rank = s.factor1.i_rank
        return AbelianGroupStructure(0, (2,) * rank)
    for spec in (s.factor1, s.factor2):
        if spec.i_rank > 0 and not spec.labels:
            raise ValueError(
                "non-twist-equivalent intersection depends on the individual "
                "parameters; provide named quadratic-character sets"
            )
    common = set(s.factor1.labels) & set(s.factor2.labels)
    size = 1 + len(common)
    if size not in (1, 2, 4):
        raise ValueError(
            "quadratic-character sets must intersect in a subgroup "
            f"(got {len(common)} shared labels)"
        )
    return AbelianGroupStructure(0, (2,) * (size.bit_length() - 1))


def igroup_gspin6(s: GSpin6Scenario) -> AbelianGroupStructure:
    """Two-torsion subgroup of the rank-six stabilizer group."""
    if s.i_sl4.free_rank:
        raise ValueError("stabilizer group must be finite")
    return s.i_sl4.two_torsion()


# the order-16 extensions of rank four, both open for twist-equivalent dihedral_three factors
_GSPIN4_BRANCHES = ("abelian order 16 (invariant factors 4,4)", "Q8 x Z/2")


def sgroup_structure_gspin4(s: GSpin4Scenario, igroup: AbelianGroupStructure) -> str:
    """Label of the order-4|I| extension, per the rules; a witness decides the two-branch label."""
    if not igroup.is_elementary_two_group():
        raise ValueError("stabilizer group must be an elementary 2-group")
    n = igroup.torsion_order()
    if n == 1:
        return "(Z/2)^2"
    if n == 2:
        return "abelian order 8" if s.reducible else "(Z/2)^3"
    if n == 4:
        if s.reducible:
            raise ValueError("reducible factors cannot reach a stabilizer of order 4")
        q8 = s.twist_equivalent and s.factor1.kind == "dihedral_three"
        return " or ".join(_GSPIN4_BRANCHES) if q8 else _GSPIN4_BRANCHES[0]
    raise ValueError("stabilizer groups of order 8 or more do not occur in rank four")


# ---------------------------------------------------------------------------
# canonical matrix realizations for structure labels


_mat2 = GaussianMatrix.from_strings
_I2 = GaussianMatrix.identity(2)
_NEG_I2 = _I2.scale(QI(-1))
_A2 = _mat2([["i", "0"], ["0", "-i"]])
_B2 = _mat2([["0", "1"], ["-1", "0"]])
_X2 = _mat2([["1", "0"], ["0", "-1"]])

_CENTER_GENS = cover_center(_FAMILIES["GSpin4"][1])[1]  # diag(-1, 1) and diag(1, -1)
_diag = GaussianMatrix.block_diagonal

_CANONICAL_GSPIN4 = {
    "(Z/2)^2": _CENTER_GENS,
    "(Z/2)^3": _CENTER_GENS + (_diag(_X2, _X2),),
    "abelian order 8": _CENTER_GENS + (_diag(_X2, _X2),),
    "abelian order 16 (invariant factors 4,4)": (_diag(_A2, _I2), _diag(_I2, _A2)),
    "Q8 x Z/2": (_diag(_NEG_I2, _I2), _diag(_I2, _A2), _diag(_I2, _B2)),
}


@lru_cache(maxsize=None)
def canonical_group_for_label(label: str, family: str) -> FiniteMatrixGroup:
    """The canonical group of a structure label, built once per process, so its
    character table is computed once too; refusals are not cached."""
    if family != "GSpin4":
        raise ValueError("canonical realizations are provided for rank four only")
    key = label.strip()
    if key not in _CANONICAL_GSPIN4:
        raise ValueError(f"no canonical realization for structure {label!r}")
    return generate_closure(_CANONICAL_GSPIN4[key], cap=64)


def designated_center(family: str):
    """(elements, generators) of the designated central subgroup; refuses an unknown family."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return cover_center(_FAMILIES[family][1])


def kottwitz_characters(family: str) -> Dict[str, CentralCharacter]:
    """Each inner form's character of the designated center, split form first."""
    _, gens = designated_center(family)
    forms = _FAMILIES[family][2]
    return {form: CentralCharacter(tuple(zip(gens, v))) for form, v in forms.items()}


class PacketOutcome:
    __slots__ = ("structure", "confirmed", "sizes", "multiplicities", "degrees")

    def __init__(
        self,
        structure: str,
        confirmed: Optional[bool],
        sizes: Dict[str, Optional[int]],
        multiplicities: Dict[str, Optional[int]],
        degrees: Dict[str, Tuple[int, ...]],
    ):
        self.structure = structure
        self.confirmed = confirmed
        self.sizes = sizes
        self.multiplicities = multiplicities
        self.degrees = degrees

    def to_dict(self) -> dict:
        return {
            "structure": self.structure,
            "confirmed": self.confirmed,
            "sizes": dict(self.sizes),
            "multiplicities": dict(self.multiplicities),
            "degrees": {k: list(v) for k, v in self.degrees.items()},
        }


def packet_sizes(
    structure,
    family: str,
    igroup_order: int,
    confirmed: Optional[bool] = None,
) -> PacketOutcome:
    """Packet sizes per inner form for a component-group structure.

    ``structure`` is a catalogue label (realized canonically) or an explicit
    FiniteMatrixGroup containing the designated central subgroup. Sizes are
    counts of irreducible characters with the corresponding central
    character; multiplicities come from m^2 * size = |I| = ``igroup_order``.
    """
    zetas = kottwitz_characters(family)
    if isinstance(structure, str):
        group, label = canonical_group_for_label(structure, family), structure
    else:
        group, label = structure, f"explicit group of order {structure.order}"
    z_elements, _ = designated_center(family)
    if not all(z in group for z in z_elements):
        raise ValueError("structure lacks the designated central subgroup")
    table = group.character_table()
    sizes: Dict[str, Optional[int]] = {}
    degrees: Dict[str, Tuple[int, ...]] = {}
    for form, zeta in zetas.items():
        rows = irreps_with_central_character(group, z_elements, zeta, table)
        sizes[form] = len(rows)
        degrees[form] = tuple(r.degree for r in rows)
    multiplicities: Dict[str, Optional[int]] = {}
    for form, sz in sizes.items():
        m = isqrt(igroup_order // sz) if sz and igroup_order % sz == 0 else 0
        multiplicities[form] = m if m * m * sz == igroup_order else None
    return PacketOutcome(label, confirmed, sizes, multiplicities, degrees)


def square_class_bound(p: int, f: int) -> Tuple[int, List[int]]:
    """|F*/(F*)^2| for a p-adic field of degree f, with its divisor list."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if f < 1:
        raise ValueError("f must be >= 1")
    # 2^(f+2) has more than `limit` digits exactly when 2^(f+2) >= 10^limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if p == 2 and limit and f + 2 >= (10**limit).bit_length():
        raise ValueError(
            f"f = {f} is too large: the square-class bound 2^{f + 2} has more than "
            f"{limit} digits, the interpreter's limit for printing an integer"
        )
    card = 2 ** (f + 2) if p == 2 else 4
    divisors = [2**k for k in range(card.bit_length())]
    return card, divisors


class PacketReport:
    """The packet sizes of a scenario; ``consistent`` is derived: ``consistency_check``."""

    __slots__ = (
        "family", "igroup", "igroup_order", "outcomes",
        "bound_card", "bound_divisors", "consistent", "notes",
    )

    def __init__(
        self,
        family: str,
        igroup: AbelianGroupStructure,
        igroup_order: int,
        outcomes: List[PacketOutcome],
        bound_card: int,
        bound_divisors: List[int],
        notes: Optional[List[str]] = None,  # a fresh list when omitted
    ):
        self.family = family
        self.igroup = igroup
        self.igroup_order = igroup_order
        self.outcomes = outcomes
        self.bound_card = bound_card
        self.bound_divisors = bound_divisors
        self.notes = [] if notes is None else notes
        self.consistent = consistency_check(self)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "igroup": str(self.igroup),
            "igroup_order": self.igroup_order,
            "outcomes": [o.to_dict() for o in self.outcomes],
            "square_class_bound": self.bound_card,
            "bound_divisors": list(self.bound_divisors),
            "consistent": self.consistent,
            "notes": list(self.notes),
        }


def consistency_check(report: PacketReport) -> bool:
    """Every defined size divides the report's bound and m^2 * size = |I| throughout."""
    card = report.bound_card
    for outcome in report.outcomes:
        for form, sz in outcome.sizes.items():
            if sz is None:
                continue
            if sz <= 0 or card % sz:
                return False
            m = outcome.multiplicities.get(form)
            if m is None or m * m * sz != report.igroup_order:
                return False
    return True


def _shape(group: FiniteMatrixGroup) -> Tuple[int, Optional[AbelianGroupStructure]]:
    """(order, invariant factors), with None in place of the factors when non-abelian."""
    return group.order, abelian_invariants(group) if group.is_abelian() else None


def _gspin4_outcomes(s: GSpin4Scenario, rep: Optional[CentralizerReport], card: int):
    """(I, |I|, outcomes, notes) by the rank-four rules, from the witness's report and the bound."""
    ig = igroup_gspin4(s)
    rules_label, n = sgroup_structure_gspin4(s, ig), ig.torsion_order()
    q8_possible = rules_label == " or ".join(_GSPIN4_BRANCHES)
    notes: List[str] = []
    outcomes: List[PacketOutcome] = []
    if q8_possible and rep is not None:
        label = rep.s_phi_sc_label
        if label not in _GSPIN4_BRANCHES:
            raise ValueError(
                f"witness S_phi_sc is {label}; the rules allow only "
                + " or ".join(_GSPIN4_BRANCHES)
            )
        notes.append(
            f"matrix-level witness identifies the extension as {label} "
            f"(order {rep.s_phi_sc.order}, quotient {rep.s_phi_label})"
        )
        outcomes.append(packet_sizes(label, "GSpin4", n, confirmed=True))
    elif q8_possible:
        notes.append(
            "non-abelian branch is possible but unconfirmed; supply a matrix "
            "witness to decide"
        )
        outcomes.extend(
            packet_sizes(label, "GSpin4", n, confirmed=False)
            for label in _GSPIN4_BRANCHES
        )
    else:
        if rep is not None:
            # the rules fix the extension: its order and, for an abelian one,
            # its invariant factors
            got = _shape(rep.s_phi_sc)
            want = _shape(canonical_group_for_label(rules_label, "GSpin4"))
            if want[0] == 8:
                # -I is the only involution of SL2, so no witness in SL2 x SL2 is (Z/2)^3:
                # the order-8 labels fix only the order and that the group is abelian
                got, want = (got[0], got[1] is None), (want[0], want[1] is None)
            if got != want:
                raise ValueError(
                    f"witness {s.witness!r} has S_phi_sc {rep.s_phi_sc_label} (order "
                    f"{got[0]}), not the rules' {rules_label} (order {want[0]})"
                )
        outcomes.append(packet_sizes(rules_label, "GSpin4", n))
    if s.p == 2 and s.f > 1:
        notes.append(
            f"bound 2^(f+2) = {card} for p = 2 grows with f; sizes above 8 are not "
            "ruled out by the rank-four rules alone"
        )
    return ig, n, outcomes, notes


def _gspin6_outcomes(s: GSpin6Scenario, rep: Optional[CentralizerReport], card: int):
    """(I, |I|, outcomes, notes) by the rank-six rules, from the witness's report and the bound."""
    ig = igroup_gspin6(s)
    rank, order = len(ig.torsion), ig.torsion_order()
    notes: List[str] = []
    limit = 2 if s.p != 2 else s.f + 2
    if rank > limit:
        notes.append(
            f"flagged: stabilizer rank {rank} exceeds the limit {limit} for "
            f"p = {s.p}, f = {s.f}"
        )
    if s.p == 2 and s.f > 1:
        notes.append(
            f"bound 2^(f+2) = {card} for p = 2 grows with f; size lists beyond 8 "
            "are not tabulated"
        )
    if rep is not None:
        notes.append(
            f"matrix-level witness: S_phi_sc is {rep.s_phi_sc_label} of order "
            f"{rep.s_phi_sc.order}"
        )
        return ig, order, [packet_sizes(rep.s_phi_sc, "GSpin6", order, confirmed=True)], notes
    unknown = dict.fromkeys(_FAMILIES["GSpin6"][2])  # every form open but the split one
    outcome = PacketOutcome(
        f"abelian extension over {ig}", None,
        {**unknown, "split": order}, {**unknown, "split": 1}, {"split": (1,) * order},
    )
    notes.append(
        "inner-form packet sizes for rank six require an explicit component "
        "group; the two quaternionic-type forms share one line"
    )
    return ig, order, [outcome], notes


def scenario_from_dict(d: dict):
    family = d.get("family")
    if family == "GSpin4":
        return GSpin4Scenario(
            factor1=FactorSpec(d["factor1"]["kind"], tuple(d["factor1"].get("labels", []))),
            factor2=FactorSpec(d["factor2"]["kind"], tuple(d["factor2"].get("labels", []))),
            twist_equivalent=bool(d["twist_equivalent"]),
            p=int(d["p"]),
            f=int(d.get("f", 1)),
            witness=d.get("witness"),
        )
    if family == "GSpin6":
        inv = tuple(int(x) for x in d.get("i_sl4", []))
        return GSpin6Scenario(
            i_sl4=AbelianGroupStructure(0, inv),
            p=int(d["p"]),
            f=int(d.get("f", 1)),
            witness=d.get("witness"),
        )
    raise ValueError(f"unknown scenario family {family!r}")


def scenario_report(scenario, witness: Optional[ParameterImage] = None) -> PacketReport:
    """The packet report of a scenario, checked against its witness when one is given."""
    if isinstance(scenario, GSpin4Scenario):
        family, rules = "GSpin4", _gspin4_outcomes
    elif isinstance(scenario, GSpin6Scenario):
        family, rules = "GSpin6", _gspin6_outcomes
    else:
        raise ValueError("unknown scenario type")
    card, divisors = square_class_bound(scenario.p, scenario.f)
    rep = None
    if witness is not None:
        ambient = _FAMILIES[family][0]
        if witness.ambient != ambient:
            raise ValueError(
                f"a {family} scenario needs a {ambient} witness, not a {witness.ambient} one"
            )
        rep = s_groups(witness)
    ig, igroup_order, outcomes, notes = rules(scenario, rep, card)
    # S_phi is identified with I, the group of characters fixing the parameter
    if rep is not None and _shape(rep.s_phi) != (igroup_order, ig):
        raise ValueError(
            f"witness {scenario.witness!r} has S_phi {rep.s_phi_label} (order "
            f"{rep.s_phi_order}), not the I group {ig} (order {igroup_order})"
        )
    return PacketReport(family, ig, igroup_order, outcomes, card, divisors, notes)
