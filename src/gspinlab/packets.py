"""Packet sizes, multiplicities, and character-stabilizer bookkeeping.

The classification rules for rank-four scenarios follow the trichotomy of
two-dimensional parameters (reducible cases, primitive, dihedral with one
or with three quadratic self-twists). A scenario determines the stabilizer
group I of twisting characters, the structure of the component-group
extension, and the packet size for each inner form via counts of
irreducible characters with a fixed central character on mu_2 x mu_2
(rank four) or mu_4 (rank six).

Everything here is rule-level; the matrix-level cross-check lives in
``centralizers`` and is wired in through an optional witness. The
non-abelian order-16 branch is only reported as possible until a witness
confirms it.
"""
from __future__ import annotations

from math import isqrt
from typing import Dict, List, Optional, Tuple

from .centralizers import ParameterImage, cover_center, s_groups
from .finite_groups import (
    CentralCharacter,
    FiniteMatrixGroup,
    generate_closure,
    irreps_with_central_character,
    is_prime,
)
from .gaussian import QI, GaussianMatrix
from .lattice import AbelianGroupStructure

GSPIN4_FORMS = ("split", "2-1", "1-1")
GSPIN6_FORMS = ("split", "2-0", "1-0")
# matrix sizes of the factors of the simply connected cover: SL2 x SL2, SL4
_COVER_SIZES = {"GSpin4": (2, 2), "GSpin6": (4,)}

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


class SGroupInfo:
    __slots__ = ("label", "q8_possible", "igroup_order")

    def __init__(self, label: str, q8_possible: bool, igroup_order: int):
        self.label = label
        self.q8_possible = q8_possible
        self.igroup_order = igroup_order


def sgroup_structure_gspin4(s: GSpin4Scenario, igroup: AbelianGroupStructure) -> SGroupInfo:
    """Structure of the order-4|I| component-group extension, per the rules."""
    if not igroup.is_elementary_two_group():
        raise ValueError("stabilizer group must be an elementary 2-group")
    n = igroup.torsion_order()
    if n == 1:
        return SGroupInfo("(Z/2)^2", False, 1)
    if n == 2:
        label = "abelian order 8" if s.reducible else "(Z/2)^3"
        return SGroupInfo(label, False, 2)
    if n == 4:
        if s.reducible:
            raise ValueError("reducible factors cannot reach a stabilizer of order 4")
        q8 = s.twist_equivalent and s.factor1.kind == "dihedral_three"
        label = "abelian order 16 (invariant factors 4,4)"
        if q8:
            label += " or Q8 x Z/2"
        return SGroupInfo(label, q8, 4)
    raise ValueError("stabilizer groups of order 8 or more do not occur in rank four")


# ---------------------------------------------------------------------------
# canonical matrix realizations for structure labels


_mat2 = GaussianMatrix.from_strings
_I2 = GaussianMatrix.identity(2)
_NEG_I2 = _I2.scale(QI(-1))
_A2 = _mat2([["i", "0"], ["0", "-i"]])
_B2 = _mat2([["0", "1"], ["-1", "0"]])
_X2 = _mat2([["1", "0"], ["0", "-1"]])

_CENTER_GENS = cover_center(_COVER_SIZES["GSpin4"])[1]  # diag(-1, 1) and diag(1, -1)
_diag = GaussianMatrix.block_diagonal

_CANONICAL_GSPIN4 = {
    "(Z/2)^2": _CENTER_GENS,
    "(Z/2)^3": _CENTER_GENS + (_diag(_X2, _X2),),
    "abelian order 8": _CENTER_GENS + (_diag(_X2, _X2),),
    "abelian order 16 (invariant factors 4,4)": (_diag(_A2, _I2), _diag(_I2, _A2)),
    "Q8 x Z/2": (_diag(_NEG_I2, _I2), _diag(_I2, _A2), _diag(_I2, _B2)),
}


def canonical_group_for_label(label: str, family: str) -> FiniteMatrixGroup:
    if family != "GSpin4":
        raise ValueError("canonical realizations are provided for rank four only")
    key = label.strip()
    if key not in _CANONICAL_GSPIN4:
        raise ValueError(f"no canonical realization for structure {label!r}")
    return generate_closure(_CANONICAL_GSPIN4[key], cap=64)


def designated_center(family: str):
    """(elements, generators) of the designated central subgroup."""
    if family not in _COVER_SIZES:
        raise ValueError(f"unknown family {family!r}")
    return cover_center(_COVER_SIZES[family])


def kottwitz_characters(family: str) -> Dict[str, CentralCharacter]:
    _, gens = designated_center(family)
    if family == "GSpin4":
        z1, z2 = gens
        return {
            "split": CentralCharacter(((z1, QI(1)), (z2, QI(1)))),
            "2-1": CentralCharacter(((z1, QI(1)), (z2, QI(-1)))),
            "1-1": CentralCharacter(((z1, QI(-1)), (z2, QI(-1)))),
        }
    (z,) = gens
    return {
        "split": CentralCharacter(((z, QI(1)),)),
        "2-0": CentralCharacter(((z, QI(-1)),)),
        "1-0": CentralCharacter(((z, QI(0, 1)),)),
    }


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
    igroup_order: Optional[int] = None,
    confirmed: Optional[bool] = None,
) -> PacketOutcome:
    """Packet sizes per inner form for a component-group structure.

    ``structure`` is a catalogue label (realized canonically) or an explicit
    FiniteMatrixGroup containing the designated central subgroup. Sizes are
    counts of irreducible characters with the corresponding central
    character; multiplicities come from m^2 * size = |I|.
    """
    if family == "GSpin4":
        forms = GSPIN4_FORMS
    elif family == "GSpin6":
        forms = GSPIN6_FORMS
    else:
        raise ValueError(f"unknown family {family!r}")
    if isinstance(structure, str):
        group = canonical_group_for_label(structure, family)
        label = structure
    else:
        group = structure
        label = f"explicit group of order {group.order}"
    z_elements, _ = designated_center(family)
    for z in z_elements:
        if z not in group:
            raise ValueError("structure lacks the designated central subgroup")
    table = group.character_table()
    zetas = kottwitz_characters(family)
    sizes: Dict[str, Optional[int]] = {}
    degrees: Dict[str, Tuple[int, ...]] = {}
    for form in forms:
        rows = irreps_with_central_character(group, z_elements, zetas[form], table)
        sizes[form] = len(rows)
        degrees[form] = tuple(r.degree for r in rows)
    if igroup_order is None:
        igroup_order = group.order // len(z_elements)
    multiplicities: Dict[str, Optional[int]] = {}
    for form in forms:
        sz = sizes[form]
        if sz and igroup_order % sz == 0:
            m2 = igroup_order // sz
            r = isqrt(m2)
            multiplicities[form] = r if r * r == m2 else None
        else:
            multiplicities[form] = None
    return PacketOutcome(label, confirmed, sizes, multiplicities, degrees)


def square_class_bound(p: int, f: int) -> Tuple[int, List[int]]:
    """|F*/(F*)^2| for a p-adic field of degree f, with its divisor list."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if f < 1:
        raise ValueError("f must be >= 1")
    card = 2 ** (f + 2) if p == 2 else 4
    divisors = [2**k for k in range(card.bit_length())]
    return card, divisors


class PacketReport:
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
        consistent: bool,
        notes: Optional[List[str]] = None,  # a fresh list when omitted
    ):
        self.family = family
        self.igroup = igroup
        self.igroup_order = igroup_order
        self.outcomes = outcomes
        self.bound_card = bound_card
        self.bound_divisors = bound_divisors
        self.consistent = consistent
        self.notes = [] if notes is None else notes

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


def consistency_check(report: PacketReport, bound: Optional[int] = None) -> bool:
    """Every defined size divides the bound and m^2 * size = |I| throughout."""
    card = report.bound_card if bound is None else bound
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


# the two order-16 extensions the rank-four rules leave open
_GSPIN4_BRANCHES = ("abelian order 16 (invariant factors 4,4)", "Q8 x Z/2")


def _check_witness_ambient(witness: Optional[ParameterImage], family: str, ambient: str) -> None:
    if witness is not None and witness.ambient != ambient:
        raise ValueError(
            f"a {family} scenario needs a {ambient} witness, not a {witness.ambient} one"
        )


def gspin4_scenario_report(
    s: GSpin4Scenario, witness: Optional[ParameterImage] = None
) -> PacketReport:
    ig = igroup_gspin4(s)
    info = sgroup_structure_gspin4(s, ig)
    notes: List[str] = []
    outcomes: List[PacketOutcome] = []
    _check_witness_ambient(witness, "GSpin4", "GSO4")
    if info.q8_possible:
        if witness is not None:
            rep = s_groups(witness)
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
            outcomes.append(packet_sizes(label, "GSpin4", info.igroup_order, confirmed=True))
        else:
            notes.append(
                "non-abelian branch is possible but unconfirmed; supply a matrix "
                "witness to decide"
            )
            outcomes.extend(
                packet_sizes(label, "GSpin4", info.igroup_order, confirmed=False)
                for label in _GSPIN4_BRANCHES
            )
    else:
        outcomes.append(packet_sizes(info.label, "GSpin4", info.igroup_order))
    card, divisors = square_class_bound(s.p, s.f)
    if s.p == 2 and s.f > 1:
        notes.append(
            f"bound 2^(f+2) = {card} for p = 2 grows with f; sizes above 8 are not "
            "ruled out by the rank-four rules alone"
        )
    report = PacketReport(
        family="GSpin4",
        igroup=ig,
        igroup_order=info.igroup_order,
        outcomes=outcomes,
        bound_card=card,
        bound_divisors=divisors,
        consistent=True,
        notes=notes,
    )
    report.consistent = consistency_check(report)
    return report


def gspin6_scenario_report(
    s: GSpin6Scenario, witness: Optional[ParameterImage] = None
) -> PacketReport:
    ig = igroup_gspin6(s)
    rank = len(ig.torsion)
    notes: List[str] = []
    card, divisors = square_class_bound(s.p, s.f)
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
    outcomes: List[PacketOutcome] = []
    _check_witness_ambient(witness, "GSpin6", "GSO6")
    if witness is not None:
        rep = s_groups(witness)
        notes.append(
            f"matrix-level witness: S_phi_sc is {rep.s_phi_sc_label} of order "
            f"{rep.s_phi_sc.order}"
        )
        outcomes.append(
            packet_sizes(rep.s_phi_sc, "GSpin6", ig.torsion_order(), confirmed=True)
        )
    else:
        sizes: Dict[str, Optional[int]] = {
            "split": ig.torsion_order(),
            "2-0": None,
            "1-0": None,
        }
        mult: Dict[str, Optional[int]] = {"split": 1, "2-0": None, "1-0": None}
        outcomes.append(
            PacketOutcome(
                structure=f"abelian extension over {ig}",
                confirmed=None,
                sizes=sizes,
                multiplicities=mult,
                degrees={"split": (1,) * ig.torsion_order()},
            )
        )
        notes.append(
            "inner-form packet sizes for rank six require an explicit component "
            "group; the two quaternionic-type forms share one line"
        )
    report = PacketReport(
        family="GSpin6",
        igroup=ig,
        igroup_order=ig.torsion_order(),
        outcomes=outcomes,
        bound_card=card,
        bound_divisors=divisors,
        consistent=True,
        notes=notes,
    )
    report.consistent = consistency_check(report)
    return report


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
    if isinstance(scenario, GSpin4Scenario):
        return gspin4_scenario_report(scenario, witness)
    if isinstance(scenario, GSpin6Scenario):
        return gspin6_scenario_report(scenario, witness)
    raise ValueError("unknown scenario type")
