"""Exact workbench for based root data, component groups, and packet counts."""

from .lattice import (
    AbelianGroupStructure,
    IntMatrix,
    cokernel_structure,
    inverse_unimodular,
    kernel_basis,
    smith_normal_form,
    solve_integral,
)
from .root_datum import (
    BasedRootDatum,
    DiagonalizableData,
    center_data,
    center_structure,
    central_quotient_datum,
    central_torus_quotient_datum,
    dual_sc_center,
    gl_datum,
    gspin_datum,
    pgl_datum,
    product_datum,
    similitude_kernel_datum,
    sl_datum,
    verify_exact_sequence,
)
from .morphisms import (
    RootDatumMap,
    check_isomorphism,
    search_isomorphisms,
    verify_dual_identification,
)
from .gaussian import QI, GaussianMatrix, parse_qi, format_qi
from .finite_groups import (
    CentralCharacter,
    CharacterTable,
    FiniteMatrixGroup,
    abelian_invariants,
    generate_closure,
    group_id,
    irreps_with_central_character,
)
from .centralizers import (
    CentralizerReport,
    ParameterImage,
    TwistCharacter,
    s_groups,
    sl_level_group,
    twisted_centralizer_space,
    verify_extension,
)
from .packets import (
    FactorSpec,
    GSpin4Scenario,
    GSpin6Scenario,
    PacketReport,
    consistency_check,
    igroup_gspin4,
    igroup_gspin6,
    packet_sizes,
    scenario_report,
    sgroup_structure_gspin4,
    square_class_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
