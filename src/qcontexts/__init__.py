"""Finite-dimensional contexts, presheaves, valuations, and the
global-section (Kochen-Specker) search."""

from .coarse import (
    LatticeElement,
    clopen_iso_check,
    clopen_of,
    coarse_functoriality_check,
    coarse_grain,
    coarse_grain_bruteforce,
    element_projector,
    lattice,
    projector_restrictions,
)
from .contexts import (
    Context,
    ContextPoset,
    SpectralFunctional,
    StateOnContext,
    all_coarsenings,
    build_poset,
    check_state_global_element,
    is_subalgebra,
    meet,
    restrict_functional,
    restrict_state,
)
from .intervals import (
    CoarseGlobalElement,
    IntervalAssignment,
    ProjectorFamily,
    check_coarse_subobject,
    check_semantic_subobject,
    check_spectral_subobject,
    global_element_from_valuation,
    ideal_valuation,
    probability_family,
    support,
    true_subobject,
)
from .ks import (
    RaySet,
    SectionAssignment,
    brute_force_sections,
    enumerate_global_sections,
    find_global_section,
    load_rayset,
    poset_from_rayset,
    validate_section,
)
from .linalg import (
    BackendError,
    DensityMatrix,
    HermitianOperator,
    Projector,
    ValidationError,
    born_probability,
)
from .scalars import ExactComplex, QSqrt2, get_eps, set_eps
from .valuations import (
    PresheafTables,
    ValuationTable,
    check_valuation,
    natural_transformation_check,
    presheaf_tables,
    valuation_table,
)

__version__ = "0.1.0"
