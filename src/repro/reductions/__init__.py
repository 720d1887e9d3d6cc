"""Executable hardness reductions and negative-result constructions."""

from .fd_amplifier import (
    AmplifiedInstance,
    amplify,
    repair_count_via_rrfreq,
    singleton_repair_count_via_rrfreq1,
)
from .hcoloring import (
    H_GRAPH,
    HColoringInstance,
    count_h_colorings,
    hcoloring_constraints,
    hcoloring_instance,
    hcoloring_query,
    hcoloring_schema,
    hom_count_via_oracle,
    is_h_homomorphism,
    repair_to_mapping,
)
from .pathological import (
    PathologicalInstance,
    exact_centre_probability,
    pathological_instance,
    proposition_d6_upper_bound,
)
from .pos2dnf import (
    Pos2DNF,
    Pos2DNFInstance,
    pos2dnf_constraints,
    pos2dnf_instance,
    pos2dnf_query,
    pos2dnf_schema,
    repair_to_assignment,
    sat_count_via_oracle,
)
from .vizing import (
    EdgeColoringError,
    VizingInstance,
    independent_set_database,
    misra_gries_edge_coloring,
    validate_edge_coloring,
)

__all__ = [
    "AmplifiedInstance",
    "EdgeColoringError",
    "H_GRAPH",
    "HColoringInstance",
    "PathologicalInstance",
    "Pos2DNF",
    "Pos2DNFInstance",
    "VizingInstance",
    "amplify",
    "count_h_colorings",
    "exact_centre_probability",
    "hcoloring_constraints",
    "hcoloring_instance",
    "hcoloring_query",
    "hcoloring_schema",
    "hom_count_via_oracle",
    "independent_set_database",
    "is_h_homomorphism",
    "misra_gries_edge_coloring",
    "pathological_instance",
    "pos2dnf_constraints",
    "pos2dnf_instance",
    "pos2dnf_query",
    "pos2dnf_schema",
    "proposition_d6_upper_bound",
    "repair_count_via_rrfreq",
    "repair_to_assignment",
    "repair_to_mapping",
    "sat_count_via_oracle",
    "singleton_repair_count_via_rrfreq1",
    "validate_edge_coloring",
]
