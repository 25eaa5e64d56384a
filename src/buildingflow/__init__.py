"""Exact orbit counting for the type-1 discrete geodesic flow on the
non-uniform PGL3 quotient, with the PGL2 tree analogue.

Three independent routes are implemented and cross-validated: an
exhaustive path oracle in the building (``building``), exact dynamic
programming on the folded quotient shift (``shift``), and closed-form
evaluation (``analysis``).  The ``cli`` module exposes them as the
``buildingflow`` command.
"""

from .algebra import FiniteField, LaurentMatrix, kernel_dim
from .analysis import (
    SprReport,
    closed_N,
    closed_f,
    closed_g,
    empirical_growth,
    pgl2_closed,
    renewal_f,
    spr_report,
)
from .building import (
    BDirectedEdge,
    VertexClass,
    are_adjacent,
    base_edge,
    birkhoff_invariant,
    class_equal,
    divisor_profile,
    find_lift,
    geodesic_continuations,
    oracle_counts,
    oracle_g_f,
    oracle_transition_census,
    origin,
    quotient_edge_of,
    up_neighbors,
    vertex_type,
)
from .errors import BudgetExceededError, InternalConsistencyError, UnsupportedFieldError
from .shift import (
    QVertex,
    QuotientEdge,
    build_graph,
    dp_f,
    dp_g,
    dp_profiles,
    edge_transitions,
    fold,
    sector_neighbors,
    three_step_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "FiniteField",
    "LaurentMatrix",
    "kernel_dim",
    "SprReport",
    "closed_N",
    "closed_f",
    "closed_g",
    "empirical_growth",
    "pgl2_closed",
    "renewal_f",
    "spr_report",
    "BDirectedEdge",
    "VertexClass",
    "are_adjacent",
    "base_edge",
    "birkhoff_invariant",
    "class_equal",
    "divisor_profile",
    "find_lift",
    "geodesic_continuations",
    "oracle_counts",
    "oracle_g_f",
    "oracle_transition_census",
    "origin",
    "quotient_edge_of",
    "up_neighbors",
    "vertex_type",
    "BudgetExceededError",
    "InternalConsistencyError",
    "UnsupportedFieldError",
    "QVertex",
    "QuotientEdge",
    "build_graph",
    "dp_f",
    "dp_g",
    "dp_profiles",
    "edge_transitions",
    "fold",
    "sector_neighbors",
    "three_step_coefficients",
    "__version__",
]
