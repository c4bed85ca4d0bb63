"""Exact and numerical tools for sparse polynomial systems whose positive
solutions are counted through positively decorated triangulations.

Importing the package loads only the exact layers: exactlinalg,
complexes and families.  The names it exports from viro, numerics and
completion are resolved on first access (PEP 562), so the first of them
that is read loads its module, and viro or numerics loads precision and
mpmath with it.
"""

import importlib

from .complexes import (
    BipartitenessCheck,
    DualGraph,
    PointConfiguration,
    SimplicialComplex,
    balanced_coloring,
    decoration_from_coloring,
    dual_graph,
    is_bipartite,
    is_positively_decorated,
    is_unimodular,
    normalized_volume,
    simplex_signs,
    total_normalized_volume,
)
from .exactlinalg import (
    RankDeficiencyError,
    RationalMatrix,
    determinant,
    is_oriented,
    positive_kernel_vector,
    rank,
    solve,
)
from .families import (
    Poset,
    asymptotic_estimate,
    count_snd,
    count_snd_series,
    cross_polytope_triangulation,
    cyclic_facet_count,
    cyclic_heights,
    cyclic_minimal_triangulation,
    cyclic_points,
    diagonal_coefficients,
    linear_extensions,
    multilinear_tp_system,
    order_polytope_triangulation,
    snd_subcomplex,
)

__version__ = "0.1.0"

# export -> the module that defines it, imported on first access
_LAZY = {
    "decorate": "completion",
    "CertifiedCount": "numerics",
    "certified_positive_count": "numerics",
    "newton_refine": "numerics",
    "ViroSystem": "viro",
    "build_viro_system": "viro",
    "predicted_solutions": "viro",
    "regularity_check": "viro",
    "render_system": "viro",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})

__all__ = [
    "BipartitenessCheck",
    "CertifiedCount",
    "DualGraph",
    "PointConfiguration",
    "Poset",
    "RankDeficiencyError",
    "RationalMatrix",
    "SimplicialComplex",
    "ViroSystem",
    "asymptotic_estimate",
    "balanced_coloring",
    "build_viro_system",
    "certified_positive_count",
    "count_snd",
    "count_snd_series",
    "cross_polytope_triangulation",
    "cyclic_facet_count",
    "cyclic_heights",
    "cyclic_minimal_triangulation",
    "cyclic_points",
    "decorate",
    "decoration_from_coloring",
    "determinant",
    "diagonal_coefficients",
    "dual_graph",
    "is_bipartite",
    "is_oriented",
    "is_positively_decorated",
    "is_unimodular",
    "linear_extensions",
    "multilinear_tp_system",
    "newton_refine",
    "normalized_volume",
    "order_polytope_triangulation",
    "positive_kernel_vector",
    "predicted_solutions",
    "rank",
    "regularity_check",
    "render_system",
    "simplex_signs",
    "snd_subcomplex",
    "solve",
    "total_normalized_volume",
]
