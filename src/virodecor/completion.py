"""Decoration search via low-rank completion of the vertex-facet pattern.

A complex on n vertices with ell facets induces an n x ell sign pattern
(Positive where the vertex lies on the facet, Zero elsewhere).  Any
nonnegative completion of rank n - d has a d-dimensional left kernel whose
basis decorates the complex.  The numerical search alternates singular
value truncation with pattern projection; every candidate is rationalized
and re-verified with exact arithmetic, so no unverified matrix ever
escapes this module.

numpy is imported inside the three functions that run the search
(`CompletionPattern.mask`, `alternating_projection`,
`extract_decoration`), not at module scope: `decorate` reaches them
only for a complex with no balanced coloring, so importing this module,
the package or its CLI, and every other command, never loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .complexes import (
    SimplicialComplex,
    balanced_coloring,
    decoration_from_coloring,
    dual_graph,
    is_bipartite,
    is_positively_decorated,
)
from .exactlinalg import RationalMatrix

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class CompletionPattern:
    """Vertex-facet sign pattern with its target completion rank."""

    n: int
    ell: int
    positive: tuple[tuple[bool, ...], ...]   # True = Positive, False = Zero
    target_rank: int

    def mask(self) -> np.ndarray:
        import numpy as np
        return np.array(self.positive, dtype=bool)


@dataclass
class ProjectionResult:
    matrix: np.ndarray | None
    iterations: int
    spectral_gap: float

    @property
    def converged(self) -> bool:
        return self.matrix is not None


@dataclass
class CompletionResult:
    matrix: np.ndarray
    decoration: RationalMatrix | None
    iterations: int
    verified: bool


@dataclass
class DecorationOutcome:
    decoration: RationalMatrix | None
    method: str            # "coloring" | "completion" | "none"
    diagnostics: dict


def pattern_from_complex(K: SimplicialComplex) -> CompletionPattern:
    n, ell = K.n_vertices, len(K.facets)
    rows = []
    for v in range(1, n + 1):
        rows.append(tuple(v in facet for facet in K.facets))
    return CompletionPattern(n, ell, tuple(rows), n - K.dimension)


def alternating_projection(pattern: CompletionPattern, r: int,
                           floor: float = 1e-2, max_iter: int = 2000,
                           seed: int = 0,
                           tol: float = 1e-11) -> ProjectionResult:
    """Alternate rank-r truncation with pattern projection.

    Zero cells are reset to 0; Positive cells are clamped to at least
    ``floor`` times the matrix's RMS entry scale, which keeps iterates away
    from the useless all-zero boundary.  Convergence is declared when the
    post-projection spectral gap sigma_{r+1}/sigma_r drops below tol.
    """
    if r > min(pattern.n, pattern.ell):
        raise ValueError("target rank exceeds matrix dimensions")
    import numpy as np
    mask = pattern.mask()
    rng = np.random.default_rng(seed)
    M = np.where(mask, rng.uniform(0.5, 1.5, size=mask.shape), 0.0)
    gap = np.inf
    for it in range(1, max_iter + 1):
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        M = (U[:, :r] * s[:r]) @ Vt[:r]
        scale = floor * np.linalg.norm(M) / np.sqrt(M.size)
        M = np.where(mask, np.maximum(M, scale), 0.0)
        s2 = np.linalg.svd(M, compute_uv=False)
        if r >= len(s2) or s2[r - 1] == 0:
            gap = 0.0 if r >= len(s2) else np.inf
        else:
            gap = float(s2[r] / s2[r - 1])
        if gap < tol:
            return ProjectionResult(M, it, gap)
    return ProjectionResult(None, max_iter, gap)


def extract_decoration(K: SimplicialComplex, M: np.ndarray,
                       denom_bound: int = 10 ** 6,
                       iterations: int = 0) -> CompletionResult:
    """Left kernel of a near-rank-(n-d) completion, rationalized and verified.

    The d left singular vectors for the smallest singular values are taken
    as a numeric kernel basis, rounded entrywise to rationals with bounded
    denominator, and checked facet-by-facet with exact arithmetic.  Both
    tighter and looser denominator bounds are retried before giving up.
    """
    if denom_bound < 1:
        raise ValueError(f"denom_bound must be >= 1, got {denom_bound}")
    import numpy as np
    d = K.dimension
    n = K.n_vertices
    U, _, _ = np.linalg.svd(M)
    kernel = U[:, n - d:].T          # d x n
    for bound in (denom_bound, denom_bound // 100, denom_bound * 100):
        if bound < 1:
            continue
        C = RationalMatrix(
            [[Fraction(float(x)).limit_denominator(bound) for x in row]
             for row in kernel]
        )
        ok, _failing = is_positively_decorated(K, C)
        if ok:
            return CompletionResult(M, C, iterations, True)
    return CompletionResult(M, C, iterations, False)


def decorate(K: SimplicialComplex, restarts: int = 100, seed: int = 0,
             denom_bound: int = 10 ** 6, max_iter: int = 2000,
             floor: float = 1e-2) -> DecorationOutcome:
    """Find an exactly verified decoration of K, or report why none was found.

    Strategy: a non-bipartite dual graph is a definitive obstruction and
    short-circuits everything; a balanced coloring yields an immediate
    decoration; otherwise seeded completion restarts run until one
    candidate passes the exact verification.  A negative restart count
    or seed, or a denominator bound below 1, is a ValueError.
    """
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if denom_bound < 1:
        raise ValueError(f"denom_bound must be >= 1, got {denom_bound}")
    check = is_bipartite(dual_graph(K))
    if not check:
        return DecorationOutcome(None, "none", {
            "reason": "dual graph is not bipartite",
            "odd_cycle": check.odd_cycle,
        })

    coloring = balanced_coloring(K)
    if coloring is not None:
        C = decoration_from_coloring(coloring, K.n_vertices, K.dimension)
        ok, failing = is_positively_decorated(K, C)
        if ok:
            return DecorationOutcome(C, "coloring", {"coloring": coloring})
        raise AssertionError(
            f"balanced coloring failed exact verification on {failing}")

    pattern = pattern_from_complex(K)
    gaps = []
    for attempt in range(restarts):
        proj = alternating_projection(pattern, pattern.target_rank,
                                      floor=floor, max_iter=max_iter,
                                      seed=seed + attempt)
        gaps.append(proj.spectral_gap)
        if not proj.converged:
            continue
        result = extract_decoration(K, proj.matrix, denom_bound=denom_bound,
                                    iterations=proj.iterations)
        if result.verified:
            return DecorationOutcome(result.decoration, "completion", {
                "restart": attempt,
                "seed": seed + attempt,
                "iterations": result.iterations,
                "spectral_gap": proj.spectral_gap,
            })
    return DecorationOutcome(None, "none", {
        "reason": "completion did not produce a verified decoration",
        "restarts": restarts,
        "spectral_gaps": gaps,
    })
