"""Decoration search by ridge signs.

C decorates the facet s_0 < ... < s_d exactly when sign det C_{sigma - s_i}
= eps_sigma * (-1)^i for one sign eps_sigma, so two facets through a ridge
fix each other's sign.  `ridge_signs` walks the dual graph breadth-first
and gives every ridge tau one target sign chi_tau, up to one sign per
component, or finds a conflict that proves no decoration exists.  The
margin search then minimises sum_tau softplus(-k (chi_tau det C_tau - mu))
over C with unit-norm columns by L-BFGS (Nocedal 1980) for each (k, mu) of
a sharpening schedule.  After each stage C is rounded over one denominator,
10^3 then 10^6, and only a matrix that the exact `is_positively_decorated`
accepts is returned.

numpy is imported only by the margin search, which `decorate` reaches for
a complex with no balanced coloring and no ridge-sign conflict: importing
this module, the package or its CLI never loads it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .complexes import (
    SimplicialComplex,
    balanced_coloring,
    decoration_from_coloring,
    dual_graph,
    is_positively_decorated,
)
from .exactlinalg import RationalMatrix

# (sharpness k, margin mu) per stage, and the L-BFGS iterations of each.
# The nearly linear first stage picks the basin: started at k = 10, 7 to 10
# of 30 restarts each on snd(8, 3), (11, 5) and (13, 5) ended with wrong
# signs, against none from k = 1.  snd(15, 7) needs the last stage.
_STAGES = ((1.0, 0.01), (10.0, 0.01), (1000.0, 0.001), (10000.0, 0.0001))
_ITERATIONS = 200
_MEMORY = 10
_DENOMINATORS = (10 ** 3, 10 ** 6)


@dataclass
class DecorationOutcome:
    decoration: RationalMatrix | None
    method: str            # "coloring" | "sign search" | "none"
    diagnostics: dict


def ridge_signs(K: SimplicialComplex) -> tuple[dict[tuple, int],
                                                tuple[tuple, tuple] | None]:
    """Target sign of det C_tau on every ridge tau of K, or a conflict.

    Returns (targets, None), with the first facet of each component of the
    dual graph given eps = +1, or ({}, (sigma, sigma')) for two adjacent
    facets whose signs disagree, which no decoration can satisfy.
    """
    G = dual_graph(K)
    eps = [0] * len(K.facets)
    for root in range(len(K.facets)):
        if eps[root]:
            continue
        eps[root] = 1
        queue = deque([root])
        while queue:
            a = queue.popleft()
            fa = K.facets[a]
            for b in sorted(G.adjacency[a]):
                fb = K.facets[b]
                # positions of the vertex each facet has outside the ridge
                i = next(p for p, v in enumerate(fa) if v not in fb)
                j = next(p for p, v in enumerate(fb) if v not in fa)
                sign = eps[a] * (-1) ** (i + j)
                if not eps[b]:
                    eps[b] = sign
                    queue.append(b)
                elif eps[b] != sign:
                    return {}, (fa, fb)
    return {f[:i] + f[i + 1:]: e * (-1) ** i
            for e, f in zip(eps, K.facets) for i in range(len(f))}, None


def _lbfgs(fg, x):
    """L-BFGS with Armijo backtracking; fg(x) returns (f, gradient).

    Only pairs with s.y > 0 are kept, so every direction is a descent one.
    """
    f, g = fg(x)
    pairs = []
    for _ in range(_ITERATIONS):
        p, alphas = -g, []
        for s, y in reversed(pairs):
            alphas.append((s @ p) / (y @ s))
            p = p - alphas[-1] * y
        if pairs:
            s, y = pairs[-1]
            p = p * ((s @ y) / (y @ y))
        else:
            p = p / max(1.0, abs(g).max())
        for (s, y), a in zip(pairs, reversed(alphas)):
            p = p + (a - (y @ p) / (y @ s)) * s
        step, slope = 1.0, g @ p
        while True:
            f_new, g_new = fg(x + step * p)
            if f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-10:
                return x
        s, y = step * p, g_new - g
        if s @ y > 1e-12:
            pairs = pairs[-(_MEMORY - 1):] + [(s, y)]
        x, f, g, f_old = x + s, f_new, g_new, f
        if f_old - f <= 1e-9 * max(1.0, abs(f)) or abs(g).max() < 1e-5:
            break
    return x


def _sign_search(K: SimplicialComplex, targets: dict[tuple, int],
                 seed: int) -> tuple[RationalMatrix, int, int] | None:
    """One seeded margin search: (C, stage, denominator) or None."""
    import numpy as np
    d, n = K.dimension, K.n_vertices
    ridges = np.array(list(targets), dtype=np.intp) - 1
    chi = np.array(list(targets.values()), dtype=float)

    def fg(x, k, mu):
        C = x.reshape(d, n)
        norms = np.linalg.norm(C, axis=0)
        U = C / norms
        M = U[:, ridges].transpose(1, 0, 2)       # one d x d matrix per ridge
        det = np.linalg.det(M)
        z = k * (chi * det - mu)
        # d/dz softplus(-z) = -sigmoid(-z) = -exp(-softplus(z)), no overflow;
        # d det / dM is the cofactor matrix det * M^-T
        w = -k * chi * np.exp(-np.logaddexp(0.0, z)) * det
        G = np.zeros((d, n))
        np.add.at(G, (slice(None), ridges),
                  w[None, :, None] * np.linalg.inv(M).transpose(2, 0, 1))
        # through the column normalisation U = C / |C|
        G = (G - U * (U * G).sum(axis=0)) / norms
        return np.logaddexp(0.0, -z).sum(), G.ravel()

    x = np.random.default_rng(seed).standard_normal(d * n)
    for stage, (k, mu) in enumerate(_STAGES):
        try:
            x = _lbfgs(lambda x: fg(x, k, mu), x)
        except np.linalg.LinAlgError:      # an exactly singular ridge matrix
            return None
        C = x.reshape(d, n)
        U = C / np.linalg.norm(C, axis=0)
        for q in _DENOMINATORS:
            R = RationalMatrix([[Fraction(int(v), q) for v in row]
                                for row in np.rint(U * q)])
            if is_positively_decorated(K, R)[0]:
                return R, stage, q
    return None


def decorate(K: SimplicialComplex, restarts: int = 100,
             seed: int = 0) -> DecorationOutcome:
    """Find an exactly verified decoration of K, or report why none was found.

    Strategy: a balanced coloring yields an immediate decoration; a
    ridge-sign conflict is a definitive obstruction (a non-bipartite dual
    graph is not: the 5-triangle Moebius band is decorable); otherwise
    seeded margin searches run until one rounded candidate passes the
    exact verification.  A restart count or seed that is not a
    non-negative integer is a ValueError, and so is a complex of
    dimension 0, since a decoration matrix has one row per dimension.
    """
    for name, value in (("restarts", restarts), ("seed", seed)):
        # bool, a subclass of int, is refused
        if type(value) is not int or value < 0:
            raise ValueError(
                f"{name} must be a non-negative integer, got {value!r}")
    if K.dimension == 0:
        raise ValueError("a decoration matrix has one row per dimension; "
                         "the complex has dimension 0")
    coloring = balanced_coloring(K)
    if coloring is not None:
        C = decoration_from_coloring(coloring, K.n_vertices, K.dimension)
        ok, failing = is_positively_decorated(K, C)
        if ok:
            return DecorationOutcome(C, "coloring", {"coloring": coloring})
        raise AssertionError(
            f"balanced coloring failed exact verification on {failing}")

    targets, conflict = ridge_signs(K)
    if conflict is not None:
        return DecorationOutcome(None, "none", {
            "reason": "ridge signs conflict between adjacent facets",
            "facets": [list(f) for f in conflict],
        })
    for attempt in range(restarts):
        found = _sign_search(K, targets, seed + attempt)
        if found is not None:
            C, stage, q = found
            return DecorationOutcome(C, "sign search", {
                "restart": attempt,
                "seed": seed + attempt,
                "stage": stage,
                "denominator": q,
            })
    return DecorationOutcome(None, "none", {
        "reason": "sign search did not produce a verified decoration",
        "restarts": restarts,
    })
