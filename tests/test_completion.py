"""Completion-based decoration search."""

import numpy as np
import pytest

from virodecor.catalog import SND63_COMPLETED
from virodecor.complexes import SimplicialComplex, is_positively_decorated
from virodecor.completion import (
    CompletionPattern,
    alternating_projection,
    decorate,
    extract_decoration,
    pattern_from_complex,
)
from virodecor.exactlinalg import left_kernel_basis, rank
from virodecor.families import cyclic_minimal_triangulation, snd_subcomplex


S63 = snd_subcomplex(6, 3)


def test_pattern_single_simplex():
    K = SimplicialComplex.from_facets(2, 3, [(1, 2, 3)])
    p = pattern_from_complex(K)
    assert (p.n, p.ell, p.target_rank) == (3, 1, 1)
    assert all(row == (True,) for row in p.positive)


def test_pattern_matches_completed_matrix_zeros():
    p = pattern_from_complex(S63)
    assert (p.n, p.ell, p.target_rank) == (6, 5, 3)
    for i in range(6):
        for j in range(5):
            assert p.positive[i][j] == (SND63_COMPLETED[i, j] > 0)


def test_pattern_snd115():
    p = pattern_from_complex(snd_subcomplex(11, 5))
    assert (p.n, p.ell, p.target_rank) == (11, 38, 6)


def test_projection_trivial_pattern_converges_immediately():
    p = CompletionPattern(3, 2, ((True, True),) * 3, 2)
    result = alternating_projection(p, 2, seed=1)
    assert result.converged
    assert result.iterations == 1


def test_projection_infeasible_pattern_fails_with_gap():
    # two independent rows cannot be completed to rank 1
    p = CompletionPattern(2, 2, ((True, False), (False, True)), 1)
    result = alternating_projection(p, 1, max_iter=200, seed=0)
    assert not result.converged
    assert result.spectral_gap > 1e-3


def test_projection_rejects_oversized_rank():
    p = pattern_from_complex(S63)
    with pytest.raises(ValueError):
        alternating_projection(p, 7)


def test_reference_completion_regression():
    """The known-feasible 6x5 completion has rank 3 and its exact left
    kernel decorates the bipartite (6, 3) subcomplex, end to end in
    rational arithmetic."""
    assert rank(SND63_COMPLETED) == 3
    kernel = left_kernel_basis(SND63_COMPLETED)
    assert kernel is not None and kernel.rows == 3
    ok, failing = is_positively_decorated(S63, kernel)
    assert ok and failing == []


def test_extract_decoration_from_reference_matrix():
    M = np.array([[float(x) for x in row]
                  for row in SND63_COMPLETED.to_lists()])
    result = extract_decoration(S63, M)
    assert result.verified
    ok, _ = is_positively_decorated(S63, result.decoration)
    assert ok


def test_decorate_snd63_via_completion():
    outcome = decorate(S63, restarts=50, seed=0)
    assert outcome.method == "completion"
    ok, failing = is_positively_decorated(S63, outcome.decoration)
    assert ok and failing == []


def test_decorate_refuses_non_bipartite():
    outcome = decorate(cyclic_minimal_triangulation(6, 3))
    assert outcome.decoration is None
    assert outcome.method == "none"
    assert outcome.diagnostics["odd_cycle"]


def test_decorate_balanced_complex_uses_coloring():
    K = SimplicialComplex.from_facets(3, 6, [(1, 2, 3, 4)])
    outcome = decorate(K)
    assert outcome.method == "coloring"
    ok, _ = is_positively_decorated(K, outcome.decoration)
    assert ok


def test_decorate_deterministic_per_seed():
    first = decorate(S63, restarts=50, seed=11)
    second = decorate(S63, restarts=50, seed=11)
    assert first.decoration == second.decoration
    assert first.diagnostics == second.diagnostics


@pytest.mark.parametrize("kwargs", [{"restarts": -1}, {"seed": -1},
                                    {"denom_bound": 0}, {"denom_bound": -5}])
def test_decorate_rejects_bad_search_settings(kwargs, monkeypatch):
    # rejected before any work: no dual graph is built
    monkeypatch.setattr("virodecor.completion.dual_graph", None)
    with pytest.raises(ValueError):
        decorate(S63, **kwargs)


def test_extract_decoration_rejects_a_bound_below_one():
    M = np.array([[float(x) for x in row]
                  for row in SND63_COMPLETED.to_lists()])
    with pytest.raises(ValueError, match="denom_bound"):
        extract_decoration(S63, M, denom_bound=0)
