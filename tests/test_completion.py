"""Ridge-sign decoration search."""

import numpy as np
import pytest

from virodecor.complexes import SimplicialComplex, is_positively_decorated
from virodecor.completion import decorate, ridge_signs
from virodecor.families import cyclic_minimal_triangulation, snd_subcomplex


S63 = snd_subcomplex(6, 3)
# a 6-triangle Moebius band: its dual graph is a 6-cycle, so it is
# bipartite, but it has no balanced coloring and its ridge signs conflict
MOEBIUS = SimplicialComplex.from_facets(2, 6, [
    (1, 2, 4), (2, 4, 5), (2, 3, 5), (3, 5, 6), (3, 4, 6), (1, 4, 6)])


def test_pattern_single_simplex():
    # eps = +1 on the only facet, so the ridge without s_i gets (-1)^i
    K = SimplicialComplex.from_facets(2, 3, [(1, 2, 3)])
    assert ridge_signs(K) == ({(2, 3): 1, (1, 3): -1, (1, 2): 1}, None)


def test_pattern_snd115():
    K = snd_subcomplex(11, 5)
    targets, conflict = ridge_signs(K)
    assert conflict is None
    assert set(targets) == {f[:i] + f[i + 1:]
                            for f in K.facets for i in range(6)}
    assert all(abs(chi) == 1 for chi in targets.values())


def test_ridge_sign_conflict_proves_no_decoration():
    targets, conflict = ridge_signs(MOEBIUS)
    assert targets == {} and conflict == ((2, 3, 5), (3, 5, 6))
    outcome = decorate(MOEBIUS)
    assert outcome.decoration is None
    assert outcome.method == "none"
    assert outcome.diagnostics == {
        "reason": "ridge signs conflict between adjacent facets",
        "facets": [[2, 3, 5], [3, 5, 6]],
    }


def test_decorate_snd63_via_completion():
    outcome = decorate(S63, restarts=50, seed=0)
    assert outcome.method == "sign search"
    ok, failing = is_positively_decorated(S63, outcome.decoration)
    assert ok and failing == []


@pytest.mark.parametrize("n, d", [(6, 3), (8, 3), (8, 5), (11, 5)])
def test_sign_search_rounds_over_one_denominator(n, d):
    K = snd_subcomplex(n, d)
    outcome = decorate(K, restarts=3, seed=0)
    assert outcome.method == "sign search"
    assert outcome.diagnostics["denominator"] in (10 ** 3, 10 ** 6)
    assert all(10 ** 6 % x.denominator == 0
               for row in outcome.decoration.to_lists() for x in row)
    assert is_positively_decorated(K, outcome.decoration)[0]


def test_an_exactly_singular_ridge_matrix_ends_the_restart(monkeypatch):
    def singular(M):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    outcome = decorate(S63, restarts=2)
    assert outcome.decoration is None
    assert outcome.diagnostics == {
        "reason": "sign search did not produce a verified decoration",
        "restarts": 2,
    }


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


@pytest.mark.parametrize("kwargs", [{"restarts": -1}, {"seed": -1}])
def test_decorate_rejects_bad_search_settings(kwargs, monkeypatch):
    # rejected before any work: no dual graph is built
    monkeypatch.setattr("virodecor.completion.dual_graph", None)
    with pytest.raises(ValueError):
        decorate(S63, **kwargs)
