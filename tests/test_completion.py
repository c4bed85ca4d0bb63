"""Ridge-sign decoration search."""

import re
from math import cos, radians, sin

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virodecor.complexes import (
    SimplicialComplex,
    dual_graph,
    is_bipartite,
    is_positively_decorated,
)
from virodecor.completion import decorate, ridge_signs
from virodecor.exactlinalg import RationalMatrix
from virodecor.families import cyclic_minimal_triangulation, snd_subcomplex


S63 = snd_subcomplex(6, 3)
# a 6-triangle Moebius band: its dual graph is a 6-cycle, so it is
# bipartite, but it has no balanced coloring and its ridge signs conflict
MOEBIUS = SimplicialComplex.from_facets(2, 6, [
    (1, 2, 4), (2, 4, 5), (2, 3, 5), (3, 5, 6), (3, 4, 6), (1, 4, 6)])
# a 5-triangle Moebius band: its dual graph is a 5-cycle, so it is not
# bipartite, yet the pentagram below decorates it
MOEBIUS5 = SimplicialComplex.from_facets(2, 5, [
    (1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 4, 5), (1, 2, 5)])
# column k at angle 144 k degrees on a circle of radius 1000
PENTAGRAM = RationalMatrix(list(zip(*(
    (round(1000 * cos(radians(144 * k))), round(1000 * sin(radians(144 * k))))
    for k in range(1, 6)))))
# three triangles on one edge: their dual graph is a triangle
BOOK3 = SimplicialComplex.from_facets(2, 5, [(1, 2, 3), (1, 2, 4), (1, 2, 5)])


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
    assert outcome.diagnostics == {
        "reason": "ridge signs conflict between adjacent facets",
        "facets": [[1, 2, 4, 5], [2, 3, 4, 5]],
    }


def test_decorate_non_bipartite_moebius_band():
    assert not is_bipartite(dual_graph(MOEBIUS5))
    assert is_positively_decorated(MOEBIUS5, PENTAGRAM) == (True, [])
    assert ridge_signs(MOEBIUS5)[1] is None
    outcome = decorate(MOEBIUS5, restarts=3)
    assert outcome.method == "sign search"
    assert is_positively_decorated(MOEBIUS5, outcome.decoration) == (True, [])


def test_decorate_non_bipartite_book_of_three_triangles():
    assert not is_bipartite(dual_graph(BOOK3))
    C = RationalMatrix([[1, 0, -1, -1, -1], [0, 1, -1, -1, -1]])
    assert is_positively_decorated(BOOK3, C) == (True, [])
    assert ridge_signs(BOOK3)[1] is None
    outcome = decorate(BOOK3, restarts=3)
    assert outcome.decoration is not None
    assert is_positively_decorated(BOOK3, outcome.decoration) == (True, [])


@st.composite
def cyclic_subcomplexes(draw):
    """A nonempty subset of the facets of a minimal cyclic triangulation."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(d + 1, d + 6))
    facets = cyclic_minimal_triangulation(n, d).facets
    keep = draw(st.lists(st.sampled_from(facets), min_size=1, unique=True))
    return SimplicialComplex.from_facets(d, n, keep)


@given(cyclic_subcomplexes())
@settings(max_examples=200, deadline=None)
def test_ridge_signs_conflict_iff_not_bipartite_in_a_triangulation(K):
    """Inside a triangulation, an odd cycle in the dual graph and a
    ridge-sign conflict go together."""
    assert (not is_bipartite(dual_graph(K))) == (ridge_signs(K)[1] is not None)


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


@pytest.mark.parametrize("kwargs", [
    {name: value} for value in (-1, True, 2.5, "3")
    for name in ("restarts", "seed")])
def test_decorate_rejects_bad_search_settings(kwargs, monkeypatch):
    """A negative number, a boolean and a non-integer are each refused,
    naming the setting."""
    # rejected before any work: no dual graph is built
    monkeypatch.setattr("virodecor.completion.dual_graph", None)
    [(name, value)] = kwargs.items()
    message = f"{name} must be a non-negative integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        decorate(S63, **kwargs)
