import math
import tracemalloc

import pytest

from wicketlab import coloring
from wicketlab.coloring import color_edges, colors_needed
from wicketlab.construction import build_f3, build_modular
from wicketlab.errors import ColoringBudgetError, IncompleteWicketListError
from wicketlab.gf3 import binary_cap, max_cap_exact
from wicketlab.hypergraph import WicketWitness, find_wickets


def test_colors_needed_values():
    assert colors_needed(0) == 2
    assert colors_needed(1) == 4
    assert colors_needed(2) == 4
    assert colors_needed(3) == 5
    assert colors_needed(8) == 6
    for s in range(1, 40):
        k = colors_needed(s)
        assert k >= 2 and k ** 4 >= 120 * s
        assert k == 2 or (k - 1) ** 4 < 120 * s
    with pytest.raises(ValueError):
        colors_needed(-1)


def test_color_edges_selects_large_clean_class():
    b = build_f3(binary_cap(2))
    sel = color_edges(b, seed=0)
    k = sel.coloring.color_count
    assert k == colors_needed(4)
    assert len(sel.edge_ids) >= math.ceil(b.hypergraph.edge_count / k)
    assert find_wickets(sel.hypergraph) == []
    assert sel.hypergraph.class_sizes == b.hypergraph.class_sizes
    chosen = {b.hypergraph.edges[i] for i in sel.edge_ids}
    assert set(sel.hypergraph.edges) <= set(b.hypergraph.edges)
    assert set(sel.hypergraph.edges) == chosen


def test_color_edges_deterministic_per_seed():
    b = build_f3(binary_cap(2))
    one = color_edges(b, seed=5)
    two = color_edges(b, seed=5)
    assert one.edge_ids == two.edge_ids
    assert one.color == two.color
    assert one.coloring.assignment == two.coloring.assignment
    other = color_edges(b, seed=6)
    # different seed may land elsewhere but must still verify
    assert find_wickets(other.hypergraph) == []


def test_color_edges_wicket_free_build_trivial():
    b = build_modular((0, 1, 3), 3)
    sel = color_edges(b, seed=0)
    assert sel.coloring.resamples == 0
    assert find_wickets(sel.hypergraph) == []


def test_color_edges_budget_exhaustion_diagnostics(monkeypatch):
    b = build_modular((0, 1, 3), 3)
    # a degenerate "wicket" naming one edge five times can never become
    # polychromatic, so every attempt must exhaust its budget
    stuck = WicketWitness((0, 0, 0), (0, 0))
    monkeypatch.setattr(coloring, "build_wickets", lambda build: [stuck])
    with pytest.raises(ColoringBudgetError) as info:
        color_edges(b, seed=0, attempts=3)
    diag = info.value.diagnostics
    assert diag["attempts"] == 3
    assert diag["wickets"] == 1
    assert diag["seed"] == 0
    assert diag["resamples"] >= diag["budget_per_attempt"]
    assert "3" in str(info.value)


@pytest.mark.parametrize("attempts", [0, -2])
def test_color_edges_rejects_attempts_below_1(attempts):
    b = build_f3(binary_cap(2))
    with pytest.raises(ValueError, match="at least 1"):
        color_edges(b, seed=0, attempts=attempts)


def test_color_edges_rejects_incomplete_wicket_list(monkeypatch):
    # an empty index leaves seed 2's chosen class with a wicket
    class NoWickets(list):
        def __init__(self, build):
            super().__init__()

        def containing(self, edge):
            return ()

    monkeypatch.setattr(coloring, "PlaneWickets", NoWickets)
    with pytest.raises(IncompleteWicketListError):
        color_edges(build_f3(binary_cap(2)), seed=2)


def test_color_f3_memory_stays_small():
    # {0,1}^4 has 19440 wickets; colored from its 3240 plane families in
    # one flat edge array it peaks near 0.46 MiB, where a tuple pair per
    # family took 1.4 and one witness object per wicket 5.3.
    b = build_f3(binary_cap(4))
    tracemalloc.start()
    try:
        color_edges(b, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
