import functools
import math
import random
import tracemalloc
from array import array

import pytest

from wicketlab import coloring, construction
from wicketlab.coloring import color_edges, colors_needed
from wicketlab.construction import build_eisenstein, build_f3, build_modular
from wicketlab.eisenstein import region_points
from wicketlab.errors import ColoringBudgetError, IncompleteWicketListError
from wicketlab.hypergraph import find_wickets
from oracles import binary_cap, color_edges_per_wicket, plane_wickets_point_scan
from test_construction import _plane_test_caps


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
    stuck = (0, 0, 0, 0, 0)
    monkeypatch.setattr(construction, "build_wickets", lambda build: [stuck])
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
    def no_families(build):
        no_edges = array("i", [0]) * (build.hypergraph.edge_count + 1)
        return 6, array("i"), no_edges, array("i")

    monkeypatch.setattr(coloring, "wicket_families", no_families)
    with pytest.raises(IncompleteWicketListError):
        color_edges(build_f3(binary_cap(2)), seed=2)


def test_color_f3_memory_stays_small():
    # {0,1}^4 has 19440 wickets; colored from its 3240 plane families in
    # one flat edge array with 4-byte entries it peaks near 0.31 MiB, where
    # a tuple pair per family took 1.4 and one witness object per wicket 5.3.
    b = build_f3(binary_cap(4))
    tracemalloc.start()
    try:
        color_edges(b, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@functools.cache
def _oracle_inputs() -> list:
    """(build, its wickets in coloring order) for all three families:
    GF(3) in plane-family order from the point scan, the others in
    detector order."""
    inputs = []
    for cap in _plane_test_caps():
        b = build_f3(cap)
        inputs.append((b, plane_wickets_point_scan(b)))
    rng = random.Random(7)
    builds = [build_modular(range(0, 43, 3), 7)]  # 10492 wickets
    for k in range(3, 8):
        n = k * k - k + 1
        for _ in range(3):
            builds.append(build_modular(rng.sample(range(n), rng.randint(3, 9)), k))
    for bound in range(4):
        for norm in ("coordinate", "ring"):
            pool = region_points(bound + 2, norm)
            S = rng.sample(pool, rng.randint(2, min(len(pool), 9)))
            builds.append(build_eisenstein(S, bound, norm=norm))
    for b in builds:
        inputs.append((b, find_wickets(b.hypergraph)))
    return inputs


@pytest.mark.parametrize("factor", [1, 0])
def test_color_edges_matches_per_wicket_oracle(monkeypatch, factor):
    # Resampling families must redraw the edges of the lowest violated
    # wicket each time, so every result is that of the per-wicket loop;
    # a budget of 0 or 1 per wicket makes some attempts, or all, run out.
    monkeypatch.setattr(coloring, "RESAMPLE_FACTOR", factor)
    # Each build is colored with ten seeds; list its families once (builds
    # hash by identity, and color_edges only reads the arrays).
    monkeypatch.setattr(
        coloring, "wicket_families", functools.cache(construction.wicket_families)
    )
    outcomes = set()
    for b, wickets in _oracle_inputs():
        for seed in range(10):
            kind, want = color_edges_per_wicket(b, wickets, seed, 3, factor)
            if kind == "budget":
                with pytest.raises(ColoringBudgetError) as info:
                    color_edges(b, seed=seed, attempts=3)
                assert info.value.diagnostics == want, (b.directions, seed)
                outcomes.add(kind)
                continue
            sel = color_edges(b, seed=seed, attempts=3)
            c = sel.coloring
            got = (c.attempt, c.resamples, c.assignment, sel.color, sel.edge_ids)
            assert got == want, (b.directions, seed)
            assert c.wickets == len(wickets)
            outcomes.add("retried" if c.attempt else "first")
    # with no resamples allowed, some colorings run out and some succeed
    # only on a later attempt
    assert factor or outcomes == {"budget", "retried", "first"}
