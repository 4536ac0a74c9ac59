from collections import Counter
from itertools import combinations

from wicketlab.census import (
    GRID_EDGES,
    detector_classify,
    grid_system,
    iter_classified,
    iter_linear_five_sets,
    minimal_free_example,
    run_census,
    system_covers_grid,
    system_has_63,
    system_has_wicket,
)
from wicketlab.hypergraph import find_63, find_wickets
from oracles import is_linear

# row and column edges of one 3x3 grid wicket, as grid edge ids 9a+3b+c
WICKET_IDS = (0, 5, 13, 15, 26)
GRID_SIX = (0, 5, 13, 15, 19, 26)
WICKET_DEGREE_PROFILE = (2, 2, 2, 2, 2, 2, 1, 1, 1)

FROZEN = {
    "total_candidates": 80730,
    "linear": 3834,
    "wicket": 216,
    "six_three": 3618,
    "both": 0,
    "full_coverage": 2862,
}


def _degrees(ids):
    """Edge count per (class, index) vertex of a grid system."""
    return Counter(v for i in ids for v in enumerate(GRID_EDGES[i]))


def test_grid_edges_table():
    assert len(GRID_EDGES) == 27
    for i, (a, b, c) in enumerate(GRID_EDGES):
        assert i == 9 * a + 3 * b + c


def test_known_wicket_ids():
    assert system_has_wicket(WICKET_IDS)
    assert not system_has_63(WICKET_IDS)
    h = grid_system(WICKET_IDS)
    assert len(find_wickets(h)) == 1
    assert find_63(h) == []
    degrees = _degrees(WICKET_IDS)
    for cls in range(3):
        assert sorted(degrees[(cls, x)] for x in range(3)) == [1, 2, 2]
    assert tuple(sorted(degrees.values(), reverse=True)) == WICKET_DEGREE_PROFILE


def test_grid_six_contains_six_wickets():
    h = grid_system(GRID_SIX)
    assert len(find_wickets(h)) == 6


def test_run_census_matches_frozen_counts():
    rep = run_census()
    for key, value in FROZEN.items():
        assert getattr(rep, key) == value, key
    assert rep.counterexamples == ()
    assert rep.verified
    neither = len(rep.counterexamples)
    assert rep.wicket + rep.six_three - rep.both + neither == rep.linear


def test_detector_route_agrees():
    rep = run_census(use_detectors=True)
    for key, value in FROZEN.items():
        assert getattr(rep, key) == value, key


def test_linear_five_sets_complete():
    seen = set()
    for ids in iter_linear_five_sets():
        assert ids not in seen
        seen.add(ids)
        assert is_linear(grid_system(ids))
    assert len(seen) == FROZEN["linear"]


def test_table_and_detector_classifiers_agree_sampled():
    for i, ids in enumerate(iter_linear_five_sets()):
        if i % 17:
            continue
        assert (system_has_wicket(ids), system_has_63(ids)) == detector_classify(ids)


def test_iter_classified_rows():
    rows = list(iter_classified(False))
    assert len(rows) == FROZEN["linear"]
    wick = sum(1 for _, w, _ in rows if w)
    six = sum(1 for _, _, s in rows if s)
    neither = sum(1 for _, w, s in rows if not w and not s)
    assert wick == FROZEN["wicket"]
    assert six == FROZEN["six_three"]
    assert neither == 0
    assert all(not (w and s) for _, w, s in rows)


def test_coverage_field():
    covered = sum(1 for ids in iter_linear_five_sets() if system_covers_grid(ids))
    assert covered == FROZEN["full_coverage"]


def test_minimal_free_example_is_valid():
    ids = minimal_free_example()
    assert ids is not None and len(ids) == 4
    h = grid_system(ids)
    assert is_linear(h)
    assert find_63(h) == []
    assert find_wickets(h) == []
    assert not system_has_63(ids)


def test_degree_audit():
    """The two structural facts the census relies on, over the
    full-coverage linear systems: a vertex of degree 3 or more forces a
    (6,3) within nine vertices, and a system holding a wicket is exactly
    a wicket, with degree profile (2,2,2,2,2,2,1,1,1)."""
    systems = degree3_without_63 = wicket_profile_mismatches = 0
    profiles = Counter()
    for ids in iter_linear_five_sets():
        if not system_covers_grid(ids):
            continue
        systems += 1
        profile = tuple(sorted(_degrees(ids).values(), reverse=True))
        profiles[profile] += 1
        if profile[0] >= 3 and not system_has_63(ids):
            degree3_without_63 += 1
        if system_has_wicket(ids) and profile != WICKET_DEGREE_PROFILE:
            wicket_profile_mismatches += 1
    assert systems == FROZEN["full_coverage"]
    assert degree3_without_63 == 0
    assert wicket_profile_mismatches == 0
    assert profiles[WICKET_DEGREE_PROFILE] == 1566


def test_every_covering_wicket_free_system_has_63():
    """Degree arguments say a full-coverage linear system with a vertex
    of degree 3 always carries a (6,3); the census confirms no system
    escapes both patterns."""
    for ids in iter_linear_five_sets():
        if not system_has_wicket(ids):
            assert system_has_63(ids)
