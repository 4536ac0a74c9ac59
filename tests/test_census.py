from itertools import combinations

from wicketlab.census import (
    GRID_EDGES,
    WICKET_DEGREE_PROFILE,
    degree_audit,
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

# row and column edges of one 3x3 grid wicket, as grid edge ids 9a+3b+c
WICKET_IDS = (0, 5, 13, 15, 26)
GRID_SIX = (0, 5, 13, 15, 19, 26)

FROZEN = {
    "total_candidates": 80730,
    "linear": 3834,
    "wicket": 216,
    "six_three": 3618,
    "both": 0,
    "full_coverage": 2862,
}


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
    assert h.degree_profile() == ((2, 2, 1),) * 3
    flat = tuple(
        sorted((d for cls in h.degree_profile() for d in cls), reverse=True)
    )
    assert flat == WICKET_DEGREE_PROFILE


def test_grid_six_contains_six_wickets():
    h = grid_system(GRID_SIX)
    assert len(find_wickets(h)) == 6


def test_run_census_matches_frozen_counts():
    rep = run_census()
    for key, value in FROZEN.items():
        assert getattr(rep, key) == value, key
    assert rep.counterexamples == ()
    assert rep.verified
    assert rep.consistent()


def test_detector_route_agrees():
    rep = run_census(use_detectors=True)
    for key, value in FROZEN.items():
        assert getattr(rep, key) == value, key


def test_linear_five_sets_complete():
    seen = set()
    for ids in iter_linear_five_sets():
        assert ids not in seen
        seen.add(ids)
        assert grid_system(ids).is_linear
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
    assert h.is_linear
    assert find_63(h) == []
    assert find_wickets(h) == []
    assert not system_has_63(ids)


def test_degree_audit():
    audit = degree_audit()
    assert audit.systems == FROZEN["full_coverage"]
    assert audit.degree3_without_63 == 0
    assert audit.wicket_profile_mismatches == 0
    profiles = dict(audit.profiles)
    assert profiles[WICKET_DEGREE_PROFILE] == 1566


def test_every_covering_wicket_free_system_has_63():
    """Degree arguments say a full-coverage linear system with a vertex
    of degree 3 always carries a (6,3); the census confirms no system
    escapes both patterns."""
    for ids in iter_linear_five_sets():
        if not system_has_wicket(ids):
            assert system_has_63(ids)
