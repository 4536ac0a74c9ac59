import itertools
import random
from collections import Counter

from wicketlab.census import (
    GRID_EDGES,
    grid_system,
    iter_classified,
    minimal_free_example,
    run_census,
)
from wicketlab.hypergraph import find_63, find_wickets
from oracles import (
    grid_linear_systems,
    is_linear,
    share_table_covers_grid,
    share_table_has_63,
    share_table_has_wicket,
)

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
    assert (WICKET_IDS, True, False, True) in iter_classified()
    assert not share_table_has_63(WICKET_IDS)
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


def test_linear_five_sets_complete():
    seen = set()
    for ids, *_ in iter_classified():
        assert ids not in seen
        seen.add(ids)
        assert is_linear(grid_system(ids))
    assert len(seen) == FROZEN["linear"]


def test_bitmask_oracle_and_detector_classifiers_agree():
    """Every linear system, row for row and in order: the bitmask walk,
    the share-table oracle and the generic detectors run on the system
    classify alike, and the walk's cover flag matches the oracle's."""
    oracle = [
        (
            ids,
            share_table_has_wicket(ids),
            share_table_has_63(ids),
            share_table_covers_grid(ids),
        )
        for ids in grid_linear_systems(5)
    ]
    assert len(oracle) == FROZEN["linear"]
    assert list(iter_classified()) == oracle
    detectors = [
        (
            ids,
            bool(find_wickets(grid_system(ids), limit=1)),
            bool(find_63(grid_system(ids))),
        )
        for ids, *_ in oracle
    ]
    assert detectors == [row[:3] for row in oracle]
    assert run_census().full_coverage == sum(row[3] for row in oracle)


def test_classifiers_match_oracle_on_any_ids():
    """The (6,3) detector on a grid system keeps the share-table
    results on inputs the census never makes: non-linear systems, other
    sizes and repeated edges."""
    def has_63(ids):
        return bool(find_63(grid_system(ids)))

    rng = random.Random(13)
    linear = grid_linear_systems(5)
    for _ in range(3000):
        if rng.random() < 0.5:  # a linear system, edges in any order
            ids = tuple(rng.sample(rng.choice(linear), 5))
        else:
            ids = tuple(rng.randrange(27) for _ in range(rng.randint(0, 7)))
        assert has_63(ids) == share_table_has_63(ids), ids
    for ids in itertools.combinations(range(27), 3):
        assert has_63(ids) == share_table_has_63(ids), ids


def test_iter_classified_rows():
    rows = list(iter_classified())
    assert len(rows) == FROZEN["linear"]
    wick = sum(1 for _, w, _, _ in rows if w)
    six = sum(1 for _, _, s, _ in rows if s)
    neither = sum(1 for _, w, s, _ in rows if not w and not s)
    assert wick == FROZEN["wicket"]
    assert six == FROZEN["six_three"]
    assert neither == 0
    assert all(not (w and s) for _, w, s, _ in rows)


def test_coverage_field():
    rows = list(iter_classified())
    covered = sum(1 for ids, *_ in rows if share_table_covers_grid(ids))
    assert covered == FROZEN["full_coverage"]
    assert sum(1 for *_, covers in rows if covers) == covered


def test_minimal_free_example_is_valid():
    ids = minimal_free_example()
    assert ids is not None and len(ids) == 4
    h = grid_system(ids)
    assert is_linear(h)
    assert find_63(h) == []
    assert find_wickets(h) == []
    assert not share_table_has_63(ids)
    free = (s for s in grid_linear_systems(4) if not share_table_has_63(s))
    assert ids == next(free)


def test_degree_audit():
    """The two structural facts the census relies on, over the
    full-coverage linear systems: a vertex of degree 3 or more forces a
    (6,3) within nine vertices, and a system holding a wicket is exactly
    a wicket, with degree profile (2,2,2,2,2,2,1,1,1)."""
    systems = degree3_without_63 = wicket_profile_mismatches = 0
    profiles = Counter()
    for ids, has_wicket, _, _ in iter_classified():
        if not share_table_covers_grid(ids):
            continue
        systems += 1
        profile = tuple(sorted(_degrees(ids).values(), reverse=True))
        profiles[profile] += 1
        if profile[0] >= 3 and not share_table_has_63(ids):
            degree3_without_63 += 1
        if has_wicket and profile != WICKET_DEGREE_PROFILE:
            wicket_profile_mismatches += 1
    assert systems == FROZEN["full_coverage"]
    assert degree3_without_63 == 0
    assert wicket_profile_mismatches == 0
    assert profiles[WICKET_DEGREE_PROFILE] == 1566


def test_every_covering_wicket_free_system_has_63():
    """Degree arguments say a full-coverage linear system with a vertex
    of degree 3 always carries a (6,3); the census confirms no system
    escapes both patterns."""
    for ids, has_wicket, _, _ in iter_classified():
        if not has_wicket:
            assert share_table_has_63(ids)
