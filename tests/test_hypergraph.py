import random

import pytest

from wicketlab.construction import build_eisenstein, build_modular
from wicketlab.eisenstein import region_points
from wicketlab.hypergraph import (
    TripartiteHypergraph,
    find_63,
    find_wickets,
    write_hypergraph_text,
)
from oracles import (
    is_63_triple,
    is_linear,
    is_wicket_quintuple,
    random_hypergraph,
    random_linear_hypergraph,
    six_threes_bruteforce,
    wickets_bruteforce,
    wickets_column_scan,
)

GRID_WICKET = TripartiteHypergraph(
    (3, 3, 3),
    (
        (0, 0, 0),  # row 1
        (1, 1, 1),  # row 2
        (2, 2, 2),  # row 3
        (0, 1, 2),  # column 1
        (1, 2, 0),  # column 2
    ),
)

TRIANGLE = TripartiteHypergraph(
    (2, 2, 2),
    ((0, 0, 0), (0, 1, 1), (1, 0, 1)),
)


def test_constructor_validates_ranges():
    with pytest.raises(ValueError):
        TripartiteHypergraph((2, 2, 2), ((0, 0, 2),))
    with pytest.raises(ValueError):
        TripartiteHypergraph((2, 2), ((0, 0, 0),))


def test_vertex_and_edge_counts():
    assert GRID_WICKET.vertex_count == 9
    assert GRID_WICKET.edge_count == 5


def test_linearity():
    assert is_linear(GRID_WICKET)
    bad = TripartiteHypergraph((2, 2, 2), ((0, 0, 0), (0, 0, 1)))
    assert not is_linear(bad)


def test_find_wickets_on_canonical_grid():
    found = find_wickets(GRID_WICKET)
    assert len(found) == 1
    wit = found[0]
    assert wit.rows == (0, 1, 2)
    assert wit.columns == (3, 4)
    assert is_wicket_quintuple(GRID_WICKET, wit.edge_ids)


def test_wicket_needs_all_nine_vertices():
    # remove one row: no wicket remains
    h = TripartiteHypergraph((3, 3, 3), GRID_WICKET.edges[1:])
    assert find_wickets(h) == []


def test_find_63_on_triangle():
    found = find_63(TRIANGLE)
    assert len(found) == 1
    wit = found[0]
    assert wit.edges == (0, 1, 2)
    assert is_63_triple(TRIANGLE, wit.edges)
    assert find_wickets(TRIANGLE) == []


def test_find_63_rejects_sunflower():
    # three edges through one common vertex span 7 vertices, not 6
    h = TripartiteHypergraph((1, 3, 3), ((0, 0, 0), (0, 1, 1), (0, 2, 2)))
    assert find_63(h) == []


def test_limit_short_circuits():
    assert len(find_wickets(GRID_WICKET, limit=1)) == 1
    assert len(find_63(TRIANGLE, limit=1)) == 1


def test_detectors_match_bruteforce_small():
    rng = random.Random(5)
    for _ in range(25):
        h = random_linear_hypergraph(rng, sizes=(4, 4, 4), edges=9)
        assert {frozenset(w.edge_ids) for w in find_wickets(h)} == wickets_bruteforce(h)
        assert {frozenset(w.edges) for w in find_63(h)} == six_threes_bruteforce(h)
    for _ in range(25):
        h = random_hypergraph(rng, sizes=(3, 3, 3), edges=8)
        assert {frozenset(w.edges) for w in find_63(h)} == six_threes_bruteforce(h)


def _differential_inputs():
    rng = random.Random(11)
    for _ in range(20):
        yield random_linear_hypergraph(rng, sizes=(5, 5, 5), edges=16)
    for _ in range(20):
        yield random_hypergraph(rng, sizes=(4, 4, 4), edges=18)
    for k in (2, 3, 4):
        n = k * k - k + 1
        for size in (3, 4, 5):
            yield build_modular(rng.sample(range(n), min(size, n)), k).hypergraph
    for bound in (1, 2):
        disc = region_points(bound)
        for size in (3, 4, 5):
            yield build_eisenstein(rng.sample(disc, size), bound).hypergraph


def test_find_wickets_matches_column_scan_in_order():
    """The list itself, order included, equals the all-edges column
    scan: color_edges resamples by list index, so order is output."""
    total = 0
    for h in _differential_inputs():
        for limit in (None, 1, 2):
            found = find_wickets(h, limit)
            assert found == wickets_column_scan(h, limit)
            assert all(is_wicket_quintuple(h, w.edge_ids) for w in found)
        total += len(find_wickets(h))
    assert total > 0


def test_write_parse_roundtrip():
    # The `--out` format is written and never read, so its text is pinned.
    assert write_hypergraph_text(GRID_WICKET) == (
        "p tlh 3 3 3 5\n0 0 0\n1 1 1\n2 2 2\n0 1 2\n1 2 0\n"
    )
