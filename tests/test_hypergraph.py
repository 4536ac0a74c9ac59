import random
import re

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
    six_threes_in_order,
    wickets_bruteforce,
    wickets_column_scan,
    with_repeated_edges,
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


BAD_INPUTS = [
    ((2, 2), (), "bad class sizes (2, 2)"),
    ((2, 2, 2, 2), (), "bad class sizes (2, 2, 2, 2)"),
    ((2, -1, 2), (), "bad class sizes (2, -1, 2)"),
    ((2, 2, 2), ((0, 0, 0), (0, 1)), "edge (0, 1) is not a triple"),
    ((2, 2, 2), ([0, 1, 1, 0],), "edge (0, 1, 1, 0) is not a triple"),
    (
        (2, 2, 2), ((2, 0, 0),),
        "edge (2, 0, 0): index 2 out of range for class 0",
    ),
    (
        (2, 3, 2), ((0, 3, 0),),
        "edge (0, 3, 0): index 3 out of range for class 1",
    ),
    (
        (2, 2, 2), ((0, 0, 2),),
        "edge (0, 0, 2): index 2 out of range for class 2",
    ),
    (
        (2, 2, 2), ((-1, 0, 0),),
        "edge (-1, 0, 0): index -1 out of range for class 0",
    ),
    (
        (2, 2, 2), ((0, -1, 0),),
        "edge (0, -1, 0): index -1 out of range for class 1",
    ),
    (
        (2, 2, 2), ((0, 0, -2),),
        "edge (0, 0, -2): index -2 out of range for class 2",
    ),
    # the first bad edge, and in it the first bad class, is reported
    (
        (2, 2, 2), ((1, 1, 1), (0, 5, 5), (5, 0, 0)),
        "edge (0, 5, 5): index 5 out of range for class 1",
    ),
    (
        (0, 2, 2), ((0, 0, 0),),
        "edge (0, 0, 0): index 0 out of range for class 0",
    ),
]


def test_constructor_validates_ranges():
    for sizes, edges, message in BAD_INPUTS:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TripartiteHypergraph(sizes, edges)


def test_constructor_takes_any_sequences():
    edges = iter([[1, 0, 2], (0, 0, 0), [1, 0, 2]])
    h = TripartiteHypergraph([2, 1, 3], edges)
    assert h.class_sizes == (2, 1, 3)
    assert h.edges == ((1, 0, 2), (0, 0, 0), (1, 0, 2))
    assert TripartiteHypergraph((0, 0, 0), ()).edges == ()


def test_vertex_and_edge_counts():
    assert GRID_WICKET.vertex_count == 9
    assert GRID_WICKET.edge_count == 5


def test_linearity():
    assert is_linear(GRID_WICKET)
    bad = TripartiteHypergraph((2, 2, 2), ((0, 0, 0), (0, 0, 1)))
    assert not is_linear(bad)


def test_find_wickets_on_canonical_grid():
    found = find_wickets(GRID_WICKET)
    assert found == [(0, 1, 2, 3, 4)]
    assert is_wicket_quintuple(GRID_WICKET, found[0])


def test_wicket_needs_all_nine_vertices():
    # remove one row: no wicket remains
    h = TripartiteHypergraph((3, 3, 3), GRID_WICKET.edges[1:])
    assert find_wickets(h) == []


def test_find_63_on_triangle():
    found = find_63(TRIANGLE)
    assert found == [(0, 1, 2)]
    assert is_63_triple(TRIANGLE, found[0])
    assert find_wickets(TRIANGLE) == []


def test_find_63_rejects_sunflower():
    # three edges through one common vertex span 7 vertices, not 6
    h = TripartiteHypergraph((1, 3, 3), ((0, 0, 0), (0, 1, 1), (0, 2, 2)))
    assert find_63(h) == []


def test_limit_short_circuits():
    assert len(find_wickets(GRID_WICKET, limit=1)) == 1


def test_detectors_match_bruteforce_small():
    rng = random.Random(5)
    for _ in range(25):
        h = random_linear_hypergraph(rng, sizes=(4, 4, 4), edges=9)
        assert set(map(frozenset, find_wickets(h))) == wickets_bruteforce(h)
        assert set(map(frozenset, find_63(h))) == six_threes_bruteforce(h)
    for _ in range(25):
        h = random_hypergraph(rng, sizes=(3, 3, 3), edges=8)
        assert set(map(frozenset, find_63(h))) == six_threes_bruteforce(h)


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
    yield from _repeated_edge_inputs()


def _repeated_edge_inputs():
    rng = random.Random(17)
    for _ in range(15):
        h = random_linear_hypergraph(rng, sizes=(5, 5, 5), edges=16)
        yield with_repeated_edges(h, rng, copies=4)
    for _ in range(15):
        h = random_hypergraph(rng, sizes=(4, 4, 4), edges=14)
        yield with_repeated_edges(h, rng, copies=4)
    yield with_repeated_edges(GRID_WICKET, rng, copies=5)


def test_find_wickets_matches_column_scan_in_order():
    """The list itself, order included, equals the all-edges column
    scan: color_edges resamples by list index, so order is output."""
    total = 0
    for h in _differential_inputs():
        for limit in (None, 1, 2):
            found = find_wickets(h, limit)
            assert found == wickets_column_scan(h, limit)
            assert all(is_wicket_quintuple(h, w) for w in found)
        total += len(find_wickets(h))
    assert total > 0


def test_find_63_matches_order_oracle():
    total = 0
    for h in _differential_inputs():
        found = find_63(h)
        assert found == six_threes_in_order(h)
        total += len(found)
    assert total > 0


def test_repeated_edges_are_separate_edges():
    # A repeat meets its twin in three vertices, so the two never share
    # a wicket or a (6,3), and each copy closes its own.
    h = TripartiteHypergraph((3, 3, 3), GRID_WICKET.edges + ((0, 0, 0),))
    assert find_wickets(h) == [
        (0, 1, 2, 3, 4), (1, 2, 3, 4, 5)
    ]
    t = TripartiteHypergraph((2, 2, 2), TRIANGLE.edges * 2)
    assert find_63(t) == [
        (0, 1, 2), (0, 1, 5), (0, 2, 4), (0, 4, 5),
        (1, 2, 3), (1, 3, 5), (2, 3, 4), (3, 4, 5),
    ]
    # the differential inputs with repeats really repeat edges, and
    # their repeats take part in wickets
    inputs = list(_repeated_edge_inputs())
    assert all(len(set(h.edges)) < h.edge_count for h in inputs)
    assert any(
        h.edges.count(h.edges[e]) > 1
        for h in inputs
        for w in find_wickets(h)
        for e in w
    )


def test_write_parse_roundtrip():
    # The `--out` format is written and never read, so its text is pinned.
    assert write_hypergraph_text(GRID_WICKET) == (
        "p tlh 3 3 3 5\n0 0 0\n1 1 1\n2 2 2\n0 1 2\n1 2 0\n"
    )
