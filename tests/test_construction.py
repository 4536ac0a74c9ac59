import hashlib
import itertools
import math
import random
import tracemalloc

import pytest

from wicketlab import construction
from wicketlab.coloring import color_edges, colors_needed
from wicketlab.construction import (
    Build,
    build_eisenstein,
    build_f3,
    build_modular,
    build_wickets,
    plane_wicket_counts,
    wicket_dependency_degree,
    wicket_families,
)
from wicketlab.eisenstein import EisensteinPoint, OMEGA, ROT60, ZERO, region_points
from wicketlab.gf3 import CapSet, max_cap_exact, verify_cap
from wicketlab.hypergraph import find_63, find_wickets, write_hypergraph_text
from oracles import (
    ap3_free_cubic,
    binary_cap,
    constant_solves,
    decode_wicket,
    dependency_degree_by_list,
    is_linear,
    plane_wickets_point_scan,
    provenance,
    wicket_directions,
    wicket_system_spec,
    wickets_by_edge,
)

# wicket-free / wicket-carrying direction sets found by exhausting all
# subsets against both the detector and the direction systems
K2_FREE = (0,)
K2_POISONED = (0, 1)
K3_FREE = (0, 1, 3)
K3_POISONED = (0, 1, 2, 3)
EIS_FREE = tuple(
    sorted(
        {
            EisensteinPoint(-1, 0),
            EisensteinPoint(-1, 1),
            EisensteinPoint(0, -1),
            EisensteinPoint(0, 1),
            EisensteinPoint(1, -1),
            EisensteinPoint(1, 0),
        }
    )
)
EIS_POISONED = tuple(sorted(EIS_FREE + (EisensteinPoint(-1, -1),)))


def test_build_f3_requires_verified_cap():
    raw = CapSet(dimension=1, elements=frozenset({(0,), (1,)}))
    with pytest.raises(ValueError):
        build_f3(raw)


def test_build_f3_shape_n1():
    b = build_f3(max_cap_exact(1))
    h = b.hypergraph
    assert h.class_sizes == (3, 3, 3)
    assert h.edge_count == 6
    assert is_linear(h)
    assert find_63(h) == []
    wickets = build_wickets(b)
    assert len(wickets) == 6
    size, edges, _, _ = wicket_families(b)
    assert (size, len(edges)) == (6, 6)  # one plane family
    assert dependency_degree_by_list(wickets) == 5


def test_build_f3_shape_n2():
    b = build_f3(binary_cap(2))
    h = b.hypergraph
    assert h.edge_count == 36 and h.vertex_count == 27
    assert is_linear(h) and find_63(h) == []
    size, edges, _, _ = wicket_families(b)
    assert (size, len(edges)) == (6, 6 * 18)  # 18 plane families
    wickets = build_wickets(b)
    assert len(wickets) == 108
    assert dependency_degree_by_list(wickets) == 55


def test_plane_enumeration_matches_detector():
    for cap in (max_cap_exact(1), binary_cap(2)):
        b = build_f3(cap)
        plane = {frozenset(w.edge_ids) for w in build_wickets(b)}
        generic = {frozenset(w.edge_ids) for w in find_wickets(b.hypergraph)}
        assert plane == generic


def _random_cap(rng, n):
    vectors = list(itertools.product(range(3), repeat=n))
    rng.shuffle(vectors)
    target = rng.randint(1, 2 + 2 * n)
    chosen = []
    for v in vectors:
        if len(chosen) < target and ap3_free_cubic(chosen + [v]):
            chosen.append(v)
    return verify_cap(n, chosen)


def _plane_test_caps():
    caps = [binary_cap(n) for n in range(1, 5)]
    caps += [max_cap_exact(n) for n in range(1, 4)]
    caps += [
        verify_cap(1, [(1,), (2,)]),  # t = 2s: the plane is all of F_3^2
        verify_cap(2, [(1, 1), (2, 2)]),
        verify_cap(3, [(0, 0, 0), (0, 1, 2), (1, 1, 1), (2, 0, 1)]),
        verify_cap(3, [(1, 2, 0)]),  # one direction: no wicket
        CapSet(2, frozenset(), verified=True),
    ]
    rng = random.Random(5)
    caps += [_random_cap(rng, n) for n in range(1, 5) for _ in range(20)]
    return caps


def test_plane_wickets_match_point_scan_in_order():
    # build_wickets lists a GF(3) build in find_wickets order, the point
    # scan in plane-family order: the same wickets, counted by formula.
    for cap in _plane_test_caps():
        b = build_f3(cap)
        wickets = build_wickets(b)
        if cap.dimension <= 3:
            assert wickets == find_wickets(b.hypergraph), cap
        assert set(wickets) == set(plane_wickets_point_scan(b)), cap
        m, n = len(cap), cap.dimension
        assert len(wickets) == 6 * math.comb(m, 2) * 3 ** (n - 1)


def test_plane_wickets_match_wicket_list(monkeypatch):
    # The flat family storage against the independent point scan, in
    # plane-family order: wicket 6f + r is family f without its edge r,
    # and an edge's families are those of the scan's wickets holding it,
    # so the coloring is the one the listed wickets give. The listed
    # coloring is that of the same build without plane families, whose
    # wickets wicket_families takes from build_wickets, patched to the scan.
    for cap in _plane_test_caps():
        b = build_f3(cap)
        witnesses = plane_wickets_point_scan(b)
        scan = [w.edge_ids for w in witnesses]
        listed = Build(b.directions, b.bases, b.hypergraph, b.ring, False)
        monkeypatch.setattr(construction, "build_wickets", lambda _: witnesses)
        size, edges, starts, ids = wicket_families(b)
        assert size == 6 and len(edges) == len(scan), cap
        items = []
        for idx in range(len(edges)):
            family = list(edges[idx - idx % 6 : idx - idx % 6 + 6])
            del family[idx % 6]
            items.append(tuple(family))
        assert items == scan, cap
        by_edge = wickets_by_edge(scan)
        assert len(starts) == b.hypergraph.edge_count + 1, cap
        for e in range(b.hypergraph.edge_count):
            families = sorted({idx // 6 for idx in by_edge.get(e, ())})
            assert list(ids[starts[e] : starts[e + 1]]) == families, (cap, e)
        for seed in range(5):
            one = color_edges(b, seed=seed)
            two = color_edges(listed, seed=seed)
            assert one.coloring == two.coloring, (cap, seed)
            assert (one.color, one.edge_ids) == (two.color, two.edge_ids)


def test_gf3_dependency_degree_closed_form():
    # Each wicket meets the other five of its plane family and, through
    # each of its five edges, 5(m - 2) wickets of other planes; with one
    # direction or none there is no wicket.
    caps = [c for c in _plane_test_caps() if c.dimension <= 3] + [binary_cap(4)]
    for cap in caps:
        b = build_f3(cap)
        wickets = build_wickets(b)
        degree = dependency_degree_by_list(wickets)
        m = len(cap)
        assert degree == (25 * m - 45 if m >= 2 else 0), cap
        assert plane_wicket_counts(b) == (len(wickets), degree), cap
    with pytest.raises(ValueError):
        plane_wicket_counts(build_modular(K3_FREE, 3))
    with pytest.raises(ValueError):
        wicket_dependency_degree(wicket_families(build_f3(binary_cap(2))))


def test_local_lemma_slack_below_ceiling():
    # With k^4 >= 120m and d = 25m - 45, the slack e(d + 1)/k^4 stays
    # below 25e/120 for every cap size.
    for m in range(2, 5000):
        k = colors_needed(m)
        assert math.e * (25 * m - 44) / k**4 < 25 * math.e / 120


def test_single_direction_has_no_wickets():
    b = build_f3(verify_single := CapSet(1, frozenset({(0,)}), verified=True))
    assert len(wicket_families(b)[1]) == 0
    assert find_wickets(b.hypergraph) == []


def test_f3_wickets_decode_to_degenerate_pattern():
    b = build_f3(binary_cap(2))
    for wit in build_wickets(b):
        d = decode_wicket(b, wit)
        assert d["t"] == d["v"] == d["w"]
        assert d["s"] == d["u"]
        assert d["s"] != d["t"]


def test_decode_rejects_foreign_witness():
    from wicketlab.hypergraph import WicketWitness

    b = build_f3(max_cap_exact(1))
    # edges 0 and 3 share the class-A vertex 0, so this split is no wicket
    assert decode_wicket(b, WicketWitness((0, 1, 3), (2, 4))) is None


def test_edge_order_is_deterministic():
    a = build_f3(binary_cap(2)).hypergraph.edges
    b = build_f3(binary_cap(2)).hypergraph.edges
    assert a == b


def test_build_modular_shapes():
    b = build_modular(K3_FREE, 3)
    h = b.hypergraph
    assert h.class_sizes == (7, 7, 7)
    assert h.edge_count == 21
    assert is_linear(h)
    assert find_wickets(h) == []
    # elements normalize mod n and dedup
    same = build_modular((0, 1, 3, 7, -4), 3)
    assert same.directions == (0, 1, 3)


def test_build_modular_poisoned_has_wickets():
    b = build_modular(K3_POISONED, 3)
    assert len(find_wickets(b.hypergraph)) > 0


def test_build_eisenstein_shapes():
    b = build_eisenstein(EIS_FREE, 2)
    h = b.hypergraph
    assert h.edge_count == len(EIS_FREE) * len(b.bases)
    assert is_linear(h)
    assert find_wickets(h) == []
    assert len(b.bases) == 9
    # expanded vertex set keeps all three shifted copies of the region
    shifted = {
        a + d for a in b.bases for s in EIS_FREE for d in (ZERO, -s, OMEGA * s)
    }
    assert h.class_sizes == (len(shifted),) * 3


def test_build_eisenstein_poisoned_has_wickets():
    b = build_eisenstein(EIS_POISONED, 2)
    assert len(find_wickets(b.hypergraph, limit=1)) == 1


def test_modular_system_constant_satisfies():
    for k in (2, 3, 4):
        spec = wicket_system_spec(k, k * k - k + 1)
        assert constant_solves(spec, 1)


def test_modular_witness_equivalence_exhaustive():
    from itertools import combinations

    for k in (2, 3):
        n = k * k - k + 1
        for r in range(1, n + 1):
            for S in combinations(range(n), r):
                build = build_modular(S, k)
                wickets = build_wickets(build)
                assert wickets == find_wickets(build.hypergraph), (k, S)
                assert bool(wickets) == (wicket_directions(S, k, n) is not None)


def test_modular_witness_points_at_real_wicket():
    # Every listed wicket carries the construction labelling of the
    # system: columns (x, s), (y, u) and rows (x, w), (y, t), (z, v).
    for k, S in ((2, K2_POISONED), (3, K3_POISONED), (3, (0, 1, 4))):
        build = build_modular(S, k)
        wickets = build_wickets(build)
        assert wickets and wickets == find_wickets(build.hypergraph)
        edge_of = {pair: idx for idx, pair in enumerate(provenance(build))}
        for wit in wickets:
            d = decode_wicket(build, wit)
            ids = {
                edge_of[(d["x"], d["s"])],
                edge_of[(d["y"], d["u"])],
                edge_of[(d["x"], d["w"])],
                edge_of[(d["y"], d["t"])],
                edge_of[(d["z"], d["v"])],
            }
            assert ids == set(wit.edge_ids)


def test_modular_decode_satisfies_system():
    k, S = 3, (0, 1, 4)
    n = 7
    build = build_modular(S, k)
    for wit in find_wickets(build.hypergraph):
        d = decode_wicket(build, wit)
        assert (d["s"] - d["t"] + k * d["u"] - k * d["w"]) % n == 0
        assert ((k - 1) * d["s"] + d["t"] - d["u"] - (k - 1) * d["v"]) % n == 0
        assert d["s"] != d["t"] and d["s"] != d["w"] and d["t"] != d["u"]
        assert d["y"] == (d["x"] + d["s"] - d["t"]) % n
        assert d["z"] == (d["x"] + k * d["s"] - k * d["v"]) % n


def test_eisenstein_witness_equivalence_small_region():
    from itertools import combinations

    region = region_points(1, "coordinate")
    for r in range(1, len(region) + 1):
        for S in combinations(region, r):
            build = build_eisenstein(S, 1)
            assert build_wickets(build) == find_wickets(build.hypergraph), S


def test_eisenstein_witness_fixture_pair():
    assert build_wickets(build_eisenstein(EIS_FREE, 2)) == []
    build = build_eisenstein(EIS_POISONED, 2)
    wickets = build_wickets(build)
    assert wickets and wickets == find_wickets(build.hypergraph)
    for wit in wickets:
        d = decode_wicket(build, wit)
        assert d["s"] - d["t"] - OMEGA * d["u"] + OMEGA * d["w"] == ZERO
        assert ROT60 * d["s"] - d["t"] + d["u"] - ROT60 * d["v"] == ZERO
        assert d["y"] == d["x"] - d["s"] + d["t"]
        assert d["z"] == d["x"] + OMEGA * (d["s"] - d["v"])
        for base in ("x", "y", "z"):
            assert d[base] in build.bases


def test_eisenstein_solution_without_feasible_base():
    """Directions outside the disc can solve the system while no base
    keeps all three anchor points inside; such sets stay wicket-free,
    which is why build_wickets keeps only solutions with three bases."""
    from itertools import combinations

    pool = region_points(3, "ring")
    cases = []
    for r in (2, 3):
        for S in combinations(pool, r):
            if wicket_directions(S, -OMEGA) is None:
                continue
            if build_wickets(build_eisenstein(S, 1)) == []:
                cases.append(S)
    assert cases, "expected direction-feasible, base-infeasible sets"
    for S in cases[:6]:
        assert find_wickets(build_eisenstein(S, 1).hypergraph) == []


def test_build_wickets_matches_detector_seeded():
    # The solved list against the detector, order included, on seeded
    # sets of all three families; sets need not be progression-free.
    rng = random.Random(18)
    builds = []
    for k in range(2, 8):
        n = k * k - k + 1
        for _ in range(8):
            S = rng.sample(range(n), rng.randint(0, min(n, 9)))
            builds.append(build_modular(S, k))
    for bound in range(4):
        for norm in ("coordinate", "ring"):
            pool = region_points(bound + 2, norm)
            for _ in range(5):
                S = rng.sample(pool, rng.randint(0, min(len(pool), 7)))
                builds.append(build_eisenstein(S, bound, norm=norm))
    builds += [build_f3(_random_cap(rng, n)) for n in (1, 2, 3) for _ in range(4)]
    wicketed = 0
    for b in builds:
        wickets = build_wickets(b)
        detected = find_wickets(b.hypergraph)
        assert wickets == detected, b.directions
        wicketed += bool(wickets)
        if not b.plane_families:
            # the degree from the edge index against the detector's list
            degree = wicket_dependency_degree(wicket_families(b))
            assert degree == dependency_degree_by_list(detected), b.directions
    assert wicketed >= len(builds) // 4


def test_one_point_eisenstein_lists_no_wickets_in_little_memory():
    # With one direction, u = v = w forces s = t, which repeats an edge,
    # so the lister visits none of the 6293 bases. The detector's
    # incidence masks for this build took about 12 MiB.
    b = build_eisenstein([EisensteinPoint(1, 0)], 2000)
    tracemalloc.start()
    try:
        wickets = build_wickets(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wickets == []
    assert peak < 2**20


def test_dependency_degree_bound():
    for cap in (max_cap_exact(1), binary_cap(2)):
        b = build_f3(cap)
        wickets = build_wickets(b)
        assert dependency_degree_by_list(wickets) <= 30 * len(cap)
    for n, degree in ((2, 55), (3, 155), (4, 355)):
        wickets = build_wickets(build_f3(binary_cap(n)))
        assert dependency_degree_by_list(wickets) == degree
    # a set free of the wicket system mod 43 gives no family at all
    free = wicket_families(build_modular((8, 11, 18, 23, 38, 39), 7))
    assert len(free[1]) == 0 and wicket_dependency_degree(free) == 0


def test_golden_edges_and_provenance():
    """Edge order and provenance of each family, pinned by digest."""
    cases = (
        (build_f3(binary_cap(2)), "ca4312ff95b26ee2"),
        (build_modular(K3_FREE, 3), "1915778cdce15c00"),
        (build_eisenstein(EIS_FREE, 2), "f95f53ba47f42489"),
    )
    for build, digest in cases:
        text = write_hypergraph_text(build.hypergraph) + repr(provenance(build))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
