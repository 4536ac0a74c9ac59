"""Acceptance suite: eight numbered criteria, one PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
Every criterion enforces its own runtime budget; oracle values used for
comparison are computed in-test by independent code paths (see
oracles.py), never read back from the library under test.
"""

import json
import math
import random
import subprocess
import sys
import time
from itertools import combinations

from wicketlab.census import grid_system, minimal_free_example, run_census
from wicketlab.coloring import color_edges, colors_needed
from wicketlab.construction import (
    build_eisenstein,
    build_f3,
    build_modular,
    build_wickets,
    wicket_families,
)
from wicketlab.eisenstein import EisensteinPoint, region_points
from wicketlab.eqfree import max_free_exhaustive, modular_equation, ruzsa_equation
from wicketlab.gf3 import max_cap_exact, product_cap
from wicketlab.hypergraph import find_63, find_wickets
from oracles import (
    binary_cap,
    decode_wicket,
    dependency_degree_by_list,
    is_linear,
    max_cap_bruteforce,
    max_cap_unpruned_symmetry,
    modular_solution_raw,
    random_hypergraph,
    random_linear_hypergraph,
    relabeled,
    ruzsa_max_fullenum,
    six_threes_bruteforce,
    wicket_directions,
    wickets_bruteforce,
)


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "wicketlab.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def _report(number, label, ok, elapsed, budget):
    line = (
        f"criterion {number} ({label}): "
        f"{'PASS' if ok and elapsed < budget else 'FAIL'} "
        f"[{elapsed:.1f}s / {budget:.0f}s]"
    )
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_1_exponent_reproduction():
    slowest = 0.0
    ok = True
    for base, target in ((2.2202, 1.5446), (2.233, 1.5482)):
        t0 = time.monotonic()
        res = _cli("bounds", "exponent", "--base", str(base))
        slowest = max(slowest, time.monotonic() - t0)
        ok = ok and res.returncode == 0
        ok = ok and abs(float(res.stdout.strip()) - target) <= 0.0005
    _report(1, "exponents", ok, slowest, 1.0)


def test_criterion_2_corollary_reproduction():
    t0 = time.monotonic()
    res = _cli("bounds", "corollary", "--c", "0.31")
    slowest = time.monotonic() - t0
    data = json.loads(res.stdout)
    ok = res.returncode == 0
    ok = ok and abs(data["value"] - 2.7477) <= 0.0005
    ok = ok and data["improves"] is True and data["baseline"] == 2.756
    t0 = time.monotonic()
    res = _cli("bounds", "gl", "--exponent", "1.544")
    slowest = max(slowest, time.monotonic() - t0)
    ok = ok and res.returncode == 0
    ok = ok and abs(float(res.stdout.strip()) - 0.456) < 1e-9
    _report(2, "corollary and gl", ok, slowest, 1.0)


def test_criterion_3_five_edge_census():
    t0 = time.monotonic()
    rep = run_census()
    ok = rep.total_candidates == math.comb(27, 5) == 80730
    ok = ok and rep.counterexamples == () and rep.verified
    ok = ok and rep.wicket + rep.six_three - rep.both == rep.linear
    witness = minimal_free_example()
    ok = ok and witness is not None and len(witness) == 4
    if witness is not None:
        h = grid_system(witness)
        ok = ok and is_linear(h)
        ok = ok and find_wickets(h) == [] and find_63(h) == []
    _report(3, "census", ok, time.monotonic() - t0, 60.0)


def test_criterion_4_construction_invariants():
    t0 = time.monotonic()
    ok = True
    expected = {1: (2, 1, 6), 2: (4, 18, 108)}
    for n, (size, families, wickets) in expected.items():
        cap = max_cap_exact(n) if n == 1 else binary_cap(2)
        ok = ok and len(cap) == size
        b = build_f3(cap)
        h = b.hypergraph
        ok = ok and is_linear(h)
        ok = ok and find_63(h) == []
        ok = ok and h.edge_count == 3 ** n * size
        family_size, edges, _, _ = wicket_families(b)
        ok = ok and family_size == 6 and len(edges) == 6 * families
        plane = build_wickets(b)
        ok = ok and len(plane) == wickets
        detected = find_wickets(h)
        ok = ok and plane == detected
        for wit in detected:
            d = decode_wicket(b, wit)
            ok = ok and d is not None
            ok = ok and d["t"] == d["v"] == d["w"] and d["s"] == d["u"]
        ok = ok and dependency_degree_by_list(plane) <= 30 * size
    _report(4, "construction invariants", ok, time.monotonic() - t0, 60.0)


def test_criterion_5_coloring():
    t0 = time.monotonic()
    ok = True
    one = binary_cap(1)
    cap3 = product_cap(product_cap(one, one), one)
    caps = (max_cap_exact(1), binary_cap(2), cap3, binary_cap(4), binary_cap(5))
    for cap in caps:
        b = build_f3(cap)
        k = colors_needed(len(cap))
        ok = ok and k == math.ceil((120 * len(cap)) ** 0.25)
        sel = color_edges(b, seed=0)  # the path `color f3` takes
        ok = ok and sel.coloring.color_count == k
        m, n = len(cap), cap.dimension
        ok = ok and sel.coloring.wickets == 6 * math.comb(m, 2) * 3 ** (n - 1)
        ok = ok and len(sel.edge_ids) >= math.ceil(b.hypergraph.edge_count / k)
        ok = ok and find_wickets(sel.hypergraph) == []
        again = color_edges(b, seed=0)
        ok = ok and again.edge_ids == sel.edge_ids
        ok = ok and again.coloring.assignment == sel.coloring.assignment
    _report(5, "coloring", ok, time.monotonic() - t0, 300.0)


def test_criterion_6_search_oracles():
    t0 = time.monotonic()
    ok = len(max_cap_exact(1)) == 2
    for n in (1, 2):
        ok = ok and len(max_cap_exact(n)) == max_cap_bruteforce(n)
    ok = ok and len(max_cap_exact(3)) == max_cap_unpruned_symmetry(3)
    spec = ruzsa_equation()
    for n in range(1, 13):
        mine = max_free_exhaustive(tuple(range(1, n + 1)), spec).size
        ok = ok and mine == ruzsa_max_fullenum(n)
    mod = max_free_exhaustive(tuple(range(7)), modular_equation(3))
    best_raw = 0
    for r in range(7, 0, -1):
        if any(not modular_solution_raw(S, 3) for S in combinations(range(7), r)):
            best_raw = r
            break
    ok = ok and mod.size == best_raw == 3
    _report(6, "search oracles", ok, time.monotonic() - t0, 300.0)


def test_criterion_7_cross_module_equivalence():
    t0 = time.monotonic()
    ok = True
    fixtures = {2: ((0,), (0, 1)), 3: ((0, 1, 3), (0, 1, 2, 3))}
    for k, (free, poisoned) in fixtures.items():
        n = k * k - k + 1
        for r in range(1, n + 1):
            for S in combinations(range(n), r):
                detected = len(find_wickets(build_modular(S, k).hypergraph, limit=1)) > 0
                solvable = wicket_directions(S, k, n) is not None
                ok = ok and detected == solvable
        ok = ok and wicket_directions(free, k, n) is None
        ok = ok and find_wickets(build_modular(free, k).hypergraph) == []
        ok = ok and wicket_directions(poisoned, k, n) is not None
        ok = ok and len(find_wickets(build_modular(poisoned, k).hypergraph)) > 0

    region = region_points(1, "coordinate")
    for r in range(1, len(region) + 1):
        for S in combinations(region, r):
            b = build_eisenstein(S, 1)
            detected = find_wickets(b.hypergraph)
            ok = ok and build_wickets(b) == detected
    free6 = tuple(
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
    poisoned6 = tuple(sorted(free6 + (EisensteinPoint(-1, -1),)))
    free_build = build_eisenstein(free6, 2)
    ok = ok and build_wickets(free_build) == []
    ok = ok and find_wickets(free_build.hypergraph) == []
    poisoned_build = build_eisenstein(poisoned6, 2)
    listed = build_wickets(poisoned_build)
    detected = find_wickets(poisoned_build.hypergraph)
    ok = ok and len(listed) > 0 and listed == detected
    _report(7, "cross-module equivalence", ok, time.monotonic() - t0, 60.0)


def test_criterion_8_detector_properties():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(2026)
    instances = 0
    for _ in range(70):
        h = random_linear_hypergraph(rng, sizes=(4, 4, 4), edges=rng.randrange(5, 13))
        instances += 1
        ok = ok and set(map(frozenset, find_wickets(h))) == wickets_bruteforce(h)
        ok = ok and set(map(frozenset, find_63(h))) == six_threes_bruteforce(h)
    for _ in range(40):
        h = random_hypergraph(rng, sizes=(5, 5, 5), edges=rng.randrange(8, 21))
        instances += 1
        ok = ok and set(map(frozenset, find_63(h))) == six_threes_bruteforce(h)
        if h.edge_count <= 12:
            ok = ok and set(map(frozenset, find_wickets(h))) == wickets_bruteforce(h)
    ok = ok and instances >= 100

    for _ in range(20):
        h = random_linear_hypergraph(rng, sizes=(4, 4, 4), edges=10)
        shuffled, edge_map = relabeled(h, rng)
        before_w = {
            frozenset(edge_map[i] for i in w) for w in find_wickets(h)
        }
        after_w = set(map(frozenset, find_wickets(shuffled)))
        ok = ok and before_w == after_w
        before_t = {
            frozenset(edge_map[i] for i in w) for w in find_63(h)
        }
        after_t = set(map(frozenset, find_63(shuffled)))
        ok = ok and before_t == after_t
    _report(8, "detector properties", ok, time.monotonic() - t0, 60.0)
