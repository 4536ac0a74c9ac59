"""Independent re-implementations used to check the library.

Everything here works straight from definitions (subset scans, raw
nested loops, squared side lengths) and deliberately shares no helper
code with the package. The exceptions are earlier versions of fast
paths, kept as references for the order of their output; of these,
`max_free_first_by_has_solution` and `max_free_heuristic_by_full_check`
call the library's `has_solution`, which other tests check against raw
scans. `wicket_directions` lists the wicket system's solutions, value
tuples in (s, t, u, v, w) order, with the library's
`iter_nontrivial_solutions`, checked the same way, and
`binary_cap` verifies its cap with the library's `verify_cap`.
"""

import random
from itertools import combinations

from wicketlab.hypergraph import TripartiteHypergraph, WicketWitness


# ---------------------------------------------------------------- GF(3)

def ap3_free_cubic(elements) -> bool:
    """Full triple scan for distinct x + y + z = 0 over GF(3)^n."""
    elems = list(elements)
    for i, a in enumerate(elems):
        for j in range(i + 1, len(elems)):
            b = elems[j]
            for t in range(j + 1, len(elems)):
                c = elems[t]
                if all((x + y + z) % 3 == 0 for x, y, z in zip(a, b, c)):
                    return False
    return True


def max_cap_bruteforce(n: int) -> int:
    """Largest cap in GF(3)^n by scanning every subset (n <= 2)."""
    from itertools import product

    vecs = list(product(range(3), repeat=n))
    best = 0
    for r in range(len(vecs), 0, -1):
        if r <= best:
            break
        for combo in combinations(vecs, r):
            if ap3_free_cubic(combo):
                best = r
                break
    return best


def max_cap_unpruned_symmetry(n: int) -> int:
    """Backtracker with no cardinality bound, caps through the zero vector.

    Zero-sum triples are translation invariant, so restricting to caps
    containing 0 loses no size. The search keeps every branch alive,
    unlike the library's bounded version.
    """
    from itertools import product

    vecs = list(product(range(3), repeat=n))

    def third(a, b):
        return tuple((-x - y) % 3 for x, y in zip(a, b))

    best = [1 if vecs else 0]
    current = [vecs[0]]
    current_set = {vecs[0]}

    def extend(start):
        if len(current) > best[0]:
            best[0] = len(current)
        for i in range(start, len(vecs)):
            cand = vecs[i]
            ok = all(third(a, b) != cand for a, b in combinations(current, 2))
            if ok:
                ok = all(third(a, cand) not in current_set for a in current)
            if ok:
                current.append(cand)
                current_set.add(cand)
                extend(i + 1)
                current.pop()
                current_set.remove(cand)

    if vecs:
        extend(1)
    return best[0]


def max_cap_first_dfs(n: int) -> tuple:
    """The first maximum cap through 0 in encode order, as a tuple of
    vectors, by the counter-based backtracking `max_cap_exact` used
    before it shared the forbidden-set search: each chosen pair blocks
    its third point, and blocked points are skipped. The reference for
    which cap `max_cap_exact` returns.
    """
    if n == 0:
        return ((),)

    def decode(value):
        digits = []
        for _ in range(n):
            digits.append(value % 3)
            value //= 3
        return tuple(reversed(digits))

    def encode(vec):
        value = 0
        for x in vec:
            value = value * 3 + x
        return value

    size = 3**n
    vecs = [decode(i) for i in range(size)]
    third = [
        [encode(tuple((-x - y) % 3 for x, y in zip(vecs[a], vecs[b])))
         for b in range(size)]
        for a in range(size)
    ]

    best = [0]
    current = [0]
    blocked = {}

    def dfs(start):
        nonlocal best
        if len(current) > len(best):
            best = current.copy()
        for c in range(start, size):
            if len(current) + (size - c) <= len(best):
                break
            if blocked.get(c):
                continue
            added = [third[a][c] for a in current]
            for t in added:
                blocked[t] = blocked.get(t, 0) + 1
            current.append(c)
            dfs(c + 1)
            current.pop()
            for t in added:
                if blocked[t] == 1:
                    del blocked[t]
                else:
                    blocked[t] -= 1

    dfs(1)
    return tuple(vecs[i] for i in best)


def binary_cap(dimension: int):
    """The cap {0,1}^n, verified."""
    from itertools import product

    from wicketlab.gf3 import verify_cap

    return verify_cap(dimension, product(range(2), repeat=dimension))


# ------------------------------------------------------------ detectors

def is_linear(h: TripartiteHypergraph) -> bool:
    """Whether no two edges share two vertices. Two tripartite edges
    share two vertices exactly when they agree on a pair projection, so
    every projection must be new."""
    seen = set()
    for a, b, c in h.edges:
        for key in ((0, a, b), (1, a, c), (2, b, c)):
            if key in seen:
                return False
            seen.add(key)
    return True


def edge_vertices(h: TripartiteHypergraph, i: int):
    a, b, c = h.edges[i]
    return frozenset(((0, a), (1, b), (2, c)))


def is_wicket_quintuple(h: TripartiteHypergraph, ids) -> bool:
    """Definition-level check: some 2+3 split into columns and rows."""
    vs = [edge_vertices(h, i) for i in ids]
    for cols in combinations(range(5), 2):
        rows = [i for i in range(5) if i not in cols]
        ca, cb = vs[cols[0]], vs[cols[1]]
        if ca & cb:
            continue
        r = [vs[i] for i in rows]
        if r[0] & r[1] or r[0] & r[2] or r[1] & r[2]:
            continue
        if any(len(rv & cv) != 1 for rv in r for cv in (ca, cb)):
            continue
        if len(ca | cb | r[0] | r[1] | r[2]) == 9:
            return True
    return False


def wickets_bruteforce(h: TripartiteHypergraph):
    """All 5-edge subsets that form a wicket, as frozensets of ids."""
    out = set()
    for ids in combinations(range(h.edge_count), 5):
        if is_wicket_quintuple(h, ids):
            out.add(frozenset(ids))
    return out


def wickets_column_scan(h: TripartiteHypergraph, limit=None):
    """Every wicket as a WicketWitness, in the library's list order.

    For each pair i < j of disjoint edges taken as columns, scan all m
    edges for candidate rows meeting both in exactly one vertex, then
    take every pairwise-disjoint triple of candidates in ascending
    order. O(m^3) before the triples; the reference for list order,
    while wickets_bruteforce is the reference for the set of wickets.
    """
    if limit is not None and limit <= 0:
        return []
    vsets = [edge_vertices(h, i) for i in range(h.edge_count)]
    m = len(vsets)
    found = []
    for i in range(m):
        vi = vsets[i]
        for j in range(i + 1, m):
            vj = vsets[j]
            if vi & vj:
                continue
            candidates = [
                e
                for e in range(m)
                if e != i
                and e != j
                and len(vsets[e] & vi) == 1
                and len(vsets[e] & vj) == 1
            ]
            nc = len(candidates)
            for p in range(nc):
                ep = candidates[p]
                for q in range(p + 1, nc):
                    eq = candidates[q]
                    if vsets[ep] & vsets[eq]:
                        continue
                    for r in range(q + 1, nc):
                        er = candidates[r]
                        if (vsets[ep] & vsets[er]) or (vsets[eq] & vsets[er]):
                            continue
                        found.append(
                            WicketWitness(
                                rows=tuple(sorted((ep, eq, er))),
                                columns=(i, j),
                            )
                        )
                        if limit is not None and len(found) >= limit:
                            return found
    return found


def provenance(build) -> tuple:
    """Edge id -> (base, direction): the edges run over the directions
    and, within one direction, over the bases."""
    return tuple((a, s) for s in build.directions for a in build.bases)


def decode_wicket(build, witness: WicketWitness):
    """The construction labeling of a wicket, or None if it has none.

    Returns bases x, y, z and directions s, t, u, v, w with columns
    (x, s), (y, u) and rows (x, w), (y, t), (z, v). Both column orders
    are tried; the share pattern is checked on raw vertex indices.
    """
    edges = build.hypergraph.edges
    prov = provenance(build)
    for c1, c2 in (witness.columns, witness.columns[::-1]):
        x, s = prov[c1]
        y, u = prov[c2]
        r1 = r2 = None
        for r in witness.rows:
            if prov[r][0] == x:
                r1 = r
            elif prov[r][0] == y:
                r2 = r
        rest = [r for r in witness.rows if r != r1 and r != r2]
        if r1 is None or r2 is None or len(rest) != 1:
            continue
        r3 = rest[0]
        z, v = prov[r3]
        w, t = prov[r1][1], prov[r2][1]
        ec1, ec2 = edges[c1], edges[c2]
        er1, er2, er3 = edges[r1], edges[r2], edges[r3]
        if (
            er1[0] == ec1[0]
            and er2[1] == ec1[1]
            and er3[2] == ec1[2]
            and er2[0] == ec2[0]
            and er3[1] == ec2[1]
            and er1[2] == ec2[2]
        ):
            return {"x": x, "y": y, "z": z, "s": s, "t": t, "u": u, "v": v, "w": w}
    return None


def plane_wickets_point_scan(build):
    """Every wicket of a GF(3) build, in the library's list order.

    For each direction pair s before t, scan all 3^(n+1) lifted points
    in encode order; an unseen point is the least point of a new plane
    p + span{(s, 1), (t, 1)}, whose three s-lines and three t-lines are
    the family's edges. Each family yields six wickets, one per omitted
    edge, first for the s-edges, then for the t-edges. The reference
    for wicket_families: wicket 6f + r is family f without its edge r;
    as a set, the reference for build_wickets.
    """

    def add(a, b):
        return tuple((x + y) % 3 for x, y in zip(a, b))

    def scale(c, a):
        return tuple((c * x) % 3 for x in a)

    def encode(vec):
        value = 0
        for x in vec:
            value = value * 3 + x
        return value

    def decode(value, dimension):
        digits = []
        for _ in range(dimension):
            digits.append(value % 3)
            value //= 3
        return tuple(reversed(digits))

    edge_of = {pair: idx for idx, pair in enumerate(provenance(build))}
    directions = build.directions
    if len(directions) < 2:
        return []
    big = len(directions[0]) + 1
    total = 3**big
    wickets = []
    for i, s0 in enumerate(directions):
        s1 = s0 + (1,)
        for t0 in directions[i + 1 :]:
            t1 = t0 + (1,)
            seen = bytearray(total)
            for p_enc in range(total):
                if seen[p_enc]:
                    continue
                p = decode(p_enc, big)
                rho = p[-1]
                for ci in range(3):
                    for cj in range(3):
                        q = add(p, add(scale(ci, s1), scale(cj, t1)))
                        seen[encode(q)] = 1
                edges_a = []
                edges_b = []
                for j in range(3):
                    shift = (-rho - j) % 3
                    point_a = add(p, add(scale(shift, s1), scale(j, t1)))
                    edges_a.append(edge_of[(point_a[:-1], s0)])
                    point_b = add(p, add(scale(shift, t1), scale(j, s1)))
                    edges_b.append(edge_of[(point_b[:-1], t0)])
                edges_a.sort()
                edges_b.sort()
                for omitted in edges_a:
                    cols = tuple(e for e in edges_a if e != omitted)
                    wickets.append(WicketWitness(rows=tuple(edges_b), columns=cols))
                for omitted in edges_b:
                    cols = tuple(e for e in edges_b if e != omitted)
                    wickets.append(WicketWitness(rows=tuple(edges_a), columns=cols))
    return wickets


def is_63_triple(h: TripartiteHypergraph, ids) -> bool:
    vs = [edge_vertices(h, i) for i in ids]
    if any(len(vs[i] & vs[j]) != 1 for i, j in combinations(range(3), 2)):
        return False
    return len(vs[0] | vs[1] | vs[2]) == 6


def six_threes_bruteforce(h: TripartiteHypergraph):
    out = set()
    for ids in combinations(range(h.edge_count), 3):
        if is_63_triple(h, ids):
            out.add(frozenset(ids))
    return out


def six_threes_in_order(h: TripartiteHypergraph, limit=None):
    """Every (6,3) as its edge-id triple, in the library's list order:
    the 3-subsets of edge ids in lexicographic order that pass
    is_63_triple. The reference for find_63's order and its `limit`
    prefixes, while six_threes_bruteforce is the reference for the set.
    """
    if limit is not None and limit <= 0:
        return []
    found = []
    for ids in combinations(range(h.edge_count), 3):
        if is_63_triple(h, ids):
            found.append(ids)
            if limit is not None and len(found) >= limit:
                return found
    return found


def random_linear_hypergraph(rng, sizes=(4, 4, 4), edges=10, tries=400):
    """Seeded rejection sampler for linear tripartite instances."""
    chosen = []
    proj = set()
    attempts = 0
    while len(chosen) < edges and attempts < tries:
        attempts += 1
        e = (
            rng.randrange(sizes[0]),
            rng.randrange(sizes[1]),
            rng.randrange(sizes[2]),
        )
        pairs = {(0, e[0], e[1]), (1, e[0], e[2]), (2, e[1], e[2])}
        if pairs & proj:
            continue
        proj |= pairs
        chosen.append(e)
    return TripartiteHypergraph(tuple(sizes), tuple(chosen))


def random_hypergraph(rng, sizes=(4, 4, 4), edges=10):
    """Seeded sampler without the linearity restriction."""
    seen = set()
    while len(seen) < edges:
        seen.add(
            (
                rng.randrange(sizes[0]),
                rng.randrange(sizes[1]),
                rng.randrange(sizes[2]),
            )
        )
    return TripartiteHypergraph(tuple(sizes), tuple(sorted(seen)))


def with_repeated_edges(h: TripartiteHypergraph, rng, copies=3):
    """h plus `copies` repeats of randomly chosen edges, each inserted at
    a random position. TripartiteHypergraph accepts repeated edges, and
    the samplers above never produce them."""
    edges = list(h.edges)
    for _ in range(copies):
        edges.insert(rng.randrange(len(edges) + 1), rng.choice(edges))
    return TripartiteHypergraph(h.class_sizes, tuple(edges))


def relabeled(h: TripartiteHypergraph, rng):
    """Random class-preserving vertex relabeling plus edge reorder.

    Returns (new_hypergraph, edge_map) where edge_map[old_id] = new_id.
    """
    perms = []
    for size in h.class_sizes:
        p = list(range(size))
        rng.shuffle(p)
        perms.append(p)
    order = list(range(h.edge_count))
    rng.shuffle(order)
    new_edges = tuple(
        (
            perms[0][h.edges[j][0]],
            perms[1][h.edges[j][1]],
            perms[2][h.edges[j][2]],
        )
        for j in order
    )
    edge_map = {old: new for new, old in enumerate(order)}
    return TripartiteHypergraph(h.class_sizes, new_edges), edge_map


# ------------------------------------------------------------- coloring

def wickets_by_edge(wickets) -> dict:
    """Edge id -> ascending indices of the wickets (edge-id tuples)
    that contain it."""
    index: dict = {}
    for idx, ids in enumerate(wickets):
        for e in ids:
            index.setdefault(e, []).append(idx)
    return index


def dependency_degree_by_list(wickets) -> int:
    """Max number of other wickets sharing at least one edge with one,
    from a list of wickets (edge-id tuples) regrouped by wickets_by_edge:
    the reference for wicket_dependency_degree on the families of five."""
    index = wickets_by_edge(wickets)
    # every wicket is in its own edges' lists, hence the - 1
    return max(
        (len(set().union(*(index[e] for e in w))) - 1 for w in wickets),
        default=0,
    )


def color_edges_per_wicket(build, wickets, seed=0, attempts=8, factor=100):
    """The resampler as a loop over single wickets, read from a list.

    `wickets` lists edge-id tuples. Attempt i colors every edge from
    random.Random(seed * 1000003 + i) with the k colors of the smallest
    k >= 2 with k^4 >= 120|S|, then, while some wicket is monochromatic
    and fewer than factor * (len(wickets) + 1) resamples were made,
    redraws the edges of the lowest-indexed one, in order. Returns
    ("class", (attempt, resamples, assignment, color, edge ids)) for the
    largest color class, ties to the lower color, or ("budget",
    diagnostics) when every attempt runs out.
    """
    k = 2
    while k**4 < 120 * len(build.directions):
        k += 1
    m = build.hypergraph.edge_count
    by_edge = wickets_by_edge(wickets)
    budget = factor * (len(wickets) + 1)
    total = 0
    for attempt in range(attempts):
        rng = random.Random(seed * 1000003 + attempt)
        colors = [rng.randrange(k) for _ in range(m)]

        def monochromatic(idx):
            return len({colors[e] for e in wickets[idx]}) == 1

        violated = {idx for idx in range(len(wickets)) if monochromatic(idx)}
        used = 0
        while violated and used < budget:
            ids = wickets[min(violated)]
            for e in ids:
                colors[e] = rng.randrange(k)
            used += 1
            for idx in {i for e in ids for i in by_edge[e]}:
                if monochromatic(idx):
                    violated.add(idx)
                else:
                    violated.discard(idx)
        total += used
        if not violated:
            counts = [colors.count(c) for c in range(k)]
            best = max(range(k), key=lambda c: (counts[c], -c))
            chosen = tuple(e for e in range(m) if colors[e] == best)
            return "class", (attempt, used, tuple(colors), best, chosen)
    return "budget", {
        "attempts": attempts,
        "resamples": total,
        "violated": len(violated),
        "budget_per_attempt": budget,
        "colors": k,
        "wickets": len(wickets),
        "seed": seed,
    }


# --------------------------------------------------------------- census
# The census's earlier share-table classifiers, over the 27 edges
# (a, b, c) of the 3x3x3 grid indexed by 9a + 3b + c.

GRID_EDGES = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]


def _grid_share_tables():
    share = [[0] * 27 for _ in range(27)]
    shared_vertex = [[None] * 27 for _ in range(27)]
    for i, e in enumerate(GRID_EDGES):
        for j, f in enumerate(GRID_EDGES):
            hits = [(cls, e[cls]) for cls in range(3) if e[cls] == f[cls]]
            share[i][j] = len(hits)
            if len(hits) == 1:
                shared_vertex[i][j] = hits[0]
    return share, shared_vertex


SHARE, SHARED_VERTEX = _grid_share_tables()


def grid_linear_systems(size: int):
    """Every `size`-subset of grid edges, in combinations order, in which
    no two edges share two vertices."""
    return [
        ids for ids in combinations(range(27), size)
        if all(SHARE[a][b] <= 1 for a, b in combinations(ids, 2))
    ]


def share_table_has_wicket(ids) -> bool:
    """Every pair as the columns: disjoint, and the other three edges
    pairwise disjoint rows that each meet both columns once."""
    m = len(ids)
    for p in range(m):
        for q in range(p + 1, m):
            i, j = ids[p], ids[q]
            if SHARE[i][j] != 0:
                continue
            rows = [ids[r] for r in range(m) if r != p and r != q]
            if len(rows) != 3:
                continue
            a, b, c = rows
            if SHARE[a][b] or SHARE[a][c] or SHARE[b][c]:
                continue
            if all(SHARE[r][i] == 1 and SHARE[r][j] == 1 for r in rows):
                return True
    return False


def share_table_has_63(ids) -> bool:
    """Three edges pairwise sharing one vertex, the three shared
    vertices distinct."""
    sv = SHARED_VERTEX
    for a, b, c in combinations(ids, 3):
        if SHARE[a][b] == 1 and SHARE[a][c] == 1 and SHARE[b][c] == 1:
            x, y, z = sv[a][b], sv[a][c], sv[b][c]
            if x != y and x != z and y != z:
                return True
    return False


def share_table_covers_grid(ids) -> bool:
    used = set()
    for i in ids:
        a, b, c = GRID_EDGES[i]
        used.update(((0, a), (1, b), (2, c)))
    return len(used) == 9


# ------------------------------------------------------------ equations

def ruzsa_solution_raw(S) -> bool:
    """Any not-all-equal x, y, z, w in S with 3x + y = 2z + 2w."""
    vals = list(S)
    for x in vals:
        for y in vals:
            for z in vals:
                for w in vals:
                    if x == y == z == w:
                        continue
                    if 3 * x + y == 2 * z + 2 * w:
                        return True
    return False


def ruzsa_bad_masks(n: int):
    """Bitmask value-sets of solutions over 1..n; a set has a solution
    iff it contains one of these (value-sets have at most 4 elements)."""
    masks = []
    for r in (2, 3, 4):
        for combo in combinations(range(1, n + 1), r):
            cs = set(combo)
            hit = False
            for x in combo:
                for y in combo:
                    for z in combo:
                        for w in combo:
                            if {x, y, z, w} == cs and 3 * x + y == 2 * z + 2 * w:
                                if not x == y == z == w:
                                    hit = True
                                    break
                        if hit:
                            break
                    if hit:
                        break
                if hit:
                    break
            if hit:
                mask = 0
                for v in combo:
                    mask |= 1 << (v - 1)
                masks.append(mask)
    return masks


def ruzsa_max_fullenum(n: int) -> int:
    """Largest solution-free subset of 1..n by scanning all 2^n masks."""
    bads = ruzsa_bad_masks(n)
    best = 0
    for mask in range(1, 1 << n):
        if any(bm & mask == bm for bm in bads):
            continue
        c = bin(mask).count("1")
        if c > best:
            best = c
    return best


def max_free_first_by_has_solution(domain, spec) -> tuple:
    """The first maximum free subset in depth-first order, by the
    branch and bound `max_free_exhaustive` ran before the forbidden-set
    index: it calls the library's `has_solution` on the trial set at
    every node and on every tail candidate. The reference for which set
    `max_free_exhaustive` returns.
    """
    from wicketlab.eqfree import has_solution

    items = sorted(set(domain))
    best: list = []

    def extend(current: list, rest: list) -> None:
        nonlocal best
        if len(current) > len(best):
            best = list(current)
        if len(current) + len(rest) <= len(best):
            return
        for idx, cand in enumerate(rest):
            if len(current) + (len(rest) - idx) <= len(best):
                break
            trial = current + [cand]
            if has_solution(trial, spec) is not None:
                continue
            tail = [
                c
                for c in rest[idx + 1 :]
                if has_solution(trial + [c], spec) is None
            ]
            extend(trial, tail)

    extend([], items)
    return tuple(best)


def max_free_mask_by_rescan(forbidden: list, size: int, chosen: int) -> int:
    """The mask `_max_free_mask` returned when adding a bit rescanned
    every forbidden set through it: a bit is dropped from the candidates
    when it is the one bit of such a set missing from the trial set. The
    reference for which mask the kill-table search returns.
    """
    through: list = [[] for _ in range(size)]
    rest = ((1 << size) - 1) & ~chosen
    for f in forbidden:
        missing = f & ~chosen
        if missing.bit_count() == 1:
            rest &= ~missing
        bits = f
        while bits:
            low = bits & -bits
            through[low.bit_length() - 1].append(f)
            bits ^= low
    best, best_size = chosen, chosen.bit_count()

    def extend(current: int, count: int, rest: int) -> None:
        nonlocal best, best_size
        if count > best_size:
            best, best_size = current, count
        while count + rest.bit_count() > best_size:
            low = rest & -rest
            rest ^= low
            trial = current | low
            tail = rest
            for f in through[low.bit_length() - 1]:
                missing = f & ~trial
                if missing.bit_count() == 1:
                    tail &= ~missing
            extend(trial, count + 1, tail)

    extend(chosen, best_size, rest)
    return best


def max_free_heuristic_by_full_check(
    domain, spec, seed=0, budget=2000, method="local"
) -> tuple:
    """The elements `max_free_heuristic` returned when each move called
    the library's `has_solution` on the whole trial set: ascending greedy
    insertion, then (method "local") seeded annealing with add, remove
    and swap moves. The reference for which set it returns.
    """
    import bisect
    import math
    import random

    from wicketlab.eqfree import has_solution

    items = sorted(set(domain))
    current: list = []
    for cand in items:
        if has_solution(current + [cand], spec) is None:
            current.append(cand)
    best = tuple(current)
    if method == "greedy" or not items:
        return best

    rng = random.Random(seed)
    member_set = set(current)
    temperature = 1.0
    for _step in range(budget):
        temperature = max(temperature * 0.995, 1e-9)
        move = rng.choice(("add", "remove", "swap"))
        if move == "add":
            outside = [c for c in items if c not in member_set]
            if not outside:
                continue
            cand = rng.choice(outside)
            if has_solution(current + [cand], spec) is None:
                bisect.insort(current, cand)
                member_set.add(cand)
        elif move == "remove":
            if not current:
                continue
            if rng.random() >= math.exp(-1.0 / temperature):
                continue
            victim = rng.choice(current)
            current.remove(victim)
            member_set.discard(victim)
        else:
            if not current:
                continue
            outside = [c for c in items if c not in member_set]
            if not outside:
                continue
            victim = rng.choice(current)
            cand = rng.choice(outside)
            trial = [c for c in current if c != victim] + [cand]
            if has_solution(trial, spec) is None:
                current.remove(victim)
                member_set.discard(victim)
                bisect.insort(current, cand)
                member_set.add(cand)
        if len(current) > len(best):
            best = tuple(current)
    return best


def constant_solves(spec, sample) -> bool:
    """Whether setting every variable to `sample` solves each relation."""
    for relation in spec.relations:
        terms = [coeff * sample for _var, coeff in relation]
        total = sum(terms[1:], terms[0])
        if spec.modulus is not None:
            if total % spec.modulus:
                return False
        elif total != total - total:
            return False
    return True


def modular_solution_raw(S, k: int) -> bool:
    n = k * k - k + 1
    vals = set(v % n for v in S)
    for x in vals:
        for y in vals:
            z = (k * x - (k - 1) * y) % n
            if z in vals and not (x == y == z):
                return True
    return False


def wicket_system_spec(lam, modulus=None):
    """The wicket system of a build with lam = nu / mu as a plain
    equation over the directions (s, t, u, v, w):

        R0   s - t + lam(u - w) = 0
        R1   lam^2 s + t - u - lam^2 v = 0

    lam is a root of x^2 - x + 1 in its ring, k mod k^2 - k + 1 or -w
    over the Eisenstein integers, so lam - 1 is written as lam^2.
    """
    from wicketlab.eqfree import EquationSpec

    lam2 = lam * lam
    if modulus is None:
        name = "wicket directions over the Eisenstein lattice"
    else:
        name = f"wicket directions mod {modulus}"
    return EquationSpec(
        name=name,
        variables=("s", "t", "u", "v", "w"),
        relations=(
            (("s", 1), ("t", -1), ("u", lam), ("w", -lam)),
            (("s", lam2), ("t", 1), ("u", -1), ("v", -lam2)),
        ),
        modulus=modulus,
    )


def wicket_directions(S, lam, modulus=None):
    """The first solution (s, t, u, v, w) of the wicket system over S
    with s != t, s != w and t != u, or None: under R0 and R1 the other
    solutions repeat an edge, so these are the direction sets of the
    wickets (three bases permitting). Every all-equal assignment has
    s = t."""
    from wicketlab.eqfree import iter_nontrivial_solutions

    spec = wicket_system_spec(lam, modulus)
    for d in iter_nontrivial_solutions(S, spec):
        s, t, u, _v, w = d
        if s != t and s != w and t != u:
            return d
    return None


class F3Elem:
    """Vector over GF(3) with integer-scalar arithmetic, for feeding
    GF(3) sets through the generic equation machinery."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = tuple(x % 3 for x in v)

    def __add__(self, other):
        return F3Elem(a + b for a, b in zip(self.v, other.v))

    def __sub__(self, other):
        return F3Elem(a - b for a, b in zip(self.v, other.v))

    def __neg__(self):
        return F3Elem(-a for a in self.v)

    def __rmul__(self, scalar):
        return F3Elem(scalar * a for a in self.v)

    def __eq__(self, other):
        return isinstance(other, F3Elem) and self.v == other.v

    def __lt__(self, other):
        return self.v < other.v

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return f"F3Elem{self.v}"


# ------------------------------------------------------------- geometry

def squared_side(p, q) -> int:
    """Squared Euclidean length of p - q in the a + b*omega embedding."""
    da, db = p.a - q.a, p.b - q.b
    return da * da - da * db + db * db


def equilateral_by_sides(p, q, r) -> bool:
    if p == q or q == r or p == r:
        return False
    return squared_side(p, q) == squared_side(q, r) == squared_side(r, p)
