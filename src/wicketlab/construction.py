"""Linear tripartite hypergraphs built from progression-free sets.

Three families share one construction: pick a base point a and a
direction s from the ingested set S, and connect one vertex per class
by the edge (a, a + mu*s, a + nu*s), where lam = nu / mu is a root of
x^2 - x + 1 in the ring:

* GF(3) vectors: (mu, nu) = (1, 2), lam = 2; with lifted directions
  (s, 1) every edge is an affine line of F_3^{n+1};
* residues mod n = k^2-k+1: (mu, nu) = (1, k), lam = k;
* Eisenstein points: (mu, nu) = (-1, w) with w the primitive cube
  root, lam = -w.

Wickets in such a build are governed by a two-relation linear system in
the five direction variables (s, t, u, v, w): labeling the wicket's
columns (x, s), (y, u) and rows (x, w), (y, t), (z, v), the six
row/column incidences force

    base relations   y = x + mu(s - t), z = x + nu(s - v), leaving
    R0               s - t + lam(u - w) = 0
    R1               lam^2 s + t - u - lam^2 v = 0     (lam^2 = lam - 1).

A solution yields a wicket exactly when eight side inequalities hold
and the three bases exist; the inequalities say the five edges are
pairwise distinct and the rows and columns are disjoint, and under R0
and R1 they all hold unless s = t, s = w or t = u. build_wickets lists
every family's wickets from the system in closed form.

Over GF(3) the wickets also come in plane families: the lifted lines of
two directions s, t span one affine plane per coset of <t - s>, and
the six edges in such a plane carry six wickets (one per omitted edge).
wicket_families keeps each such family as six edge ids in one flat
array, ordered by least lifted point as one scan of the <s, t>-cosets
finds it, and any other build's as families of five, with one by-edge
index for both. plane_wicket_counts gives the wicket count,
3^n * m * (m - 1) for m directions, and the dependency degree 25m - 45.
"""

from __future__ import annotations

import operator
from itertools import accumulate, product
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .errors import SetFileError
# find_wickets is not called here, but perfbench/tracing.py wraps it here
from .hypergraph import TripartiteHypergraph, WicketWitness, find_wickets

# The layer of each family (gf3, eisenstein) is imported by the
# functions that use it, so building one family does not load the other
# family's layer.
if TYPE_CHECKING:
    from .eisenstein import EisensteinPoint
    from .gf3 import CapSet


class Build:
    """Edges (a, a + mu*s, a + nu*s) for every direction s and base a.

    Edge ids run over the directions in order and, within one
    direction, over the bases in order: edge i * len(bases) + j is
    (bases[j], directions[i]). Builds compare by identity.
    """

    def __init__(
        self,
        directions: tuple,
        bases: tuple,
        hypergraph: TripartiteHypergraph,
        ring: tuple,  # the (mu, nu, add, mul) of the edges
        plane_families: bool,  # GF(3): wickets come in affine planes
    ):
        self.directions = directions
        self.bases = bases
        self.hypergraph = hypergraph
        self.ring = ring
        self.plane_families = plane_families


def _build(
    directions: Sequence,
    bases: Sequence,
    vertices: Sequence,
    mu,
    nu,
    add: Callable = operator.add,
    mul: Callable = operator.mul,
    plane_families: bool = False,
) -> Build:
    """The one edge loop behind every family.

    `vertices` lists every point an edge can touch; a vertex's index in
    each of the three classes is its position in that list.
    """
    index = {p: i for i, p in enumerate(vertices)}
    size = len(index)
    edges: list = []
    for s in directions:
        ms, ns = mul(mu, s), mul(nu, s)
        for a in bases:
            edges.append((index[a], index[add(a, ms)], index[add(a, ns)]))
    h = TripartiteHypergraph(class_sizes=(size, size, size), edges=tuple(edges))
    return Build(
        directions=tuple(directions),
        bases=tuple(bases),
        hypergraph=h,
        ring=(mu, nu, add, mul),
        plane_families=plane_families,
    )


def build_f3(cap: CapSet) -> Build:
    """(a, a+s, a+2s) for every a in F_3^n and every s in a verified cap."""
    from .gf3 import all_vectors, f3_add, f3_scale

    if not cap.verified:
        raise ValueError("build_f3 needs a verified progression-free set")
    vectors = tuple(all_vectors(cap.dimension))
    return _build(
        cap.sorted_elements,
        vectors,
        vectors,
        1,
        2,
        add=f3_add,
        mul=f3_scale,
        plane_families=True,
    )


def build_modular(elements: Iterable[int], k: int) -> Build:
    """(a, a+s, a+ks) over Z/n, n = k^2 - k + 1; elements reduce mod n."""
    if k < 2:
        raise ValueError("k must be at least 2")
    n = k * k - k + 1
    elems = sorted({int(e) % n for e in elements})
    residues = range(n)
    return _build(elems, residues, residues, 1, k, add=lambda a, b: (a + b) % n)


def parse_int_set_text(text: str, modulus: Optional[int] = None) -> tuple:
    """One integer per line; '#' comments and blanks ignored."""
    values: list = []
    seen: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = int(line)
        except ValueError:
            raise SetFileError(f"not an integer: {line!r}", lineno) from None
        if modulus is not None:
            if not 0 <= value < modulus:
                raise SetFileError(
                    f"{value} outside residue range 0..{modulus - 1}", lineno
                )
        if value in seen:
            raise SetFileError(f"duplicate value {value}", lineno)
        seen.add(value)
        values.append(value)
    return tuple(sorted(values))


def load_int_set_file(path, modulus: Optional[int] = None) -> tuple:
    return parse_int_set_text(Path(path).read_text(), modulus=modulus)


def build_eisenstein(
    elements: Iterable[EisensteinPoint], bound: int, norm: str = "coordinate"
) -> Build:
    """(a, a-s, a+ws) with bases a in a lattice disc.

    All three vertex classes use the same expanded point list, padded
    so that every edge endpoint has an index even at the boundary.
    """
    from .eisenstein import OMEGA, ZERO, region_points

    region = region_points(bound, norm=norm)
    elems = sorted(set(elements))
    deltas = {ZERO}
    for s in elems:
        deltas.add(-s)
        deltas.add(OMEGA * s)
    vertices = sorted({p + d for p in region for d in deltas})
    return _build(elems, region, vertices, -1, OMEGA)


def colors_needed(set_size: int) -> int:
    """Smallest k >= 2 with k^4 >= 120 * set_size: the palette that
    colors a build over a set of this size."""
    if set_size < 0:
        raise ValueError("set size cannot be negative")
    k = 2
    target = 120 * set_size
    while k**4 < target:
        k += 1
    return k


def build_wickets(build: Build) -> list:
    """Every wicket of a build, solved from its wicket system: the list
    find_wickets(build.hypergraph) returns, in its order.

    lam is a unit, so R0 and R1 give s = w + lam(v - u) and
    t = s + lam(u - w). Each (u, v, w) in S^3 with s and t in S, and
    each base x with y and z bases, labels columns (x, s), (y, u) and
    rows (x, w), (y, t), (z, v). As lam, 1 - lam, mu and nu are units,
    under R0 and R1 each side inequality fails only when s = t, s = w or
    t = u, each of which repeats an edge. Otherwise the five edges are a
    wicket, and a wicket has one such labelling.
    """
    mu, nu, add, mul = build.ring
    lam = mu * nu  # nu / mu, as mu is +-1
    first = {s: i * len(build.bases) for i, s in enumerate(build.directions)}
    base_at = {a: j for j, a in enumerate(build.bases)}
    neg = {s: mul(-1, s) for s in first}
    found: list = []
    for u, v, w in product(first, repeat=3):
        s = add(w, mul(lam, add(v, neg[u])))
        t = add(s, mul(lam, add(u, neg[w])))
        if s not in first or t not in first or s in (t, w) or t == u:
            continue
        shift_y, shift_z = mul(mu, add(s, neg[t])), mul(nu, add(s, neg[v]))
        for x, j in base_at.items():
            y, z = base_at.get(add(x, shift_y)), base_at.get(add(x, shift_z))
            if y is not None and z is not None:
                cols = sorted((first[s] + j, first[u] + y))
                rows = sorted((first[w] + j, first[t] + y, first[v] + z))
                found.append((tuple(cols), tuple(rows)))
    return [WicketWitness(rows, cols) for cols, rows in sorted(found)]


def wicket_families(build: Build) -> tuple:
    """The build's wickets as families: (size, edges, starts, ids).

    Family f is edges[size * f : size * (f + 1)], ascending edge ids in
    one flat array, and each of its C(size, 5) five-edge subsets is a
    wicket; ids[starts[e] : starts[e + 1]] are the families through edge
    e, ascending. A GF(3) build has six edges a family, one family per
    affine plane (below), so wicket 6f + r is family f without the edge
    at 6f + r, and every edge is in m - 1 families. Any other build has
    one family per wicket of build_wickets(build), in its order, with
    the families of each edge gathered in one bucket per edge. In both,
    starts and ids are arrays too, and the lowest wicket is in the
    lowest family, so family order is wicket order.

    GF(3): for directions s before t, the lifted lines (s, 1) and (t, 1)
    span one affine plane per coset L of <t - s> in F_3^n; its
    construction edges are (a, s) and (a, t) for a in L, with edge id
    direction index * 3^n + encode(a). The plane meets lifted coordinate
    r in L + r*s, so the families of one pair are listed by their least
    lifted point (z, r): z, scanned in encode order, is the least point
    of a new coset of <s, t>, L = z - r*s + <t - s> for r = 0, 1, 2, and
    just r = 0 if s is in <t - s>. A family holds its s-edges, then its
    t-edges, each ascending.
    """
    from array import array

    if not build.plane_families:
        # fromlist converts a list in one C loop; extend would iterate it
        edges = array("i")
        through: list = [[] for _ in range(build.hypergraph.edge_count)]
        for f, (rows, columns) in enumerate(build_wickets(build)):
            wicket = sorted(rows + columns)  # the witness's edge_ids
            edges.fromlist(wicket)
            for e in wicket:
                through[e].append(f)
        starts = array("i", accumulate(map(len, through), initial=0))
        ids = array("i")
        for families in through:
            ids.fromlist(families)
        return 5, edges, starts, ids

    m = len(build.directions)
    n_bases = len(build.bases)  # all of F_3^n in encode order
    # Points stay encoded: plus[i][e] and plus2[i][e] are the encodes
    # of decode(e) + s and decode(e) + 2s for direction i, so the
    # coset of x is x, x + t + 2s and x + s + 2t. build_f3 indexes
    # vertices and bases in encode order, so edge i * 3^n + e is
    # (e, plus[i][e], plus2[i][e]).
    lines = build.hypergraph.edges
    plus, plus2 = [], []
    for i in range(m):
        _, s1, s2 = zip(*lines[i * n_bases : (i + 1) * n_bases])
        plus.append(s1)
        plus2.append(s2)
    # Every edge lies in one family per other direction: the family
    # with the q-th other direction is at ids[e * stride + q], and
    # those come in ascending family order.
    stride = max(m - 1, 0)
    starts = array("i", map(stride.__mul__, range(len(lines) + 1)))
    ids = array("i", [0]) * (len(lines) * stride)
    edges = array("i")
    for i in range(m):
        s1, s2 = plus[i], plus2[i]
        for j in range(i + 1, m):
            t1, t2 = plus[j], plus2[j]
            seen = bytearray(n_bases)
            for z in range(n_bases):
                if seen[z]:
                    continue  # z + <s, t> was listed from its least point
                for x in (z, s2[z], s1[z]):  # z, z - s, z - 2s
                    if seen[x]:
                        break  # s in <t - s>: the coset is one family
                    points = sorted((x, t1[s2[x]], s1[t2[x]]))
                    family = len(edges) // 6
                    for first, q in ((i * n_bases, j - 1), (j * n_bases, i)):
                        for e in points:
                            ids[(first + e) * stride + q] = family
                            edges.append(first + e)
                    for e in points:
                        seen[e] = 1
    return 6, edges, starts, ids


def plane_wicket_counts(build: Build) -> tuple:
    """(wicket count, dependency degree) of a GF(3) build, in closed form.

    With m directions over F_3^n there are C(m, 2) * 3^(n-1) plane
    families of six wickets, 3^n * m * (m - 1) wickets in all.
    A wicket of the plane of s and t meets the other five of its
    family and, through each of its five edges, five wickets in each of
    that edge's m - 2 families with a third direction u. These are all
    distinct: a plane of s and u holding two of its s-edges needs
    t - s in <u - s>, so u = t or s + t + u = 0, a line in the cap. So
    the degree is 5 + 25(m - 2) = 25m - 45 for m >= 2 and 0 otherwise.
    The tests check both against build_wickets and a witness-list degree.
    """
    if not build.plane_families:
        raise ValueError("closed-form wicket counts need a GF(3) build")
    m = len(build.directions)
    if m < 2:
        return 0, 0
    return len(build.bases) * m * (m - 1), 25 * m - 45


def wicket_dependency_degree(families: tuple) -> int:
    """Max number of other wickets sharing at least one edge with one,
    read from the families of five of wicket_families(build): wicket f
    meets the wickets in the buckets of its five edges."""
    size, edges, starts, ids = families
    if size != 5:
        raise ValueError("the dependency degree reads families of five")
    through = [ids[starts[e] : starts[e + 1]] for e in range(len(starts) - 1)]
    runs = zip(*[map(through.__getitem__, edges)] * 5)
    # every wicket is in its own edges' buckets, hence the - 1
    return max((len(set().union(*run)) for run in runs), default=1) - 1
