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
pairwise distinct and the rows and columns are disjoint. The system is
exported as an EquationSpec whose triviality rule is "some inequality
fails", so eqfree.has_solution decides direction feasibility.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .eisenstein import OMEGA, ZERO, EisensteinPoint, region_points
from .eqfree import (
    EquationSpec,
    _canon,
    _is_zero,
    iter_nontrivial_solutions,
)
from .errors import WicketDecodeError
from .gf3 import CapSet, Vec, all_vectors, decode, encode, f3_add, f3_scale
from .hypergraph import TripartiteHypergraph, WicketWitness, find_wickets


@dataclass(frozen=True, eq=False)
class Build:
    """Edges (a, a + mu*s, a + nu*s) for every direction s and base a.

    Edge ids run over the directions in order and, within one
    direction, over the bases in order; provenance maps an edge id to
    its (base, direction) pair.
    """

    directions: tuple
    bases: tuple
    hypergraph: TripartiteHypergraph
    provenance: tuple  # edge id -> (base, direction)
    plane_families: bool  # GF(3): wickets come in affine planes

    @cached_property
    def edge_index(self) -> dict:
        return {pair: idx for idx, pair in enumerate(self.provenance)}


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
    prov: list = []
    for s in directions:
        ms, ns = mul(mu, s), mul(nu, s)
        for a in bases:
            edges.append((index[a], index[add(a, ms)], index[add(a, ns)]))
            prov.append((a, s))
    h = TripartiteHypergraph(class_sizes=(size, size, size), edges=tuple(edges))
    return Build(
        directions=tuple(directions),
        bases=tuple(bases),
        hypergraph=h,
        provenance=tuple(prov),
        plane_families=plane_families,
    )


def build_f3(cap: CapSet) -> Build:
    """(a, a+s, a+2s) for every a in F_3^n and every s in a verified cap."""
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


def build_eisenstein(
    elements: Iterable[EisensteinPoint], bound: int, norm: str = "coordinate"
) -> Build:
    """(a, a-s, a+ws) with bases a in a lattice disc.

    All three vertex classes use the same expanded point list, padded
    so that every edge endpoint has an index even at the boundary.
    """
    region = region_points(bound, norm=norm)
    elems = sorted(set(elements))
    deltas = {ZERO}
    for s in elems:
        deltas.add(-s)
        deltas.add(OMEGA * s)
    vertices = sorted({p + d for p in region for d in deltas})
    return _build(elems, region, vertices, -1, OMEGA)


@dataclass(frozen=True)
class PlaneWicketFamily:
    """The six construction edges inside one affine plane of F_3^{n+1}.

    A plane spanned by two lifted directions carries three parallel
    edges per direction; every 5-subset of the six is a wicket (drop
    one edge, the remaining pair from its direction are the columns).
    """

    base: Vec  # minimal-encode point of the plane, dimension n+1
    dir_a: Vec  # base directions, dir_a before dir_b in encode order
    dir_b: Vec
    edges_a: tuple  # 3 edge ids in direction dir_a, sorted
    edges_b: tuple
    wickets: tuple  # 6 witnesses, one per omitted edge

    @property
    def edge_ids(self) -> tuple:
        return tuple(sorted(self.edges_a + self.edges_b))


def _plane_line_edge(build: Build, point: Vec, direction: Vec) -> int:
    """Edge id of the construction line through an A-class point."""
    return build.edge_index[(point[:-1], direction)]


def enumerate_plane_wickets(build: Build) -> list:
    """All plane families for unordered direction pairs of the cap.

    Planes are cosets of span{lift(s), lift(t)}; the representative is
    the minimal encode, which the ascending scan meets first. With a
    progression-free direction set no plane carries a third direction,
    so families never overlap in more than single edges.
    """
    directions = build.directions
    if len(directions) < 2:
        return []
    big = len(directions[0]) + 1
    total = 3**big
    families: list = []
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
                        q = f3_add(
                            p, f3_add(f3_scale(ci, s1), f3_scale(cj, t1))
                        )
                        seen[encode(q)] = 1
                edges_a = []
                edges_b = []
                for j in range(3):
                    shift = (-rho - j) % 3
                    point_a = f3_add(
                        p, f3_add(f3_scale(shift, s1), f3_scale(j, t1))
                    )
                    edges_a.append(_plane_line_edge(build, point_a, s0))
                    point_b = f3_add(
                        p, f3_add(f3_scale(shift, t1), f3_scale(j, s1))
                    )
                    edges_b.append(_plane_line_edge(build, point_b, t0))
                edges_a.sort()
                edges_b.sort()
                wickets = []
                for omitted in edges_a:
                    cols = tuple(e for e in edges_a if e != omitted)
                    wickets.append(
                        WicketWitness(rows=tuple(edges_b), columns=cols)
                    )
                for omitted in edges_b:
                    cols = tuple(e for e in edges_b if e != omitted)
                    wickets.append(
                        WicketWitness(rows=tuple(edges_a), columns=cols)
                    )
                families.append(
                    PlaneWicketFamily(
                        base=p,
                        dir_a=s0,
                        dir_b=t0,
                        edges_a=tuple(edges_a),
                        edges_b=tuple(edges_b),
                        wickets=tuple(wickets),
                    )
                )
    return families


def build_wickets(build) -> list:
    """Every wicket of a build: structured for GF(3), detector otherwise."""
    if build.plane_families:
        return [w for fam in enumerate_plane_wickets(build) for w in fam.wickets]
    return find_wickets(build.hypergraph)


def wicket_dependency_degree(wickets: Sequence[WicketWitness]) -> int:
    """Max number of other wickets sharing at least one edge with one."""
    edge_to: dict = {}
    for idx, witness in enumerate(wickets):
        for e in witness.edge_ids:
            edge_to.setdefault(e, []).append(idx)
    worst = 0
    for idx, witness in enumerate(wickets):
        neighbors: set = set()
        for e in witness.edge_ids:
            neighbors.update(edge_to[e])
        neighbors.discard(idx)
        if len(neighbors) > worst:
            worst = len(neighbors)
    return worst


def decode_wicket(build, witness: WicketWitness) -> dict:
    """Recover the construction labeling of a detected wicket.

    Returns bases x, y, z and directions s, t, u, v, w with columns
    (x, s), (y, u) and rows (x, w), (y, t), (z, v). Both column orders
    are tried; the share pattern is re-verified on raw vertex indices.
    """
    edges = build.hypergraph.edges
    prov = build.provenance
    ordered = (
        (witness.columns[0], witness.columns[1]),
        (witness.columns[1], witness.columns[0]),
    )
    for c1, c2 in ordered:
        x, s = prov[c1]
        y, u = prov[c2]
        r1 = r2 = None
        for r in witness.rows:
            base = prov[r][0]
            if base == x:
                r1 = r
            elif base == y:
                r2 = r
        if r1 is None or r2 is None:
            continue
        rest = [r for r in witness.rows if r != r1 and r != r2]
        if len(rest) != 1:
            continue
        r3 = rest[0]
        z, v = prov[r3]
        w = prov[r1][1]
        t = prov[r2][1]
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
    raise WicketDecodeError(
        f"wicket {witness} does not match the construction labeling"
    )


def wicket_system(lam, modulus: Optional[int] = None) -> EquationSpec:
    """Direction system whose non-degenerate solvability over S is
    equivalent to a wicket in a build with lam = nu / mu.

    lam is a root of x^2 - x + 1 in its ring: k mod k^2 - k + 1, or
    -w over the Eisenstein integers. Coefficients lam - 1 are written as
    lam^2, which is equal in both rings.

    Degeneracy: any failed side inequality collapses two of the five
    edges or makes two parallel edges share a vertex, so such solutions
    do not correspond to wickets and count as trivial.
    """
    lam2 = lam * lam

    def degenerate(assign: dict) -> bool:
        s, t, u, v, w = (assign[name] for name in "stuvw")
        checks = (
            s - t,  # columns share their A vertex
            s - v,  # rows 1,3 share their A vertex
            s - w,  # column 1 equals row 1
            t - u,  # column 2 equals row 2
            lam * w - s - lam2 * t,  # rows 1,2 share their C vertex
            w - lam * s + lam2 * v,  # rows 1,3 share their B vertex
            lam2 * s - lam * v + t,  # rows 2,3 share their A vertex
            lam2 * s - lam * u + t,  # columns share their C vertex
        )
        return any(_is_zero(c, modulus) for c in checks)

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
        trivial=degenerate,
    )


def wicket_witness(
    directions: Iterable,
    bases: Sequence,
    mu,
    nu,
    modulus: Optional[int] = None,
) -> Optional[dict]:
    """Directions plus bases of one wicket of the build with these
    directions, bases and edge multipliers (mu = 1 or -1), or None.

    A direction solution yields a wicket only when x, y = x + mu(s - t)
    and z = x + nu(s - v) are all bases. Over Z/n every residue is a
    base, so the first solution always qualifies; in a lattice disc a
    solution can have no feasible base at all.
    """
    base_set = set(bases)
    spec = wicket_system(mu * nu, modulus)  # nu / mu, as mu is +-1
    for solution in iter_nontrivial_solutions(directions, spec):
        shift_y = mu * (solution["s"] - solution["t"])
        shift_z = nu * (solution["s"] - solution["v"])
        for x in bases:
            y = _canon(x + shift_y, modulus)
            z = _canon(x + shift_z, modulus)
            if y in base_set and z in base_set:
                return {**solution, "x": x, "y": y, "z": z}
    return None
