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

Over GF(3) the wickets are listed in closed form: the lifted lines of
two directions s, t span one affine plane per coset of <t - s>, and
the six edges in such a plane carry six wickets (one per omitted edge).
The other families list theirs with the generic detector.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .eisenstein import OMEGA, ZERO, EisensteinPoint, region_points
from .eqfree import (
    EquationSpec,
    _canon,
    _is_zero,
    iter_nontrivial_solutions,
)
from .errors import WicketDecodeError
from .gf3 import CapSet, all_vectors, encode, f3_add, f3_scale, f3_sub
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


def enumerate_plane_wickets(build: Build) -> list:
    """The (edges_a, edges_b) id triples of every GF(3) plane family.

    For directions s before t, the lifted lines (s, 1) and (t, 1) span
    one affine plane per coset L of <t - s> in F_3^n; its construction
    edges are (a, s) and (a, t) for a in L, with edge id
    direction index * 3^n + encode(a). The plane meets lifted
    coordinate r in L + r*s, so the families of one pair are listed by
    the least encode of their plane, min(3 * encode(x + r*s) + r).
    """
    directions = build.directions
    size = len(build.bases)
    families: list = []
    for i, s in enumerate(directions):
        shifts = ((0,) * len(s), s, f3_scale(2, s))
        for j in range(i + 1, len(directions)):
            step = f3_sub(directions[j], s)
            lead = next(k for k, x in enumerate(step) if x)
            planes = []
            for x in build.bases:
                if x[lead]:
                    continue  # one coset representative with x[lead] == 0
                coset = (x, f3_add(x, step), f3_sub(x, step))
                key = min(
                    3 * encode(f3_add(y, shift)) + r
                    for y in coset
                    for r, shift in enumerate(shifts)
                )
                ids = sorted(encode(y) for y in coset)
                planes.append(
                    (
                        key,
                        tuple(i * size + e for e in ids),
                        tuple(j * size + e for e in ids),
                    )
                )
            planes.sort()
            families.extend(plane[1:] for plane in planes)
    return families


def build_wickets(build) -> list:
    """Every wicket of a build: structured for GF(3), detector otherwise.

    Each GF(3) plane family gives six wickets: dropping one edge leaves
    its two partners as the columns and the other direction's three
    edges as the rows, first for each edge of edges_a, then of edges_b.
    """
    if not build.plane_families:
        return find_wickets(build.hypergraph)
    wickets = []
    for edges_a, edges_b in enumerate_plane_wickets(build):
        for rows, lines in ((edges_b, edges_a), (edges_a, edges_b)):
            for omitted in lines:
                columns = tuple(e for e in lines if e != omitted)
                wickets.append(WicketWitness(rows=rows, columns=columns))
    return wickets


def wickets_by_edge(wickets: Sequence[WicketWitness]) -> dict:
    """Edge id -> ascending indices of the wickets that contain it."""
    index: dict = {}
    for idx, witness in enumerate(wickets):
        for e in witness.rows + witness.columns:
            index.setdefault(e, []).append(idx)
    return index


def wicket_dependency_degree(wickets: Sequence[WicketWitness]) -> int:
    """Max number of other wickets sharing at least one edge with one."""
    edge_to = wickets_by_edge(wickets)
    # every wicket is in its own edges' lists, hence the - 1
    return max(
        (
            len(set().union(*(edge_to[e] for e in w.rows + w.columns))) - 1
            for w in wickets
        ),
        default=0,
    )


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
