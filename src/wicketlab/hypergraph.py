"""Tripartite 3-uniform hypergraphs and their pattern detectors.

Vertices live in three index classes A, B, C. An edge is a triple
(a, b, c) of indices, one per class. The two patterns detected here:

* wicket: five edges arranged as the three rows and two columns of a
  3x3 point matrix (9 vertices; rows pairwise disjoint, columns
  disjoint, each row meets each column in exactly one vertex);
* (6,3): three edges pairwise sharing one vertex, with three distinct
  shared vertices, spanning six vertices in total.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional

Edge = tuple[int, int, int]


class TripartiteHypergraph:
    """Class sizes and edges; hypergraphs with equal ones are equal."""

    def __init__(
        self, class_sizes: tuple[int, int, int], edges: tuple[Edge, ...]
    ):
        sizes = tuple(class_sizes)
        if len(sizes) != 3 or any(s < 0 for s in sizes):
            raise ValueError(f"bad class sizes {sizes}")
        edges = tuple(tuple(e) for e in edges)
        for e in edges:
            if len(e) != 3:
                raise ValueError(f"edge {e} is not a triple")
            for cls in range(3):
                if not 0 <= e[cls] < sizes[cls]:
                    raise ValueError(
                        f"edge {e}: index {e[cls]} out of range for class {cls}"
                    )
        self.class_sizes = sizes
        self.edges = edges

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.class_sizes == other.class_sizes and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.class_sizes, self.edges))

    @property
    def vertex_count(self) -> int:
        return sum(self.class_sizes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_masks(self) -> tuple:
        """Each edge as an int with one bit per vertex: class 0 takes
        bits 0..|A|-1, class 1 the next |B| bits, class 2 the rest."""
        b = self.class_sizes[0]
        c = b + self.class_sizes[1]
        return tuple(
            1 << x | 1 << (b + y) | 1 << (c + z) for x, y, z in self.edges
        )


class WicketWitness(NamedTuple):
    """Row/column edge indices of one wicket; rows and columns sorted."""

    rows: tuple[int, int, int]
    columns: tuple[int, int]

    @property
    def edge_ids(self) -> tuple:
        return tuple(sorted(self.rows + self.columns))


class SixThreeWitness(NamedTuple):
    """Edge indices of one (6,3) triangle."""

    edges: tuple[int, int, int]


def _ids(bits: int) -> list:
    """Positions of the set bits of `bits`, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def find_wickets(
    h: TripartiteHypergraph, limit: Optional[int] = None
) -> list:
    """All wickets, each 5-edge set once.

    Columns are pairs i < j of disjoint edges; rows are edges meeting
    both columns in exactly one vertex (their third vertex then falls
    outside both). Any three pairwise-disjoint rows close a wicket;
    rows being disjoint forces all nine vertices distinct.

    Vertex -> edge incidence lists give every edge its row set, the
    edges meeting it in exactly one vertex, kept as a bitmask over edge
    ids. An edge meeting it in two or more vertices is left out, so
    non-linear inputs are fine: their extra overlaps simply disqualify
    the pairs involved. Only edges meeting a row of i can share a row
    with i, so the columns j are taken from that two-hop neighbourhood,
    and the rows of the pair are rows[i] & rows[j].

    The list is ordered by (i, j), then by row triple; `color_edges`
    resamples the lowest-indexed violated wicket, so this order shapes
    its output. No 5-set is reached twice: its only disjoint pairs are
    the columns and the three row pairs, and a row pair taken as
    columns would leave both old columns among the rows, which meet
    the third row.
    """
    if limit is not None and limit <= 0:
        return []
    masks = h.edge_masks
    verts = [_ids(edge) for edge in masks]
    at: dict = {}  # vertex bit position -> ids of the edges through it
    for e, vs in enumerate(verts):
        for v in vs:
            at.setdefault(v, []).append(e)
    rows = []  # rows[e]: the edges meeting e in exactly one vertex, as bits
    for edge, vs in zip(masks, verts):
        bits = 0
        for v in vs:
            for f in at[v]:
                if (edge & masks[f]).bit_count() == 1:
                    bits |= 1 << f
        rows.append(bits)
    found: list = []
    for i, mi in enumerate(masks):
        ri = rows[i]
        reach = 0
        for f in _ids(ri):
            reach |= rows[f]
        # columns: edges j > i in the two-hop neighbourhood, disjoint from i
        reach >>= i + 1
        j = i
        while reach:
            step = (reach & -reach).bit_length()
            reach >>= step
            j += step
            if masks[j] & mi:
                continue
            shared = ri & rows[j]
            if shared.bit_count() < 3:
                continue
            candidates = _ids(shared)
            nc = len(candidates)
            for p in range(nc):
                ep = candidates[p]
                mp = masks[ep]
                for q in range(p + 1, nc):
                    eq = candidates[q]
                    mq = masks[eq]
                    if mp & mq:
                        continue
                    for r in range(q + 1, nc):
                        er = candidates[r]
                        if (mp | mq) & masks[er]:
                            continue
                        found.append(
                            WicketWitness(rows=(ep, eq, er), columns=(i, j))
                        )
                        if limit is not None and len(found) >= limit:
                            return found
    return found


def find_63(
    h: TripartiteHypergraph, limit: Optional[int] = None
) -> list:
    """All (6,3) triangles: edges pairwise sharing exactly one vertex,
    with the three shared vertices distinct.

    Each triangle is reported once, through its two lowest edge
    indices. Sunflowers (three edges through one vertex) are excluded
    because the shared vertices must be pairwise distinct. Pairs that
    overlap in two or more vertices are simply never eligible, so the
    input does not have to be linear.
    """
    if limit is not None and limit <= 0:
        return []
    masks = h.edge_masks
    m = len(masks)
    found: list = []
    for i in range(m):
        mi = masks[i]
        for j in range(i + 1, m):
            x = mi & masks[j]
            if x.bit_count() != 1:
                continue
            for k in range(j + 1, m):
                mk = masks[k]
                y = mk & mi
                if y.bit_count() != 1:
                    continue
                z = mk & masks[j]
                if z.bit_count() != 1:
                    continue
                if y == x or z == x:
                    continue
                found.append(SixThreeWitness(edges=(i, j, k)))
                if limit is not None and len(found) >= limit:
                    return found
    return found


def write_hypergraph_text(h: TripartiteHypergraph) -> str:
    """The `--out` format: "p tlh |A| |B| |C| m", then one line of
    0-based class indices per edge."""
    a, b, c = h.class_sizes
    lines = [f"p tlh {a} {b} {c} {len(h.edges)}"]
    lines.extend(f"{ea} {eb} {ec}" for (ea, eb, ec) in h.edges)
    return "\n".join(lines) + "\n"
