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


class Incidence(NamedTuple):
    """Edge-id bitmasks of one hypergraph (bit f stands for edge f)."""

    through: tuple  # through[cls][v]: the edges through vertex v of cls
    rows: tuple  # rows[e]: the edges meeting e in exactly one vertex
    touch: tuple  # touch[e]: the edges meeting e at all, e itself included


class TripartiteHypergraph:
    """Class sizes and edges; hypergraphs compare by identity, even
    with equal ones."""

    def __init__(
        self, class_sizes: tuple[int, int, int], edges: tuple[Edge, ...]
    ):
        sizes = tuple(class_sizes)
        if len(sizes) != 3 or min(sizes) < 0:
            raise ValueError(f"bad class sizes {sizes}")
        sa, sb, sc = sizes
        checked = []
        for e in edges:
            e = tuple(e)
            if len(e) != 3:
                raise ValueError(f"edge {e} is not a triple")
            a, b, c = e
            if not (0 <= a < sa and 0 <= b < sb and 0 <= c < sc):
                cls = next(k for k in range(3) if not 0 <= e[k] < sizes[k])
                raise ValueError(
                    f"edge {e}: index {e[cls]} out of range for class {cls}"
                )
            checked.append(e)
        self.class_sizes = sizes
        self.edges = tuple(checked)

    @property
    def vertex_count(self) -> int:
        return sum(self.class_sizes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence(self) -> Incidence:
        """The edge-id masks both detectors read, built once.

        One pass over the edges fills `through`. For an edge e = (a, b,
        c), let x, y, z be the masks of the edges through a, b and c. An
        edge lies in x ^ y ^ z when it meets e in one or three vertices,
        and in x & y & z when it meets e in three (e itself, or a repeat
        of e). So rows[e] leaves out the repeats of e and the edges
        meeting e in two vertices, and non-linear inputs need no special
        case.
        """
        ta: dict = {}
        tb: dict = {}
        tc: dict = {}
        bit = 1
        for a, b, c in self.edges:
            ta[a] = ta.get(a, 0) | bit
            tb[b] = tb.get(b, 0) | bit
            tc[c] = tc.get(c, 0) | bit
            bit <<= 1
        rows = []
        touch = []
        for a, b, c in self.edges:
            x, y, z = ta[a], tb[b], tc[c]
            rows.append((x ^ y ^ z) & ~(x & y & z))
            touch.append(x | y | z)
        return Incidence((ta, tb, tc), tuple(rows), tuple(touch))


def set_bits(mask: int) -> list:
    """The set bit positions of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def find_wickets(
    h: TripartiteHypergraph, limit: Optional[int] = None
) -> list:
    """All wickets, each 5-edge set once, as its five ascending edge ids.

    Columns are pairs i < j of disjoint edges; rows are edges meeting
    both columns in exactly one vertex (their third vertex then falls
    outside both). Any three pairwise-disjoint rows close a wicket;
    rows being disjoint forces all nine vertices distinct.

    Everything runs on `h.incidence`. The rows of a pair are
    rows[i] & rows[j]; an edge meeting i in two or more vertices is in
    neither, so non-linear inputs simply disqualify the pairs involved.
    Only edges meeting a row of i can share a row with i, so the
    columns j are that two-hop neighbourhood minus touch[i], and rows
    p, q are disjoint when bit q of touch[p] is clear.

    The list is ordered by (i, j), then by row triple; with `limit` the
    scan stops after that many (the coloring's re-check passes 1). On a
    build's hypergraph, `build_wickets` returns the same list, and the
    tests pin the two as equal. No 5-set is reached twice: its only
    disjoint pairs are the columns and the three row pairs, and a row
    pair taken as columns would leave both old columns among the rows,
    which meet the third row.
    """
    if limit is not None and limit <= 0:
        return []
    incidence = h.incidence
    rows = incidence.rows
    touch = incidence.touch
    found: list = []
    for i, ri in enumerate(rows):
        reach = 0
        bits = ri
        f = -1
        while bits:
            step = (bits & -bits).bit_length()
            bits >>= step
            f += step
            reach |= rows[f]
        # columns: edges j > i in the two-hop neighbourhood, disjoint from i
        reach = (reach & ~touch[i]) >> (i + 1)
        j = i
        while reach:
            step = (reach & -reach).bit_length()
            reach >>= step
            j += step
            shared = ri & rows[j]
            if shared.bit_count() < 3:
                continue
            candidates = set_bits(shared)
            nc = len(candidates)
            for p in range(nc):
                ep = candidates[p]
                tp = touch[ep]
                for q in range(p + 1, nc):
                    eq = candidates[q]
                    if tp >> eq & 1:
                        continue
                    tpq = tp | touch[eq]
                    for r in range(q + 1, nc):
                        er = candidates[r]
                        if tpq >> er & 1:
                            continue
                        found.append(tuple(sorted((i, j, ep, eq, er))))
                        if limit is not None and len(found) >= limit:
                            return found
    return found


def find_63(h: TripartiteHypergraph) -> list:
    """All (6,3) triangles: edges pairwise sharing exactly one vertex,
    with the three shared vertices distinct.

    Each triangle is reported once, as the edge ids (i, j, k) with
    i < j < k, triples ascending. For j in rows[i], edges i and j share
    one vertex x, in the class c where they agree. The third edges are
    rows[i] & rows[j] minus the edges through x: that leaves out
    sunflowers (three edges through x), and a k meeting i and j in one
    same vertex would meet them in x. Pairs that overlap in two or more
    vertices are never in rows, so the input does not have to be linear.
    """
    incidence = h.incidence
    rows = incidence.rows
    through = incidence.through
    edges = h.edges
    found: list = []
    for i, ri in enumerate(rows):
        a, b, c = edges[i]
        js = ri >> (i + 1)
        j = i
        while js:
            step = (js & -js).bit_length()
            js >>= step
            j += step
            ej = edges[j]
            if ej[0] == a:
                x = through[0][a]
            elif ej[1] == b:
                x = through[1][b]
            else:
                x = through[2][c]
            ks = (ri & rows[j] & ~x) >> (j + 1)
            k = j
            while ks:
                step = (ks & -ks).bit_length()
                ks >>= step
                k += step
                found.append((i, j, k))
    return found


def write_hypergraph_text(h: TripartiteHypergraph) -> str:
    """The `--out` format: "p tlh |A| |B| |C| m", then one line of
    0-based class indices per edge."""
    a, b, c = h.class_sizes
    lines = [f"p tlh {a} {b} {c} {len(h.edges)}"]
    lines.extend(f"{ea} {eb} {ec}" for (ea, eb, ec) in h.edges)
    return "\n".join(lines) + "\n"
