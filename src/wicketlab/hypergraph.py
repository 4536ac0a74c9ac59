"""Tripartite 3-uniform hypergraphs, linearity, and pattern detectors.

Vertices live in three index classes A, B, C. An edge is a triple
(a, b, c) of indices, one per class. The two patterns detected here:

* wicket: five edges arranged as the three rows and two columns of a
  3x3 point matrix (9 vertices; rows pairwise disjoint, columns
  disjoint, each row meets each column in exactly one vertex);
* (6,3): three edges pairwise sharing one vertex, with three distinct
  shared vertices, spanning six vertices in total.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .errors import HypergraphFileError, NonLinearError

Edge = tuple[int, int, int]
Vertex = tuple[int, int]  # (class index, index within class)


@dataclass(frozen=True)
class TripartiteHypergraph:
    class_sizes: tuple[int, int, int]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        sizes = tuple(self.class_sizes)
        object.__setattr__(self, "class_sizes", sizes)
        if len(sizes) != 3 or any(s < 0 for s in sizes):
            raise ValueError(f"bad class sizes {sizes}")
        edges = tuple(tuple(e) for e in self.edges)
        for e in edges:
            if len(e) != 3:
                raise ValueError(f"edge {e} is not a triple")
            for cls in range(3):
                if not 0 <= e[cls] < sizes[cls]:
                    raise ValueError(
                        f"edge {e}: index {e[cls]} out of range for class {cls}"
                    )
        object.__setattr__(self, "edges", edges)

    @property
    def vertex_count(self) -> int:
        return sum(self.class_sizes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_vertex_sets(self) -> tuple:
        return tuple(
            frozenset(((0, a), (1, b), (2, c))) for (a, b, c) in self.edges
        )

    def linearity_violation(self) -> Optional[tuple]:
        """First pair of edge indices sharing two or more vertices, or None.

        Two tripartite edges share >= 2 vertices exactly when they agree
        on >= 2 coordinates, so duplicate pair-projections are enough.
        """
        seen: dict = {}
        for idx, (a, b, c) in enumerate(self.edges):
            for key in ((0, a, b), (1, a, c), (2, b, c)):
                if key in seen:
                    return (seen[key], idx)
                seen[key] = idx
        return None

    @cached_property
    def is_linear(self) -> bool:
        return self.linearity_violation() is None

    def require_linear(self) -> None:
        pair = self.linearity_violation()
        if pair is not None:
            raise NonLinearError(pair)

    def degrees(self) -> tuple:
        """Edge count per vertex, one list per class."""
        per_class = [[0] * s for s in self.class_sizes]
        for a, b, c in self.edges:
            per_class[0][a] += 1
            per_class[1][b] += 1
            per_class[2][c] += 1
        return tuple(per_class)

    def degree_profile(self) -> tuple:
        """Per-class degree multisets, each sorted descending."""
        return tuple(
            tuple(sorted(degrees, reverse=True)) for degrees in self.degrees()
        )


@dataclass(frozen=True)
class WicketWitness:
    """Row/column edge indices of one wicket; rows and columns sorted."""

    rows: tuple[int, int, int]
    columns: tuple[int, int]

    @property
    def edge_ids(self) -> tuple:
        return tuple(sorted(self.rows + self.columns))

    @property
    def edge_set(self) -> frozenset:
        return frozenset(self.rows + self.columns)


@dataclass(frozen=True)
class SixThreeWitness:
    """Edge indices of one (6,3) triangle plus its three shared vertices."""

    edges: tuple[int, int, int]
    shared: tuple[Vertex, Vertex, Vertex]

    @property
    def edge_ids(self) -> tuple:
        return tuple(sorted(self.edges))

    @property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)


def witness_json(witness) -> dict:
    if isinstance(witness, WicketWitness):
        return {"type": "wicket", "edges": list(witness.edge_ids)}
    if isinstance(witness, SixThreeWitness):
        return {"type": "63", "edges": list(witness.edge_ids)}
    raise TypeError(f"not a witness: {witness!r}")


def find_wickets(
    h: TripartiteHypergraph, limit: Optional[int] = None
) -> list:
    """All wickets, each 5-edge set once.

    Outer loop: unordered pairs of disjoint edges, tried as the two
    columns. Candidate rows meet both columns in exactly one vertex
    each (their third vertex then automatically falls outside both).
    Any three pairwise-disjoint candidates close a wicket; rows being
    disjoint forces all nine vertices distinct. Every condition is
    checked edge-set-wise, so non-linear inputs are fine: their extra
    overlaps simply disqualify the pairs involved.

    No 5-set is reached twice: its only disjoint pairs are the columns
    and the three row pairs, and a row pair taken as columns would
    leave both old columns among the rows, which meet the third row.
    """
    if limit is not None and limit <= 0:
        return []
    vsets = h.edge_vertex_sets
    m = len(vsets)
    found: list = []
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
    vsets = h.edge_vertex_sets
    m = len(vsets)
    found: list = []
    for i in range(m):
        vi = vsets[i]
        for j in range(i + 1, m):
            common_ij = vi & vsets[j]
            if len(common_ij) != 1:
                continue
            (x,) = common_ij
            for k in range(j + 1, m):
                vk = vsets[k]
                common_ik = vk & vi
                if len(common_ik) != 1:
                    continue
                common_jk = vk & vsets[j]
                if len(common_jk) != 1:
                    continue
                (y,) = common_ik
                (z,) = common_jk
                if y == x or z == x:
                    continue
                found.append(
                    SixThreeWitness(edges=(i, j, k), shared=(x, y, z))
                )
                if limit is not None and len(found) >= limit:
                    return found
    return found


def validate_wicket(h: TripartiteHypergraph, witness: WicketWitness) -> bool:
    """Check the full wicket definition against the hypergraph."""
    ids = witness.rows + witness.columns
    if len(set(ids)) != 5:
        return False
    if any(not 0 <= e < len(h.edges) for e in ids):
        return False
    vsets = h.edge_vertex_sets
    rows = [vsets[e] for e in witness.rows]
    cols = [vsets[e] for e in witness.columns]
    for a in range(3):
        for b in range(a + 1, 3):
            if rows[a] & rows[b]:
                return False
    if cols[0] & cols[1]:
        return False
    for r in rows:
        for c in cols:
            if len(r & c) != 1:
                return False
    union = rows[0] | rows[1] | rows[2] | cols[0] | cols[1]
    return len(union) == 9


def validate_63(h: TripartiteHypergraph, witness: SixThreeWitness) -> bool:
    ids = witness.edges
    if len(set(ids)) != 3:
        return False
    if any(not 0 <= e < len(h.edges) for e in ids):
        return False
    vsets = [h.edge_vertex_sets[e] for e in ids]
    union = vsets[0] | vsets[1] | vsets[2]
    if len(union) != 6:
        return False
    shared = []
    for a in range(3):
        for b in range(a + 1, 3):
            common = vsets[a] & vsets[b]
            if len(common) != 1:
                return False
            shared.extend(common)
    return len(set(shared)) == 3


def write_hypergraph_text(h: TripartiteHypergraph) -> str:
    a, b, c = h.class_sizes
    lines = [f"p tlh {a} {b} {c} {len(h.edges)}"]
    lines.extend(f"{ea} {eb} {ec}" for (ea, eb, ec) in h.edges)
    return "\n".join(lines) + "\n"


def write_hypergraph_file(h: TripartiteHypergraph, path) -> None:
    Path(path).write_text(write_hypergraph_text(h))


def parse_hypergraph_text(text: str) -> TripartiteHypergraph:
    """Parse "p tlh |A| |B| |C| m" plus m lines of 0-based edge triples."""
    header: Optional[tuple] = None
    edges: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 6 or tokens[0] != "p" or tokens[1] != "tlh":
                raise HypergraphFileError(
                    f"expected header 'p tlh |A| |B| |C| m', got {line!r}", lineno
                )
            try:
                sizes = tuple(int(t) for t in tokens[2:5])
                declared = int(tokens[5])
            except ValueError:
                raise HypergraphFileError(
                    f"non-integer field in header {line!r}", lineno
                ) from None
            if any(s < 0 for s in sizes) or declared < 0:
                raise HypergraphFileError("negative count in header", lineno)
            header = (sizes, declared)
            continue
        if len(tokens) != 3:
            raise HypergraphFileError(
                f"expected 3 indices, got {len(tokens)}", lineno
            )
        try:
            edge = tuple(int(t) for t in tokens)
        except ValueError:
            raise HypergraphFileError(
                f"non-integer index in {line!r}", lineno
            ) from None
        sizes = header[0]
        for cls in range(3):
            if not 0 <= edge[cls] < sizes[cls]:
                raise HypergraphFileError(
                    f"index {edge[cls]} out of range for class {cls}", lineno
                )
        edges.append(edge)
    if header is None:
        raise HypergraphFileError("missing header line")
    sizes, declared = header
    if len(edges) != declared:
        raise HypergraphFileError(
            f"header declares {declared} edges, file has {len(edges)}"
        )
    return TripartiteHypergraph(class_sizes=sizes, edges=tuple(edges))


def load_hypergraph_file(path) -> TripartiteHypergraph:
    return parse_hypergraph_text(Path(path).read_text())
