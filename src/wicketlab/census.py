"""Exhaustive census of 5-edge transversal systems on the 3x3x3 grid.

The grid has 27 transversal edges (one vertex in each of the three
classes of size 3), indexed by 9a + 3b + c. Of the C(27,5) = 80730
candidate 5-subsets, the linear ones are classified: does the system
contain a wicket, a (6,3), both, or neither? The expected outcome is an
empty "neither" bucket.

The default route works on integer bitmasks: an edge is a 9-bit vertex
mask and a system a 27-bit edge mask. One walk visits the linear
5-sets in ascending order, takes each level's candidates by AND-ing
per-edge masks, and carries the (6,3) flag and the covered vertices
down the levels. A linear 5-edge system contains a wicket only if it is
one, so the wicket test is a lookup in the set of the 216 wicket masks.
The walk's tables come from the hypergraph module's detectors, run once
at import on the whole grid: its incidence gives the edges that may
join an edge, `find_63` the (6,3) closers and `find_wickets` the wicket
masks. No detector runs per system. The share-table classifier in
`tests/oracles.py` states the rules on its own, and the tests check the
walk and the detectors against it on every system.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, NamedTuple, Optional, TextIO

from .hypergraph import TripartiteHypergraph, find_63, find_wickets, set_bits

GRID_EDGES = tuple(
    (a, b, c) for a in range(3) for b in range(3) for c in range(3)
)

# Vertex `value` of class `cls` is bit 3*cls + value.
VERTEX_MASK = tuple(1 << a | 1 << 3 + b | 1 << 6 + c for a, b, c in GRID_EDGES)
ALL_VERTICES = (1 << 9) - 1


def grid_system(ids: Iterable[int]) -> TripartiteHypergraph:
    return TripartiteHypergraph(
        class_sizes=(3, 3, 3), edges=tuple(GRID_EDGES[i] for i in ids)
    )


# The walk's tables, read off the detectors' view of the whole grid.
_GRID = grid_system(range(27))
_INCIDENCE = _GRID.incidence
# Per edge e: the edges after e that meet it in at most one vertex, so
# may join it in a linear system.
LINEAR_AFTER = tuple(
    (_INCIDENCE.rows[e] | ~_INCIDENCE.touch[e]) & (1 << 27) - (2 << e)
    for e in range(27)
)
# closers[a][b]: the edges c for which {a, b, c} is a (6,3); 0 when a and
# b do not share exactly one vertex.
_closers = [[0] * 27 for _ in range(27)]
for _triangle in find_63(_GRID):
    for _a, _b, _c in itertools.permutations(_triangle):
        _closers[_a][_b] |= 1 << _c
SIX_THREE_CLOSERS = tuple(tuple(row) for row in _closers)
WICKET_MASKS = frozenset(sum(1 << f for f in w) for w in find_wickets(_GRID))


def iter_classified() -> Iterator[tuple]:
    """(ids, has_wicket, has_63, covers_grid) for every linear 5-edge
    system, ids ascending and systems in lexicographic order.

    Each level keeps the mask of the edges after it that meet every
    chosen edge in at most one vertex, so non-linear prefixes never
    expand. `closes` is the mask of the edges that would close a (6,3)
    with two chosen edges.
    """
    after = LINEAR_AFTER
    closers = SIX_THREE_CLOSERS
    vmask = VERTEX_MASK
    wickets = WICKET_MASKS
    for e1 in range(27):
        k1 = closers[e1]
        for e2 in set_bits(after[e1]):
            k2 = closers[e2]
            cand3 = after[e1] & after[e2]
            closes2 = k1[e2]
            union2 = vmask[e1] | vmask[e2]
            for e3 in set_bits(cand3):
                k3 = closers[e3]
                cand4 = cand3 & after[e3]
                has63_3 = closes2 >> e3 & 1
                closes3 = closes2 | k1[e3] | k2[e3]
                union3 = union2 | vmask[e3]
                for e4 in set_bits(cand4):
                    cand5 = cand4 & after[e4]
                    has63_4 = has63_3 | closes3 >> e4 & 1
                    closes4 = closes3 | k1[e4] | k2[e4] | k3[e4]
                    union4 = union3 | vmask[e4]
                    edges4 = 1 << e1 | 1 << e2 | 1 << e3 | 1 << e4
                    for e5 in set_bits(cand5):
                        has_w = (edges4 | 1 << e5) in wickets
                        has_63 = bool(has63_4 | closes4 >> e5 & 1)
                        covers = (union4 | vmask[e5]) == ALL_VERTICES
                        yield (e1, e2, e3, e4, e5), has_w, has_63, covers


class CensusReport(NamedTuple):
    total_candidates: int
    linear: int
    wicket: int
    six_three: int
    both: int
    full_coverage: int
    counterexamples: tuple

    @property
    def verified(self) -> bool:
        return not self.counterexamples


def run_census(csv: Optional[TextIO] = None) -> CensusReport:
    """Classify every linear 5-edge system in one pass. With `csv`, the
    header and one row per system are written to it during that pass."""
    linear = wicket = six = both = cover = 0
    counterexamples: list = []
    if csv is not None:
        csv.write("e1,e2,e3,e4,e5,wicket,six_three\n")
    for ids, has_w, has_63, covers in iter_classified():
        linear += 1
        if has_w:
            wicket += 1
        if has_63:
            six += 1
        if has_w and has_63:
            both += 1
        if not has_w and not has_63:
            counterexamples.append(ids)
        if covers:
            cover += 1
        if csv is not None:
            row = ",".join(str(i) for i in ids)
            csv.write(f"{row},{int(has_w)},{int(has_63)}\n")
    return CensusReport(
        total_candidates=math.comb(27, 5),
        linear=linear,
        wicket=wicket,
        six_three=six,
        both=both,
        full_coverage=cover,
        counterexamples=tuple(counterexamples),
    )


def minimal_free_example() -> Optional[tuple]:
    """First 4-edge linear system with no (6,3) (a wicket needs five
    edges, so none of these can contain one)."""
    after = LINEAR_AFTER
    closers = SIX_THREE_CLOSERS
    for e1 in range(27):
        for e2 in set_bits(after[e1]):
            cand3 = after[e1] & after[e2]
            closes2 = closers[e1][e2]
            for e3 in set_bits(cand3 & ~closes2):
                closes3 = closes2 | closers[e1][e3] | closers[e2][e3]
                for e4 in set_bits(cand3 & after[e3] & ~closes3):
                    return e1, e2, e3, e4
    return None
