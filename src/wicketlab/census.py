"""Exhaustive census of 5-edge transversal systems on the 3x3x3 grid.

The grid has 27 transversal edges (one vertex in each of the three
classes of size 3), indexed by 9a + 3b + c. Every C(27,5) = 80730
candidate 5-subset is filtered for linearity and the linear ones are
classified: does the system contain a wicket, a (6,3), both, or
neither? The expected outcome is an empty "neither" bucket.

Two classification routes exist on purpose: cheap table lookups over
precomputed pairwise-share data (default), and the generic detectors
from the hypergraph module. Agreement between them is a test surface,
not an implementation detail.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, NamedTuple, Optional

from .hypergraph import TripartiteHypergraph, find_63, find_wickets

GRID_EDGES = tuple(
    (a, b, c) for a in range(3) for b in range(3) for c in range(3)
)


def _share_tables():
    share = [[0] * 27 for _ in range(27)]
    shared_vertex = [[None] * 27 for _ in range(27)]
    for i, e in enumerate(GRID_EDGES):
        for j, f in enumerate(GRID_EDGES):
            hits = [(cls, e[cls]) for cls in range(3) if e[cls] == f[cls]]
            share[i][j] = len(hits)
            if len(hits) == 1:
                shared_vertex[i][j] = hits[0]
    return share, shared_vertex


SHARE, SHARED_VERTEX = _share_tables()


def grid_system(ids: Iterable[int]) -> TripartiteHypergraph:
    return TripartiteHypergraph(
        class_sizes=(3, 3, 3), edges=tuple(GRID_EDGES[i] for i in ids)
    )


def iter_linear_five_sets() -> Iterator[tuple]:
    """Ascending 5-subsets of grid edges that form linear systems.

    Pairwise share counts prune each nesting level, so non-linear
    prefixes never expand.
    """
    share = SHARE
    for e1 in range(27):
        s1 = share[e1]
        for e2 in range(e1 + 1, 27):
            if s1[e2] > 1:
                continue
            s2 = share[e2]
            for e3 in range(e2 + 1, 27):
                if s1[e3] > 1 or s2[e3] > 1:
                    continue
                s3 = share[e3]
                for e4 in range(e3 + 1, 27):
                    if s1[e4] > 1 or s2[e4] > 1 or s3[e4] > 1:
                        continue
                    s4 = share[e4]
                    for e5 in range(e4 + 1, 27):
                        if (
                            s1[e5] > 1
                            or s2[e5] > 1
                            or s3[e5] > 1
                            or s4[e5] > 1
                        ):
                            continue
                        yield (e1, e2, e3, e4, e5)


def system_has_wicket(ids) -> bool:
    """Table-based wicket test for a linear system of grid edges.

    Tries every pair as the columns; on nine vertices, three pairwise
    disjoint rows each meeting both columns once already pin all nine
    vertices distinct.
    """
    share = SHARE
    m = len(ids)
    for p in range(m):
        for q in range(p + 1, m):
            i, j = ids[p], ids[q]
            if share[i][j] != 0:
                continue
            rows = [ids[r] for r in range(m) if r != p and r != q]
            if len(rows) != 3:
                continue
            a, b, c = rows
            if share[a][b] or share[a][c] or share[b][c]:
                continue
            if all(share[r][i] == 1 and share[r][j] == 1 for r in rows):
                return True
    return False


def system_has_63(ids) -> bool:
    """Table-based (6,3) test: three edges, pairwise sharing one vertex,
    with the three shared vertices distinct."""
    share = SHARE
    sv = SHARED_VERTEX
    for ta, tb, tc in itertools.combinations(range(len(ids)), 3):
        a, b, c = ids[ta], ids[tb], ids[tc]
        if share[a][b] == 1 and share[a][c] == 1 and share[b][c] == 1:
            x, y, z = sv[a][b], sv[a][c], sv[b][c]
            if x != y and x != z and y != z:
                return True
    return False


def system_covers_grid(ids) -> bool:
    used: set = set()
    for i in ids:
        a, b, c = GRID_EDGES[i]
        used.add((0, a))
        used.add((1, b))
        used.add((2, c))
    return len(used) == 9


def detector_classify(ids) -> tuple:
    h = grid_system(ids)
    return (
        bool(find_wickets(h, limit=1)),
        bool(find_63(h, limit=1)),
    )


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


def run_census(use_detectors: bool = False) -> CensusReport:
    """Classify every linear 5-edge system."""
    linear = wicket = six = both = cover = 0
    counterexamples: list = []
    for ids, has_w, has_63 in iter_classified(use_detectors):
        linear += 1
        if has_w:
            wicket += 1
        if has_63:
            six += 1
        if has_w and has_63:
            both += 1
        if not has_w and not has_63:
            counterexamples.append(ids)
        if system_covers_grid(ids):
            cover += 1
    return CensusReport(
        total_candidates=math.comb(27, 5),
        linear=linear,
        wicket=wicket,
        six_three=six,
        both=both,
        full_coverage=cover,
        counterexamples=tuple(counterexamples),
    )


def iter_classified(use_detectors: bool = False) -> Iterator[tuple]:
    """(ids, has_wicket, has_63) for every linear system, in order."""
    for ids in iter_linear_five_sets():
        if use_detectors:
            has_w, has_63 = detector_classify(ids)
        else:
            has_w = system_has_wicket(ids)
            has_63 = system_has_63(ids)
        yield ids, has_w, has_63


def minimal_free_example() -> Optional[tuple]:
    """First 4-edge linear system with no (6,3) (a wicket needs five
    edges, so none of these can contain one)."""
    share = SHARE
    for ids in itertools.combinations(range(27), 4):
        linear = True
        for a, b in itertools.combinations(ids, 2):
            if share[a][b] > 1:
                linear = False
                break
        if not linear:
            continue
        if not system_has_63(ids):
            return ids
    return None
