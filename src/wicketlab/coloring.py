"""Random edge coloring with resampling until no wicket is monochromatic.

The color count k (colors_needed) is the smallest integer >= 2 whose
fourth power reaches 120 times the direction-set size. A uniform random
coloring is repaired by resampling the five edges of the lowest-indexed
monochromatic wicket; under the usual local-lemma accounting each bad
event depends on few others, so the repair loop terminates quickly.
Attempts are capped; each failed attempt reseeds deterministically.

The wickets come from the build itself, as families of edges any five
of which form a wicket (wicket_families): the six edges of an affine
plane in a GF(3) build, one wicket of build_wickets otherwise.
"""

from __future__ import annotations

import random
from math import comb
from typing import NamedTuple

from .construction import colors_needed, wicket_families
from .errors import ColoringBudgetError, IncompleteWicketListError
from .hypergraph import TripartiteHypergraph, find_wickets

RESAMPLE_FACTOR = 100
SEED_STRIDE = 1000003


class EdgeColoring(NamedTuple):
    color_count: int
    assignment: tuple  # edge id -> color
    attempt: int
    resamples: int
    wickets: int  # the wickets resampled against


class ColorClassSelection:
    """Largest color class of a successful coloring, as a subhypergraph.
    Selections compare by identity."""

    def __init__(
        self,
        coloring: EdgeColoring,
        color: int,
        edge_ids: tuple,  # original edge ids, ascending
        hypergraph: TripartiteHypergraph,
    ):
        self.coloring = coloring
        self.color = color
        self.edge_ids = edge_ids
        self.hypergraph = hypergraph


def _shared(hues: tuple) -> tuple:
    """(c, n) for the colors of a family's edges: n of them are c, and
    if five or more share a color, it is c."""
    # of five or more equal colors, two are among the first three
    c = hues[0] if hues[0] == hues[1] else hues[2]
    return c, hues.count(c)


def color_edges(build, seed: int = 0, attempts: int = 8) -> ColorClassSelection:
    """Color the build's edges so no wicket is monochromatic, then
    return the largest color class (re-checked wicket-free).

    A family holds a monochromatic wicket when five of its edges share a
    color; the lowest is the last five edges of that color, and the
    lowest of all lies in the lowest such family, which is resampled.

    Deterministic per (seed, attempts): attempt i uses the child seed
    seed * 1000003 + i. Raises ColoringBudgetError when every attempt
    exceeds 100 * (wicket count + 1) resamples,
    IncompleteWicketListError when the chosen class still holds a
    wicket, which means the wicket lister missed one, and ValueError
    when attempts is below 1.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be at least 1, got {attempts}")
    h = build.hypergraph
    size, edges, starts, ids = wicket_families(build)
    wickets = len(edges) // size * comb(size, 5)
    m = h.edge_count
    k = colors_needed(len(build.directions))

    budget = RESAMPLE_FACTOR * (wickets + 1)
    total_resamples = 0

    def hues(f: int) -> tuple:  # family f's edge colors in this attempt
        return tuple(map(colors.__getitem__, edges[f * size : (f + 1) * size]))

    for attempt in range(attempts):
        rng = random.Random(seed * SEED_STRIDE + attempt)
        colors = [rng.randrange(k) for _ in range(m)]
        # One map over all edges, cut into runs of `size` colors by zip.
        # Five equal colors leave at most one other among the first four.
        runs = zip(*[map(colors.__getitem__, edges)] * size)
        violated = {
            f
            for f, run in enumerate(runs)
            if (run[0] == run[1] or run[2] == run[3]) and _shared(run)[1] >= 5
        }
        used = 0
        while violated and used < budget:
            f = min(violated)
            c = _shared(hues(f))[0]
            run = edges[f * size : (f + 1) * size]
            chosen = [e for e in run if colors[e] == c][-5:]
            for e in chosen:
                colors[e] = rng.randrange(k)
            used += 1
            affected = {g for e in chosen for g in ids[starts[e] : starts[e + 1]]}
            for g in affected:
                if _shared(hues(g))[1] >= 5:
                    violated.add(g)
                else:
                    violated.discard(g)
        total_resamples += used
        if violated:
            continue

        coloring = EdgeColoring(
            color_count=k,
            assignment=tuple(colors),
            attempt=attempt,
            resamples=used,
            wickets=wickets,
        )
        counts = [0] * k
        for c in colors:
            counts[c] += 1
        best_color = max(range(k), key=lambda c: (counts[c], -c))
        edge_ids = tuple(e for e in range(m) if colors[e] == best_color)
        sub = TripartiteHypergraph(
            class_sizes=h.class_sizes,
            edges=tuple(h.edges[e] for e in edge_ids),
        )
        leftover = find_wickets(sub, limit=1)
        if leftover:
            raise IncompleteWicketListError(
                "selected color class still contains a wicket; "
                "the wicket list must have been incomplete"
            )
        return ColorClassSelection(
            coloring=coloring,
            color=best_color,
            edge_ids=edge_ids,
            hypergraph=sub,
        )

    raise ColoringBudgetError(
        {
            "attempts": attempts,
            "resamples": total_resamples,
            "violated": sum(comb(_shared(hues(f))[1], 5) for f in violated),
            "budget_per_attempt": budget,
            "colors": k,
            "wickets": wickets,
            "seed": seed,
        }
    )
