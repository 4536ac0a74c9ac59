"""Random edge coloring with resampling until no wicket is monochromatic.

The color count k is the smallest integer >= 2 whose fourth power
reaches 120 times the direction-set size. A uniform random coloring is
repaired by resampling the five edges of the lowest-indexed
monochromatic wicket; under the usual local-lemma accounting each bad
event depends on few others, so the repair loop terminates quickly.
Attempts are capped; each failed attempt reseeds deterministically.

A GF(3) build is colored from its plane families, kept as one flat
array of edge ids (PlaneWickets), so no wicket object is built; a wicket
list, passed in or found by the detector for the other families, is
indexed by wickets_by_edge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .construction import PlaneWickets, build_wickets, wickets_by_edge
from .errors import ColoringBudgetError, IncompleteWicketListError
from .hypergraph import TripartiteHypergraph, WicketWitness, find_wickets

RESAMPLE_FACTOR = 100
SEED_STRIDE = 1000003


def colors_needed(set_size: int) -> int:
    """Smallest k >= 2 with k^4 >= 120 * set_size."""
    if set_size < 0:
        raise ValueError("set size cannot be negative")
    k = 2
    target = 120 * set_size
    while k**4 < target:
        k += 1
    return k


@dataclass(frozen=True)
class EdgeColoring:
    color_count: int
    assignment: tuple  # edge id -> color
    seed: int
    attempt: int
    resamples: int


@dataclass(frozen=True, eq=False)
class ColorClassSelection:
    """Largest color class of a successful coloring, as a subhypergraph."""

    coloring: EdgeColoring
    color: int
    edge_ids: tuple  # original edge ids, ascending
    hypergraph: TripartiteHypergraph


def _monochromatic(colors: list, edge_ids: tuple) -> bool:
    first = colors[edge_ids[0]]
    for e in edge_ids:
        if colors[e] != first:
            return False
    return True


def color_edges(
    build,
    seed: int = 0,
    attempts: int = 8,
    wickets: Optional[Sequence[WicketWitness]] = None,
) -> ColorClassSelection:
    """Color the build's edges so no wicket is monochromatic, then
    return the largest color class (re-checked wicket-free).

    Without `wickets`, a GF(3) build's wickets are read from its plane
    families and any other build's come from build_wickets; both give
    the same coloring as passing build_wickets(build).

    Deterministic per (seed, attempts): attempt i uses the child seed
    seed * 1000003 + i. Raises ColoringBudgetError when every attempt
    exceeds 100 * (wicket count + 1) resamples,
    IncompleteWicketListError when the chosen class still holds a
    wicket, which means the `wickets` passed in were not all of them,
    and ValueError when attempts is below 1.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be at least 1, got {attempts}")
    h = build.hypergraph
    if wickets is None and build.plane_families:
        wickets = PlaneWickets(build)
        containing = wickets.containing
    else:
        if wickets is None:
            wickets = build_wickets(build)
        by_edge = wickets_by_edge(wickets)
        wickets = [witness.edge_ids for witness in wickets]

        def containing(edge: int):
            return by_edge.get(edge, ())

    m = h.edge_count
    k = colors_needed(len(build.directions))

    budget = RESAMPLE_FACTOR * (len(wickets) + 1)
    total_resamples = 0
    last_violated = 0

    for attempt in range(attempts):
        rng = random.Random(seed * SEED_STRIDE + attempt)
        colors = [rng.randrange(k) for _ in range(m)]
        violated = {
            idx
            for idx, ids in enumerate(wickets)
            if _monochromatic(colors, ids)
        }
        used = 0
        while violated and used < budget:
            ids = wickets[min(violated)]
            for e in ids:
                colors[e] = rng.randrange(k)
            used += 1
            affected: set = set()
            for e in ids:
                affected.update(containing(e))
            for idx in affected:
                if _monochromatic(colors, wickets[idx]):
                    violated.add(idx)
                else:
                    violated.discard(idx)
        total_resamples += used
        last_violated = len(violated)
        if violated:
            continue

        coloring = EdgeColoring(
            color_count=k,
            assignment=tuple(colors),
            seed=seed,
            attempt=attempt,
            resamples=used,
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
                "the wicket list passed in must have been incomplete"
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
            "violated": last_violated,
            "budget_per_attempt": budget,
            "colors": k,
            "wickets": len(wickets),
            "seed": seed,
        }
    )
