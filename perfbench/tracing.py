"""In-process traced run: spans around the calls into each wicketlab layer.

The package's modules import each other with `from .x import y`, so a
function is wrapped at every module attribute its callers look up (for
example `wicketlab.coloring.find_wickets`, not `wicketlab.hypergraph`).
Spans live in memory as [name, start, end, parent, command] records and
are written out once the run ends. Layer metrics are derived from them: a
layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

# (module, attribute) pairs to wrap. A span is named after the last
# component of the module and the attribute, as in "cli.build_f3".
SITES = (
    ("wicketlab.cli", "load_cap_file"),
    ("wicketlab.cli", "max_cap_exact"),
    ("wicketlab.cli", "build_f3"),
    ("wicketlab.cli", "build_modular"),
    ("wicketlab.cli", "build_eisenstein"),
    ("wicketlab.cli", "build_wickets"),
    ("wicketlab.cli", "wicket_dependency_degree"),
    ("wicketlab.cli", "color_edges"),
    ("wicketlab.cli", "max_free_exhaustive"),
    ("wicketlab.cli", "max_free_heuristic"),
    ("wicketlab.cli", "max_triangle_free"),
    ("wicketlab.cli", "run_census"),
    ("wicketlab.cli", "minimal_free_example"),
    ("wicketlab.coloring", "find_wickets"),
    ("wicketlab.construction", "find_wickets"),
    ("wicketlab.census", "find_wickets"),
    ("wicketlab.census", "find_63"),
    ("wicketlab.eqfree", "has_solution"),
)
# Generator functions: each step of the iteration is one span.
GENERATOR_SITES = (("wicketlab.cli", "iter_classified"),)

ROOT_SPAN = "cli.main"


def _build_counts(args, build):
    return {"construction.edges": build.hypergraph.edge_count}


def _find_wickets_counts(args, wickets):
    return {"hypergraph.find_wickets_edges": args[0].edge_count,
            "hypergraph.wickets_found": len(wickets)}


# Counters taken from arguments and results at the span boundaries.
COUNTERS = {
    "cli.build_f3": _build_counts,
    "cli.build_modular": _build_counts,
    "cli.build_eisenstein": _build_counts,
    "cli.build_wickets": lambda args, wickets: {
        "construction.wickets": len(wickets)},
    "cli.color_edges": lambda args, selection: {
        "coloring.resamples": selection.coloring.resamples,
        "coloring.class_edges": len(selection.edge_ids)},
    "cli.run_census": lambda args, report: {
        "census.linear_systems": report.linear},
    "cli.iter_classified": lambda args, row: {"census.linear_systems": 1},
    "coloring.find_wickets": _find_wickets_counts,
    "construction.find_wickets": _find_wickets_counts,
    "census.find_wickets": _find_wickets_counts,
    "eqfree.has_solution": lambda args, solution: {
        "eqfree.free_calls": solution is None},
}


def _span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Wraps the sites while installed and records spans and counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.command = -1
        self._stack: list = []
        self._originals: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.command])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _count(self, name: str, args, result) -> None:
        counter = COUNTERS.get(name)
        if counter is None:
            return
        for key, value in counter(args, result).items():
            self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._count(name, args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self._count(name, args, item)
                yield item

        return traced

    def install(self) -> None:
        for sites, wrap in ((SITES, self._wrap),
                            (GENERATOR_SITES, self._wrap_generator)):
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                setattr(module, attr, wrap(_span_name(module_name, attr),
                                           original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def call_main(self, main, argv, command: int):
        """Run the CLI's main under the root span of command `command`."""
        self.command = command
        idx = self._open(ROOT_SPAN)
        try:
            return main(argv)
        finally:
            self._close(idx)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _union(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(spans, counts) -> dict:
    """Per-layer metric values (without the tracing overhead) from spans."""
    by_name: dict = {}
    children: dict = {}
    for idx, (name, start, end, parent, _cmd) in enumerate(spans):
        by_name.setdefault(name, []).append(idx)
        children.setdefault(parent, []).append(idx)

    def total(*names) -> float:
        return _union((spans[i][1], spans[i][2])
                      for name in names for i in by_name.get(name, ()))

    def self_time(name) -> float:
        out = 0.0
        for i in by_name.get(name, ()):
            kids = [(spans[c][1], spans[c][2]) for c in children.get(i, ())]
            out += spans[i][2] - spans[i][1] - _union(kids)
        return out

    def calls(*names) -> int:
        return sum(len(by_name.get(name, ())) for name in names)

    find_wickets = ("coloring.find_wickets", "construction.find_wickets",
                    "census.find_wickets")
    has_calls = calls("eqfree.has_solution")
    return {
        "cli.self_s": self_time(ROOT_SPAN),
        "gf3.load_cap_s": total("cli.load_cap_file"),
        "gf3.max_cap_s": total("cli.max_cap_exact"),
        "construction.build_s": total("cli.build_f3", "cli.build_modular",
                                      "cli.build_eisenstein"),
        "construction.build_wickets_s": total("cli.build_wickets"),
        "construction.build_wickets_self_s": self_time("cli.build_wickets"),
        "construction.dependency_degree_s": total(
            "cli.wicket_dependency_degree"),
        "construction.edges": counts.get("construction.edges", 0),
        "construction.wickets": counts.get("construction.wickets", 0),
        "hypergraph.find_wickets_s": total(*find_wickets),
        "hypergraph.find_wickets_calls": calls(*find_wickets),
        "hypergraph.find_wickets_edges": counts.get(
            "hypergraph.find_wickets_edges", 0),
        "hypergraph.wickets_found": counts.get("hypergraph.wickets_found", 0),
        "hypergraph.find_63_s": total("census.find_63"),
        "hypergraph.find_63_calls": calls("census.find_63"),
        "coloring.color_edges_s": total("cli.color_edges"),
        "coloring.color_edges_self_s": self_time("cli.color_edges"),
        "coloring.recheck_s": total("coloring.find_wickets"),
        "coloring.resamples": counts.get("coloring.resamples", 0),
        "coloring.class_edges": counts.get("coloring.class_edges", 0),
        "eqfree.search_s": total("cli.max_free_exhaustive",
                                 "cli.max_free_heuristic",
                                 "cli.max_triangle_free"),
        "eqfree.has_solution_s": total("eqfree.has_solution"),
        "eqfree.has_solution_calls": has_calls,
        "eqfree.free_ratio": (counts.get("eqfree.free_calls", 0) / has_calls
                              if has_calls else 0.0),
        "census.run_s": total("cli.run_census"),
        "census.detectors_s": total("census.find_wickets", "census.find_63"),
        "census.iter_classified_s": total("cli.iter_classified"),
        "census.minimal_s": total("cli.minimal_free_example"),
        "census.linear_systems": counts.get("census.linear_systems", 0),
    }
