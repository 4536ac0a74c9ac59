"""Self-check of the benchmark harness; runs no wicketlab command.

    python3 perfbench/selfcheck.py

Checks that the metric and workload names the harness emits match
BENCHMARK.json, that the recorded reference outputs pass the output
checks, that corrupted outputs are rejected, and that span self times are
derived correctly. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import tracing
import workloads

# Fields whose corruption the independent checks must catch on their own,
# without the recorded reference.
MUST_CATCH = {
    "build f3": ("edges", "wickets", "max_dependency_degree", "k"),
    "color f3": ("wickets", "total_edges", "lower_bound", "seed"),
    "build modular": ("edges", "wickets", "set_size", "selected_edges"),
    "color modular": ("wickets", "total_edges", "lower_bound"),
    "build eisenstein": ("edges", "set_size", "k"),
    "search": ("size", "verified", "set", "domain"),
    "cap max": ("size", "elements"),
    "census": ("linear", "wicket", "both", "counterexamples", "verified"),
}


def fail(message: str) -> None:
    raise SystemExit(f"selfcheck failed: {message}")


def check_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.E2E_UNITS:
        fail(f"end_to_end {e2e} != emitted {run.E2E_UNITS}")
    layer = {m["name"] for m in spec["per_layer"]}
    emitted = set(tracing.layer_metrics([], {})) | {"trace.overhead_ratio"}
    if layer != emitted:
        fail(f"per_layer differs from emitted: {sorted(layer ^ emitted)}")
    named = {w["name"]: w["why"] for w in spec["workloads"]}
    if named != workloads.WHY:
        fail("workloads in BENCHMARK.json differ from workloads.WHY")


def _corruptions(payload: dict):
    for key, value in payload.items():
        if isinstance(value, bool):
            bad = not value
        elif isinstance(value, int):
            bad = value + 1
        elif isinstance(value, list):
            bad = value[:-1] if value else [0]
        else:
            bad = f"{value}x"
        yield key, {**payload, key: bad}


def check_outputs() -> None:
    workdir = run.WORK / "selfcheck"
    try:
        for name in workloads.NAMES:
            reference = run.load_reference(name)
            commands = workloads.make_commands(
                name, workloads.DEFAULT_SEED, workdir)
            for command in commands:
                check_command(command, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_command(command, reference: dict) -> None:
    """The reference passes; corrupting any field fails against it, and
    corrupting a MUST_CATCH field fails the independent checks too.

    Files a command writes are not on disk here, so only stdout is
    checked.
    """
    stdout = reference[command.label]["stdout"]
    if _rejected(command, stdout, reference):
        fail(f"{command.label}: reference output rejected")
    payload = json.loads(stdout)
    must = next((fields for prefix, fields in MUST_CATCH.items()
                 if command.label.startswith(prefix)), ())
    for key in must:
        if key not in payload:
            fail(f"{command.label}: no field {key} to corrupt")
    for key, bad in _corruptions(payload):
        text = json.dumps(bad, sort_keys=True) + "\n"
        if not _rejected(command, text, reference):
            fail(f"{command.label}: corrupted {key} accepted")
        if key in must and not _rejected(command, text, None):
            fail(f"{command.label}: corrupted {key} passes the checks")


def _rejected(command, stdout: str, reference) -> bool:
    try:
        command.validate(stdout, reference)
    except workloads.CheckError:
        return True
    return False


def check_self_times() -> None:
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["cli.build_wickets", 1.0, 6.0, 0, 0],
        ["construction.find_wickets", 2.0, 3.0, 1, 0],
        ["construction.find_wickets", 4.0, 5.5, 1, 0],
        ["cli.color_edges", 7.0, 9.0, 0, 0],
        ["coloring.find_wickets", 8.0, 8.5, 4, 0],
    ]
    m = tracing.layer_metrics(spans, {})
    expected = {
        "cli.self_s": 3.0,
        "construction.build_wickets_s": 5.0,
        "construction.build_wickets_self_s": 2.5,
        "hypergraph.find_wickets_s": 3.0,
        "hypergraph.find_wickets_calls": 3,
        "coloring.color_edges_self_s": 1.5,
        "coloring.recheck_s": 0.5,
    }
    for key, value in expected.items():
        if abs(m[key] - value) > 1e-9:
            fail(f"{key}: {m[key]} != {value}")


def main() -> int:
    check_names()
    check_outputs()
    check_self_times()
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
