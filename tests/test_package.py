import ast
import importlib
import inspect
import json
import runpy
import subprocess
import sys
import textwrap
from pathlib import Path

import wicketlab
from wicketlab.coloring import color_edges
from wicketlab.construction import build_f3
from wicketlab.eisenstein import EisensteinPoint
from wicketlab.eqfree import EquationSpec
from wicketlab.gf3 import CapSet
from wicketlab.hypergraph import TripartiteHypergraph
from oracles import binary_cap

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_all_names_resolve():
    missing = [name for name in wicketlab.__all__ if not hasattr(wicketlab, name)]
    assert missing == []
    assert len(set(wicketlab.__all__)) == len(wicketlab.__all__)


def test_tracer_sites_resolve():
    # run_path compiles the source in memory, so nothing is written next
    # to the benchmark's files.
    tracing = runpy.run_path(str(TRACING))
    missing = [
        f"{module}.{attr}"
        for module, attr in tracing["SITES"] + tracing["GENERATOR_SITES"]
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
    for module, attr in tracing["GENERATOR_SITES"]:
        fn = getattr(importlib.import_module(module), attr)
        assert inspect.isgeneratorfunction(fn), f"{module}.{attr}"


def _references(tree: ast.Module) -> set:
    """The names a module's code reads, as a name or as an attribute,
    except where a top-level def or class refers to itself."""
    found = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                found.add(name)
    return found


def test_every_public_name_has_a_caller():
    # A table name is used by the package's own code or wrapped by the
    # benchmark's tracer; the table itself holds its names as strings,
    # so it is no reference.
    package = Path(wicketlab.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        used |= _references(ast.parse(path.read_text()))
    tracing = runpy.run_path(str(TRACING))
    wrapped = {attr for _, attr in tracing["SITES"] + tracing["GENERATOR_SITES"]}
    unused = sorted(set(wicketlab._MODULES) - used - wrapped)
    assert unused == []


def _fresh(code: str) -> dict:
    """Run `code` in a new interpreter; it prints one JSON object."""
    res = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def _loaded_by(argv: list) -> dict:
    """The modules that `import wicketlab.cli` ("startup") and then
    `main(argv)` ("main") load, in a new interpreter."""
    return _fresh(
        f"""
        import contextlib, io, json, sys
        before = set(sys.modules)
        import wicketlab.cli as cli
        startup = set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main({argv!r}) == 0
        print(json.dumps({{"startup": sorted(startup - before),
                          "main": sorted(set(sys.modules) - startup)}}))
        """
    )


def test_commands_import_only_their_layers(tmp_path):
    cap = tmp_path / "cap.txt"
    cap.write_text("00\n01\n10\n11\n")
    residues = tmp_path / "residues.txt"
    residues.write_text("0\n1\n3\n")
    points = tmp_path / "points.txt"
    points.write_text("0,1\n1,0\n")
    # One interpreter per command, so a layer an earlier command loaded
    # cannot hide that a later one loads it too.
    modular = ["modular", "--k", "3", "--set", str(residues)]
    runs = {
        label: _loaded_by(argv)
        for label, argv in (
            ("build f3", ["build", "f3", "--cap", str(cap)]),
            ("build modular", ["build", *modular]),
            ("color modular", ["color", *modular]),
            (
                "build eisenstein",
                ["build", "eisenstein", "--bound", "2", "--set", str(points)],
            ),
            ("search", ["search", "ruzsa", "--n", "5"]),
            ("census", ["census"]),
        )
    }
    startup = runs["census"]["startup"]
    assert "dataclasses" not in startup
    assert [m for m in startup if m.startswith("wicketlab.")] == [
        "wicketlab.cli",
        "wicketlab.errors",
    ]
    seen = {
        label: {m.removeprefix("wicketlab.") for m in run["main"]}
        for label, run in runs.items()
    }
    assert "eqfree" in seen["search"]
    assert seen["search"].isdisjoint({"construction", "census"})
    assert "census" in seen["census"]
    assert "eqfree" not in seen["census"]
    for label in ("build f3", "build modular"):
        assert "construction" in seen[label]
        assert seen[label].isdisjoint(
            {"eqfree", "eisenstein", "census", "coloring"}
        )
    assert "coloring" in seen["color modular"]
    assert seen["color modular"].isdisjoint({"eqfree", "eisenstein"})
    assert "eisenstein" in seen["build eisenstein"]
    assert "eqfree" not in seen["build eisenstein"]


def test_cli_calls_the_value_set_before_main():
    seen = _fresh(
        """
        import contextlib, io, json
        import wicketlab
        import wicketlab.cli as cli
        calls = []

        def stub(csv=None):
            calls.append(csv)
            return wicketlab.CensusReport(
                total_candidates=1, linear=2, wicket=3, six_three=4,
                both=5, full_coverage=6, counterexamples=(),
            )

        cli.run_census = stub
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["census"])
        missing = [name for name in wicketlab._MODULES if not hasattr(cli, name)]
        print(json.dumps({"code": code, "calls": calls, "missing": missing,
                          "same": cli.run_census is stub,
                          "out": json.loads(out.getvalue())}))
        """
    )
    assert seen["code"] == 0 and seen["calls"] == [None]
    assert seen["same"] and seen["missing"] == []
    assert seen["out"]["linear"] == 2 and seen["out"]["both"] == 5


def test_cli_defines_no_name_of_the_package_table():
    # `cli._bind` skips a name that is already bound, so a table name
    # that cli defined for itself would shadow the package's value.
    from wicketlab import cli

    tree = ast.parse(Path(cli.__file__).read_text())
    own = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Assign):
            own.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert {"main", "build_parser", "cmd_build", "_bind"} <= own
    assert own.isdisjoint(wicketlab._MODULES)


def test_record_semantics():
    points = [EisensteinPoint(a, b) for a, b in ((2, -1), (0, 3), (0, -2))]
    assert sorted(points) == sorted((p.a, p.b) for p in points)
    assert [hash(p) for p in points] == [hash((p.a, p.b)) for p in points]
    assert EisensteinPoint(1, 2) < EisensteinPoint(1, 3) < EisensteinPoint(2, 0)

    # these records compare by identity, even with equal fields
    h = TripartiteHypergraph((2, 2, 2), ((0, 1, 0), (1, 0, 1)))
    twin = TripartiteHypergraph([2, 2, 2], [[0, 1, 0], [1, 0, 1]])
    assert (h.class_sizes, h.edges) == (twin.class_sizes, twin.edges)
    assert h == h and h != twin and hash(h) != hash(twin)
    assert h.incidence is h.incidence  # cached_property: computed once
    cap = CapSet(2, frozenset({(0, 0), (0, 1), (1, 0)}), True)
    copy = CapSet(2, frozenset(cap.elements), True)
    assert (cap.dimension, cap.elements) == (copy.dimension, copy.elements)
    assert cap == cap and cap != copy and hash(cap) != hash(copy)
    assert cap.sorted_elements is cap.sorted_elements
    build, again = build_f3(binary_cap(2)), build_f3(binary_cap(2))
    assert build == build and build != again
    assert hash(build) != hash(again)
    spec = EquationSpec("x=y", (1, -1))
    assert spec != EquationSpec("x=y", spec.coefficients)
    first, second = (color_edges(build, seed=0) for _ in range(2))
    assert first == first and first != second
    assert first.coloring == second.coloring  # a value record
