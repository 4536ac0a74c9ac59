import argparse
import gc
import hashlib
import json
import math
import os
import re
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from wicketlab import census, cli
from wicketlab.errors import ColoringBudgetError


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, cwd=None, env=None):
    """Run the CLI in a subprocess; `env` adds to the inherited one. The
    absolute `src` path leads PYTHONPATH, so any `cwd` can import it."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "wicketlab.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path, **(env or {})},
        timeout=120,
    )


@pytest.fixture
def cap2(tmp_path):
    path = tmp_path / "cap2.txt"
    path.write_text("00\n01\n10\n11\n")
    return str(path)


def _binary_cap_text(n):
    return "".join(format(i, "b").zfill(n) + "\n" for i in range(2**n))


@pytest.fixture(scope="module")
def large_caps(tmp_path_factory):
    """A cap in dimension 13 (3^13 vectors) and {0,1}^8."""
    root = tmp_path_factory.mktemp("large_caps")
    (root / "cap13.txt").write_text("0" * 13 + "\n")
    (root / "cap8.txt").write_text(_binary_cap_text(8))
    return {"cap13": str(root / "cap13.txt"), "cap8": str(root / "cap8.txt")}


@pytest.fixture
def set7(tmp_path):
    path = tmp_path / "s7.txt"
    path.write_text("0\n1\n3\n")
    return str(path)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples() -> list:
    """(argv, stdout) for every `$ wicketlab ...` line in the sh blocks of
    README.md; the shown output runs to the next blank line, prompt or
    end of block."""
    examples: list = []
    in_sh = False
    current = None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh, current = line == "```sh", None
        elif not in_sh or not line or line.startswith("$ "):
            current = None
            if in_sh and line.startswith("$ wicketlab "):
                current = [shlex.split(line)[2:], ""]
                examples.append(current)
        elif current is not None:
            current[1] += line + "\n"
    return examples


def test_readme_examples(tmp_path, monkeypatch, capsys):
    # The input files the examples name, with the contents that give the
    # shown outputs.
    (tmp_path / "caps").mkdir()
    (tmp_path / "caps" / "dim2.txt").write_text("00\n01\n10\n11\n")
    (tmp_path / "sets").mkdir()
    (tmp_path / "sets" / "mod7.txt").write_text("0\n1\n3\n")
    monkeypatch.chdir(tmp_path)
    examples = _readme_examples()
    assert len(examples) == 14
    for argv, stdout in examples:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out == stdout, argv


def _long_options(parser) -> set:
    """The long options of a parser and of all its sub-parsers, --help
    aside."""
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _long_options(sub)
        found.update(o for o in action.option_strings if o.startswith("--"))
    return found - {"--help"}


def test_readme_documents_every_option():
    # Each command's section of README.md names every option of the
    # command, so trimming the text cannot drop a documented input.
    text = README.read_text()
    (top,) = (
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    for name, parser in top.choices.items():
        section = re.split(r"\n##", text.split(f"\n### {name}\n")[1])[0]
        missing = [
            option
            for option in sorted(_long_options(parser))
            if not re.search(re.escape(option) + r"(?![\w-])", section)
        ]
        assert not missing, (name, missing)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", ["construct-detect", "search-census"])
def test_benchmark_commands_match_their_reference(name, traced, tmp_path, capsys):
    # The benchmark's default-seed commands, run in this process: stdout
    # and the census CSV must match the recorded reference byte for byte.
    # The traced pass runs them under the benchmark's tracer, whose
    # counters read the results of the wrapped calls. run_path compiles
    # the benchmark's files in memory, and the inputs go to tmp_path, so
    # nothing is written under perfbench/.
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    reference = json.loads((PERFBENCH / "reference" / f"{name}.json").read_text())
    commands = workloads["make_commands"](name, 0, tmp_path)
    assert sorted(c.label for c in commands) == sorted(reference)
    tracer = runpy.run_path(str(PERFBENCH / "tracing.py"))["Tracer"]()
    if traced:
        tracer.install()
    try:
        for index, command in enumerate(commands):
            code = tracer.call_main(cli.main, list(command.args), index)
            assert code == 0, command.label
            command.validate(capsys.readouterr().out, reference)
            command.validate_artifact(reference)
    finally:
        tracer.uninstall()
    if traced:
        # every command ran under a root span, and counters were taken
        assert sum(span[0] == "cli.main" for span in tracer.spans) == len(commands)
        assert tracer.counts


def test_bounds_exponent_output():
    res = run_cli("bounds", "exponent", "--base", "2.2202")
    assert res.returncode == 0
    assert abs(float(res.stdout.strip()) - 1.5446) <= 0.0005
    res = run_cli("bounds", "exponent", "--selected", "8", "--n", "2")
    assert res.returncode == 0
    assert res.stdout.strip() == "0.6309"


def test_bounds_exponent_matches_vertex_count(capsys):
    # Four places of log(selected) / log(3^(n+1)), the vertex count.
    for selected in (1, 2, 8, 100, 3**7 + 1, 10**9):
        for n in range(1, 13):
            argv = ["bounds", "exponent", "--selected", str(selected)]
            assert cli.main(argv + ["--n", str(n)]) == 0
            value = math.log(selected) / math.log(3 ** (n + 1))
            assert capsys.readouterr().out == f"{value:.4f}\n"


def test_bounds_exponent_huge_n_is_fast():
    # A child process, so a regression that builds 3^(n+1) is killed by
    # the timeout instead of holding the test run.
    for n in ("1000000000", "1" + "0" * 400):
        res = subprocess.run(
            [sys.executable, "-m", "wicketlab.cli", "bounds", "exponent",
             "--selected", "5", "--n", n],
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert res.returncode == 0 and res.stdout == "0.0000\n"


def test_bounds_corollary_output():
    res = run_cli("bounds", "corollary", "--c", "0.31")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["improves"] is True
    assert data["baseline"] == 2.756
    assert abs(data["value"] - 2.7477) <= 0.0005


def test_bounds_gl_output():
    res = run_cli("bounds", "gl", "--exponent", "1.544")
    assert res.returncode == 0
    assert res.stdout.strip() == "0.4560"


def test_bounds_usage_errors():
    assert run_cli("bounds", "exponent").returncode == 1
    assert run_cli("bounds", "gl", "--exponent", "9").returncode == 1
    assert run_cli("bounds").returncode == 1


def test_unknown_subcommand_exits_one():
    assert run_cli("frobnicate").returncode == 1


def test_cap_verify_good_and_bad(tmp_path, cap2):
    res = run_cli("cap", "verify", cap2)
    assert res.returncode == 0
    assert "ap3-free: true" in res.stdout

    bad = tmp_path / "bad.txt"
    bad.write_text("0\n1\n2\n")
    res = run_cli("cap", "verify", str(bad))
    assert res.returncode == 2
    assert "ap3-free: false" in res.stdout
    assert "witness: 0 1 2" in res.stdout


def test_cap_verify_missing_and_malformed(tmp_path):
    assert run_cli("cap", "verify", str(tmp_path / "nope.txt")).returncode == 1
    mal = tmp_path / "mal.txt"
    mal.write_text("0x\n")
    res = run_cli("cap", "verify", str(mal))
    assert res.returncode == 1
    assert "line 1" in res.stderr


def test_cap_verify_reads_utf8_in_the_c_locale(tmp_path):
    # Files are UTF-8 whatever the locale: a non-ASCII comment is skipped
    # like any other, not an ASCII decoding error.
    cap = tmp_path / "cap.txt"
    cap.write_bytes("01\n# café\n10\n".encode("utf-8"))
    c_locale = {
        "LC_ALL": "C",
        "LANG": "C",
        "PYTHONUTF8": "0",
        "PYTHONCOERCECLOCALE": "0",
    }
    res = run_cli("cap", "verify", str(cap), env=c_locale)
    assert (res.returncode, res.stderr) == (0, "")
    assert "ap3-free: true" in res.stdout


def test_cap_max_json():
    res = run_cli("cap", "max", "--n", "2")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["dimension"] == 2 and data["size"] == 4
    assert len(data["elements"]) == 4


def test_cap_product_and_lift(tmp_path, cap2):
    out = tmp_path / "prod.txt"
    res = run_cli("cap", "product", "--left", cap2, "--right", cap2, "--out", str(out))
    assert res.returncode == 0
    assert json.loads(res.stdout) == {"dimension": 4, "size": 16}
    check = run_cli("cap", "verify", str(out))
    assert check.returncode == 0

    lifted = tmp_path / "lift.txt"
    res = run_cli("cap", "lift", "--cap", cap2, "--dimension", "3", "--out", str(lifted))
    assert res.returncode == 0
    assert json.loads(res.stdout) == {"dimension": 3, "size": 4}
    assert lifted.read_text().startswith("000\n")


def test_build_f3_report(tmp_path, cap2):
    out = tmp_path / "h.txt"
    report = tmp_path / "rep.json"
    res = run_cli(
        "build", "f3", "--cap", cap2, "--out", str(out), "--report", str(report)
    )
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data == {
        "n": 2,
        "set_size": 4,
        "vertices": 27,
        "edges": 36,
        "wickets": 108,
        "max_dependency_degree": 55,
        "k": 5,
        "selected_edges": 8,
        "exponent": 0.6309,
    }
    assert json.loads(report.read_text()) == data
    assert out.read_text().splitlines()[0] == "p tlh 9 9 9 36"


def test_build_modular_report(set7):
    res = run_cli("build", "modular", "--k", "3", "--set", set7)
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["n"] == 7 and data["edges"] == 21 and data["wickets"] == 0


def test_build_eisenstein_auto():
    res = run_cli("build", "eisenstein", "--bound", "1", "--auto")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["set_size"] == 4 and data["wickets"] == 0


def test_build_eisenstein_set_file(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("-1,0\n-1,1\n0,-1\n0,1\n1,-1\n1,0\n")
    res = run_cli("build", "eisenstein", "--bound", "2", "--set", str(path))
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["edges"] == 54 and data["wickets"] == 0


def test_build_exponent_is_zero_below_two_selected_edges(tmp_path, capsys):
    # No selected edge has no logarithm, and one has logarithm 0: both
    # report exponent 0.0.
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert cli.main(["build", "modular", "--k", "3", "--set", str(empty)]) == 0
    assert capsys.readouterr().out == (
        '{"edges": 0, "exponent": 0.0, "k": 2, "max_dependency_degree": 0, '
        '"n": 7, "selected_edges": 0, "set_size": 0, "vertices": 21, '
        '"wickets": 0}\n'
    )
    assert cli.main(["build", "eisenstein", "--bound", "0", "--auto"]) == 0
    assert capsys.readouterr().out == (
        '{"edges": 1, "exponent": 0.0, "k": 4, "max_dependency_degree": 0, '
        '"n": 0, "selected_edges": 1, "set_size": 1, "vertices": 3, '
        '"wickets": 0}\n'
    )


def test_build_eisenstein_auto_region_guard():
    res = run_cli("build", "eisenstein", "--bound", "30", "--auto")
    assert res.returncode == 1
    assert "--set" in res.stderr


def test_color_f3_deterministic(tmp_path, cap2):
    out = tmp_path / "class.txt"
    first = run_cli("color", "f3", "--cap", cap2, "--seed", "4", "--out", str(out))
    assert first.returncode == 0
    body = out.read_text()
    second = run_cli("color", "f3", "--cap", cap2, "--seed", "4", "--out", str(out))
    assert second.stdout == first.stdout
    assert out.read_text() == body
    data = json.loads(first.stdout)
    assert data["selected_edges"] >= data["lower_bound"]
    assert data["k"] == 5 and data["total_edges"] == 36


def test_color_f3_golden(tmp_path):
    # Resampling always repairs the lowest-indexed violated wicket, so
    # this output pins the order of the GF(3) wicket list as well.
    path = tmp_path / "cap3.txt"
    path.write_text("".join(f"{a}{b}{c}\n" for a in "01" for b in "01" for c in "01"))
    res = run_cli("color", "f3", "--cap", str(path), "--seed", "12")
    assert res.returncode == 0
    assert res.stdout == (
        '{"attempt": 0, "color": 0, "k": 6, "lower_bound": 36, '
        '"resamples": 3, "seed": 12, "selected_edges": 43, '
        '"total_edges": 216, "wickets": 1512}\n'
    )


def _color_golden(capsys, tmp_path, args, stdout, class_digest):
    out = tmp_path / "class.txt"
    assert cli.main(["color", *args, "--out", str(out)]) == 0
    assert capsys.readouterr().out == stdout
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == class_digest


def test_color_modular_golden(capsys, tmp_path):
    # The wickets of {0, 3, ..., 42} mod 43 (10492 of them) are listed in
    # find_wickets order; resampling the lowest violated one pins it.
    path = tmp_path / "s43.txt"
    path.write_text("".join(f"{v}\n" for v in range(0, 43, 3)))
    head = '{"attempt": 0, '
    tail = '"k": 7, "lower_bound": 93, '
    for seed, line, digest in (
        (0, '"color": 0, ' + tail + '"resamples": 5, "seed": 0, '
         '"selected_edges": 103, ', "1d230d6d068f6a2b"),
        (1, '"color": 2, ' + tail + '"resamples": 13, "seed": 1, '
         '"selected_edges": 99, ', "f1d97962a9ee8466"),
    ):
        stdout = head + line + '"total_edges": 645, "wickets": 10492}\n'
        args = ["modular", "--k", "7", "--set", str(path), "--seed", str(seed)]
        _color_golden(capsys, tmp_path, args, stdout, digest)


def test_color_eisenstein_golden(capsys, tmp_path):
    # The 24 nonzero points with coordinates in [-2, 2]: 1830 wickets
    # over the disc of bound 2, three of them resampled at seed 0.
    path = tmp_path / "points.txt"
    path.write_text(
        "".join(
            f"{a},{b}\n"
            for a in range(-2, 3)
            for b in range(-2, 3)
            if (a, b) != (0, 0)
        )
    )
    _color_golden(
        capsys,
        tmp_path,
        ["eisenstein", "--bound", "2", "--set", str(path), "--seed", "0"],
        '{"attempt": 0, "color": 1, "k": 8, "lower_bound": 27, '
        '"resamples": 3, "seed": 0, "selected_edges": 33, '
        '"total_edges": 216, "wickets": 1830}\n',
        "0974cd7a8208823e",
    )
    _color_golden(
        capsys,
        tmp_path,
        ["eisenstein", "--bound", "3", "--norm", "ring", "--auto", "--seed", "1"],
        '{"attempt": 0, "color": 0, "k": 6, "lower_bound": 16, '
        '"resamples": 0, "seed": 1, "selected_edges": 21, '
        '"total_edges": 91, "wickets": 17}\n',
        "2f86bdc83b3ca532",
    )


def test_color_budget_exhaustion_maps_to_exit_3(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise ColoringBudgetError({"attempts": 2, "resamples": 400, "violated": 3})

    monkeypatch.setattr(cli, "color_edges", explode)
    code = cli.main(["color", "modular", "--k", "2", "--set", "/dev/null"])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "budget-exhausted"
    assert payload["attempts"] == 2


def test_incomplete_wicket_list_maps_to_exit_2(monkeypatch, capsys, tmp_path):
    # With no wickets to repair, the chosen class of seed 4 keeps one of
    # the 14 wickets of {0, 3, 6} mod 7, which the final re-check reports.
    from wicketlab import construction

    path = tmp_path / "s036.txt"
    path.write_text("0\n3\n6\n")
    monkeypatch.setattr(construction, "build_wickets", lambda build: [])
    code = cli.main(
        ["color", "modular", "--k", "3", "--set", str(path), "--seed", "4"]
    )
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: selected color class still contains a wicket")


def test_build_f3_counts_without_enumeration(monkeypatch, capsys, tmp_path):
    # GF(3) builds report the closed-form count and degree, so neither
    # the wickets, their families nor the dependency scan may be listed.
    def refuse(*args):
        raise AssertionError("build f3 must not enumerate wickets")

    monkeypatch.setattr(cli, "build_wickets", refuse)
    monkeypatch.setattr(cli, "wicket_families", refuse)
    monkeypatch.setattr(cli, "wicket_dependency_degree", refuse)
    path = tmp_path / "cap5.txt"
    path.write_text("".join(f"{v:05b}\n" for v in range(32)))
    assert cli.main(["build", "f3", "--cap", str(path)]) == 0
    assert capsys.readouterr().out == (
        '{"edges": 7776, "exponent": 1.0436, "k": 8, '
        '"max_dependency_degree": 755, "n": 5, "selected_edges": 972, '
        '"set_size": 32, "vertices": 729, "wickets": 241056}\n'
    )


def test_color_f3_lists_no_wickets(monkeypatch, capsys, tmp_path):
    # GF(3) builds are colored from their plane families, so the wicket
    # list must not be built; the lines are those of the listed wickets.
    from wicketlab import construction

    def refuse(*args):
        raise AssertionError("color f3 must not list wickets")

    monkeypatch.setattr(construction, "build_wickets", refuse)
    expected = {
        4: '{"attempt": 0, "color": 3, "k": 7, "lower_bound": 186, '
        '"resamples": 10, "seed": 0, "selected_edges": 205, '
        '"total_edges": 1296, "wickets": 19440}\n',
        5: '{"attempt": 0, "color": 6, "k": 8, "lower_bound": 972, '
        '"resamples": 62, "seed": 0, "selected_edges": 998, '
        '"total_edges": 7776, "wickets": 241056}\n',
    }
    for n, line in expected.items():
        path = tmp_path / f"cap{n}.txt"
        path.write_text("".join(f"{v:0{n}b}\n" for v in range(2**n)))
        assert cli.main(["color", "f3", "--cap", str(path), "--seed", "0"]) == 0
        assert capsys.readouterr().out == line


def test_color_modular_lists_wickets_once(monkeypatch, capsys, tmp_path):
    # color_edges lists the build's wickets itself, once, and so does
    # build, through wicket_families; neither command lists its own.
    from wicketlab import construction

    def refuse(*args):
        raise AssertionError("wickets are listed only in wicket_families")

    listed = []
    lister = construction.build_wickets

    def counted(build):
        listed.append(build)
        return lister(build)

    monkeypatch.setattr(cli, "build_wickets", refuse)
    monkeypatch.setattr(construction, "build_wickets", counted)
    path = tmp_path / "s036.txt"
    path.write_text("0\n3\n6\n")
    for command in ("color", "build"):
        listed.clear()
        argv = [command, "modular", "--k", "3", "--set", str(path)]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["wickets"] == 14
        assert len(listed) == 1, command


def test_build_lists_wickets_without_the_detector(monkeypatch, capsys, tmp_path):
    # build_wickets solves the wicket system, so building a modular or an
    # Eisenstein set runs no detector; the count and the degree are the
    # detector's.
    from wicketlab import construction
    from wicketlab.eisenstein import EisensteinPoint
    from oracles import dependency_degree_by_list

    def refuse(*args, **kwargs):
        raise AssertionError("build must not run the detector")

    residues = tmp_path / "k3.txt"
    residues.write_text("0\n1\n2\n3\n")
    points = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0))
    disc = tmp_path / "points.txt"
    disc.write_text("".join(f"{a},{b}\n" for a, b in points))
    runs = (
        (
            ["build", "modular", "--k", "3", "--set", str(residues)],
            construction.build_modular(range(4), 3),
        ),
        (
            ["build", "eisenstein", "--bound", "2", "--set", str(disc)],
            construction.build_eisenstein(
                [EisensteinPoint(a, b) for a, b in points], 2
            ),
        ),
    )
    detected = [construction.find_wickets(b.hypergraph) for _, b in runs]
    monkeypatch.setattr(construction, "find_wickets", refuse)
    for (argv, _build), wickets in zip(runs, detected):
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["wickets"] == len(wickets) > 0
        degree = dependency_degree_by_list(wickets)
        assert payload["max_dependency_degree"] == degree, argv


def test_search_ruzsa_exhaustive():
    res = run_cli("search", "ruzsa", "--n", "10", "--mode", "exhaustive")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["size"] == 4
    assert data["optimal"] is True and data["verified"] is True
    assert data["domain"] == "1..10"


def test_search_modular_auto_picks_exhaustive():
    res = run_cli("search", "modular", "--k", "3")
    data = json.loads(res.stdout)
    assert data["method"] == "exhaustive" and data["size"] == 3
    assert data["domain"] == "Z/7"


def test_search_triangle_both_norms():
    res = run_cli("search", "triangle", "--bound", "2")
    data = json.loads(res.stdout)
    assert data["size"] == 5 and data["domain"] == "coordinate<=2"
    assert all("," in item for item in data["set"])
    res = run_cli("search", "triangle", "--bound", "3", "--norm", "ring")
    data = json.loads(res.stdout)
    assert data["size"] == 7 and data["domain"] == "ring<=3"


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (
            ["cap", "max", "--n", "3"],
            '{"dimension": 3, "elements": ["000", "001", "010", "011", '
            '"100", "101", "112", "122", "212"], "size": 9}\n',
        ),
        (
            ["search", "ruzsa", "--n", "30"],
            '{"domain": "1..30", "method": "exhaustive", "optimal": true, '
            '"problem": "3x+y=2z+2w", "set": [1, 2, 6, 7, 24, 26], '
            '"size": 6, "verified": true}\n',
        ),
        (
            ["search", "modular", "--k", "5"],
            '{"domain": "Z/21", "method": "exhaustive", "optimal": true, '
            '"problem": "5x-4y=z (mod 21)", "set": [0, 1, 2, 3, 8, 12, 16], '
            '"size": 7, "verified": true}\n',
        ),
        (
            ["search", "triangle", "--bound", "6", "--norm", "ring"],
            '{"domain": "ring<=6", "method": "exhaustive", "optimal": true, '
            '"problem": "t-w=omega(w-v)", "set": ["-2,-2", "-2,-1", "-2,0", '
            '"-1,-2", "0,-2", "0,1", "1,0", "1,2", "2,1"], "size": 9, '
            '"verified": true}\n',
        ),
    ],
    ids=["cap3", "ruzsa30", "modular5", "triangle6-ring"],
)
def test_exact_search_golden(argv, stdout, capsys):
    # Exact searches return the first maximum set in depth-first order;
    # these pin which one, at the exhaustive limit for Ruzsa.
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == stdout


def test_search_local_deterministic():
    args = ("search", "ruzsa", "--n", "40", "--mode", "local", "--seed", "3")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_search_exhaustive_guard():
    res = run_cli("search", "ruzsa", "--n", "31", "--mode", "exhaustive")
    assert res.returncode == 1


@pytest.mark.parametrize(
    "argv, size, limit",
    [
        (["ruzsa", "--n", "31"], 31, 30),
        (["modular", "--k", "7"], 43, 30),
        (["triangle", "--bound", "8"], 25, 22),
    ],
    ids=["ruzsa", "modular", "triangle"],
)
def test_search_exhaustive_guard_names_the_cli_option(argv, size, limit, capsys):
    code = cli.main(["search", *argv, "--mode", "exhaustive"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        f"error: domain has {size} elements, exhaustive limit is {limit}; "
        "use --mode local instead\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["search", "ruzsa", "--n", "-3"], "argument --n: must be at least 0"),
        (
            ["search", "triangle", "--bound", "-1"],
            "argument --bound: must be at least 0",
        ),
        (
            ["search", "modular", "--k", "3", "--budget", "-5"],
            "argument --budget: must be at least 0",
        ),
        (
            ["color", "modular", "--k", "2", "--set", "/dev/null", "--attempts", "0"],
            "argument --attempts: must be at least 1",
        ),
        (
            ["build", "eisenstein", "--bound", "-1", "--auto"],
            "argument --bound: must be at least 0",
        ),
        (
            ["color", "eisenstein", "--bound", "-1", "--auto"],
            "argument --bound: must be at least 0",
        ),
        (["census", "--jobs", "0"], "argument --jobs: must be at least 1"),
        (
            ["census", "--jobs", "abc"],
            "argument --jobs: invalid int value: 'abc'",
        ),
        (
            ["bounds", "exponent", "--base", "nan"],
            "base must be finite and exceed 1",
        ),
        (
            ["search", "ruzsa", "--n", "50000000"],
            "--n asks for 50000000 domain candidates; the limit is 1000000",
        ),
        (
            ["search", "modular", "--k", "10000"],
            "--k asks for 99990001 domain candidates; the limit is 1000000",
        ),
        (
            ["build", "modular", "--k", "10000", "--set", "/nonexistent"],
            "--k asks for 99990001 domain candidates; the limit is 1000000",
        ),
        (
            ["color", "modular", "--k", "1001", "--set", "/nonexistent"],
            "--k asks for 1001001 domain candidates; the limit is 1000000",
        ),
        (
            ["search", "triangle", "--bound", "1000000000"],
            "--bound asks for 8000408025 domain candidates",
        ),
        (
            ["build", "eisenstein", "--bound", "1000000000", "--auto"],
            "--bound asks for 8000408025 domain candidates",
        ),
        (
            ["color", "eisenstein", "--bound", "125000", "--set", "/nonexistent"],
            "--bound asks for 1006009 domain candidates",
        ),
        (
            ["build", "modular", "--k", "1", "--set", "/nonexistent"],
            "argument --k: must be at least 2, got 1",
        ),
        (["search", "modular", "--k", "1"], "argument --k: must be at least 2"),
        (
            ["bounds", "exponent", "--selected", "5", "--n", "-1"],
            "argument --n: must be at least 0, got -1",
        ),
        (
            [
                "cap", "lift", "--cap", "{file}", "--dimension", "250001",
                "--out", "{dir}/lifted.txt",
            ],
            "--dimension asks for 1000004 coordinates; the limit is 1000000",
        ),
        (
            [
                "cap", "lift", "--cap", "/dev/null", "--dimension", "1000001",
                "--out", "{dir}/lifted.txt",
            ],
            "--dimension asks for 1000001 coordinates; the limit is 1000000",
        ),
        (
            ["build", "f3", "--cap", "{cap13}"],
            "--cap asks for 1594323 domain candidates; the limit is 1000000",
        ),
        (
            ["color", "f3", "--cap", "{cap13}"],
            "--cap asks for 1594323 domain candidates; the limit is 1000000",
        ),
        (
            [
                "cap", "product", "--left", "{cap8}", "--right", "{cap8}",
                "--out", "{dir}/product.txt",
            ],
            "cap product asks for 1048576 coordinates; the limit is 1000000",
        ),
    ],
    ids=[
        "search-n",
        "search-bound",
        "search-budget",
        "color-attempts",
        "build-eisenstein-bound",
        "color-eisenstein-bound",
        "census-jobs-0",
        "census-jobs-abc",
        "bounds-base-nan",
        "search-ruzsa-domain",
        "search-modular-domain",
        "build-modular-domain",
        "color-modular-domain",
        "search-triangle-domain",
        "build-eisenstein-domain",
        "color-eisenstein-domain",
        "build-modular-k-1",
        "search-modular-k-1",
        "bounds-exponent-n",
        "cap-lift-dimension",
        "cap-lift-empty-dimension",
        "build-f3-dimension",
        "color-f3-dimension",
        "cap-product-size",
    ],
)
def test_negative_resource_input_exits_1(
    argv, message, cap2, large_caps, tmp_path, monkeypatch, capsys
):
    def work(*args, **kwargs):
        raise AssertionError("work started before its size was checked")

    for name in ("lift_cap", "product_cap", "build_f3"):
        monkeypatch.setattr(cli, name, work)
    argv = [arg.format(file=cap2, dir=tmp_path, **large_caps) for arg in argv]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert [str(p) for p in tmp_path.iterdir()] == [cap2]  # no output file


def test_size_limits_admit_inputs_below_them(tmp_path, monkeypatch, capsys):
    # Two {0,1}^7 caps make a product of 229376 coordinates, and a cap in
    # dimension 12 builds over 3^12 = 531441 vectors: both are admitted.
    cap7, cap12 = tmp_path / "cap7.txt", tmp_path / "cap12.txt"
    cap7.write_text(_binary_cap_text(7))
    cap12.write_text("0" * 12 + "\n")
    argv = ["cap", "product", "--left", str(cap7), "--right", str(cap7)]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {"dimension": 14, "size": 16384}

    def reached(cap):
        raise ValueError(f"build_f3 reached in dimension {cap.dimension}")

    monkeypatch.setattr(cli, "build_f3", reached)
    assert cli.main(["build", "f3", "--cap", str(cap12)]) == 1
    assert "build_f3 reached in dimension 12" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["cap", "verify", "{file}/x"],
        ["build", "f3", "--cap", "{file}", "--out", "{file}/x"],
        ["census", "--detectors", "--minimality", "--csv", "{file}/x"],
        [
            "build", "f3", "--cap", "{file}",
            "--out", "{dir}/good.txt", "--report", "{file}/x",
        ],
        ["color", "f3", "--cap", "{file}", "--out", "{file}/x"],
    ],
    ids=["cap-verify", "build-out", "census-csv", "build-report", "color-out"],
)
def test_path_through_a_file_exits_1(argv, cap2, tmp_path, monkeypatch, capsys):
    # A path below a regular file fails with NotADirectoryError, an
    # OSError that is neither FileNotFoundError nor IsADirectoryError.
    # Output paths are opened before any work starts, so the work fails
    # the test if it is reached.
    def work(*args, **kwargs):
        raise AssertionError("work started before the outputs were opened")

    for name in ("build_f3", "run_census", "minimal_free_example"):
        monkeypatch.setattr(cli, name, work)
    argv = [arg.format(file=cap2, dir=tmp_path) for arg in argv]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "Not a directory" in err
    assert "Traceback" not in err
    written = [p for p in tmp_path.iterdir() if str(p) != cap2]
    assert all(p.read_text() == "" for p in written)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", "f3", "--cap", "c.txt", "--report", "c.txt"], "--cap and --report"),
        (["color", "f3", "--cap", "c.txt", "--out", "./c.txt"], "--cap and --out"),
        (
            ["color", "modular", "--k", "3", "--set", "s.txt", "--out", "s.txt"],
            "--set and --out",
        ),
        (
            [
                "build", "modular", "--k", "3", "--set", "s.txt",
                "--out", "o.txt", "--report", "sub/../o.txt",
            ],
            "--out and --report",
        ),
    ],
    ids=["build-report-cap", "color-out-cap", "color-out-set", "build-out-report"],
)
def test_output_naming_an_input_or_output_exits_1(
    argv, message, tmp_path, monkeypatch, capsys
):
    # Opening the output first would empty the input file, or drop one
    # of two outputs; the file is refused before any is opened.
    monkeypatch.chdir(tmp_path)
    inputs = {"c.txt": "00\n01\n10\n11\n", "s.txt": "0\n1\n3\n"}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message} name one file: ")
    assert err.count("\n") == 1
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == inputs


def test_census_cli(tmp_path):
    csv = tmp_path / "rows.csv"
    res = run_cli("census", "--minimality", "--csv", str(csv))
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["verified"] is True
    assert data["counterexamples"] == []
    assert data["wicket"] == 216
    assert len(data["minimality_witness"]) == 4
    lines = csv.read_text().splitlines()
    assert lines[0] == "e1,e2,e3,e4,e5,wicket,six_three"
    assert len(lines) == 1 + data["linear"]


def test_census_csv_classifies_each_system_once(tmp_path, monkeypatch, capsys):
    """`--detectors` is accepted and inert: no detector runs after
    import, and stdout and the CSV equal plain `census`'s."""
    expected = [
        f"{','.join(map(str, ids))},{int(w)},{int(s)}"
        for ids, w, s, _ in census.iter_classified()
    ]
    plain_csv = tmp_path / "plain.csv"
    assert cli.main(["census", "--csv", str(plain_csv)]) == 0
    plain = capsys.readouterr().out
    calls = []
    for name in ("find_wickets", "find_63"):
        monkeypatch.setattr(census, name, lambda *a, _n=name, **k: calls.append(_n))
    csv = tmp_path / "rows.csv"
    assert cli.main(["census", "--detectors", "--csv", str(csv)]) == 0
    assert calls == []
    assert capsys.readouterr().out == plain
    assert json.loads(plain)["linear"] == 3834
    lines = csv.read_text().splitlines()
    assert lines == ["e1,e2,e3,e4,e5,wicket,six_three"] + expected
    assert csv.read_bytes() == plain_csv.read_bytes()


def test_closed_stdout_exits_quietly():
    # The read end is closed before the child starts, so its first write
    # to stdout fails with a broken pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "wicketlab.cli", "census"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert "Exception ignored" not in res.stderr


def _console_main(argv, before=""):
    """Run `console_main` on `argv` in a child whose last stdout line is
    `<frozen> <exit code>`, read after `console_main` returns."""
    code = (
        "import gc, sys\n"
        "from wicketlab import cli\n"
        f"sys.argv = ['wicketlab', *{argv!r}]\n"
        f"{before}"
        "try:\n"
        "    cli.console_main()\n"
        "except SystemExit as exc:\n"
        "    print(gc.get_freeze_count() > 0, exc.code)\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )


def test_console_main_freezes_the_start_up_heap():
    argv = ["bounds", "gl", "--exponent", "1.5"]
    plain = run_cli(*argv).stdout
    assert plain == "0.5000\n"
    assert _console_main(argv).stdout == plain + "True 0\n"


def test_main_leaves_the_heap_unfrozen(capsys):
    frozen = gc.get_freeze_count()
    for _ in range(2):
        assert cli.main(["bounds", "gl", "--exponent", "1.5"]) == 0
    assert gc.get_freeze_count() == frozen
    assert capsys.readouterr().out == "0.5000\n" * 2


def test_interrupt_exits_130_without_a_traceback():
    # The timer interrupts the main thread inside a search that runs for
    # minutes, the same KeyboardInterrupt that Ctrl-C raises. The handler
    # is installed first: a run started as a background job inherits an
    # ignored SIGINT, and interrupt_main then does nothing.
    res = _console_main(
        ["search", "ruzsa", "--n", "200000", "--mode", "local"],
        "import signal, threading, _thread\n"
        "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
        "threading.Timer(0.3, _thread.interrupt_main).start()\n",
    )
    assert res.stdout == "True 130\n"
    assert res.stderr == "error: interrupted\n"


def test_main_lets_an_interrupt_through(monkeypatch):
    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_bounds", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["bounds", "gl", "--exponent", "1.5"])


@pytest.mark.parametrize("undecodable", [False, True], ids=["repeat", "undecodable"])
@pytest.mark.parametrize(
    "argv, repeated",
    [
        (["cap", "verify"], b"01\n01\n"),
        (["build", "modular", "--k", "3", "--set"], b"1\n1\n"),
        (["build", "eisenstein", "--bound", "2", "--set"], b"0,1\n0,1\n"),
        (["cap", "product", "--left", "{ok}", "--right"], b"01\n01\n"),
    ],
    ids=["cap", "modular", "eisenstein", "product"],
)
def test_set_file_errors_exit_one(tmp_path, cap2, argv, repeated, undecodable):
    bad = tmp_path / "s.txt"
    first = repeated.split(b"\n")[0]
    bad.write_bytes(first + b"\n\xff\n" if undecodable else repeated)
    res = run_cli(*(arg.format(ok=cap2) for arg in argv), str(bad))
    assert res.returncode == 1
    errors = [line for line in res.stderr.splitlines() if line.startswith("error:")]
    assert "Traceback" not in res.stderr
    if undecodable:
        problem = "not UTF-8: byte 0xff"
    else:
        problem = f"duplicate of line 1: {first.decode()!r}"
    assert errors == [f"error: {bad}: line 2: {problem}"]


def test_refusal_names_a_relative_path_as_given(tmp_path):
    (tmp_path / "ok.txt").write_text("00\n01\n10\n11\n")
    (tmp_path / "dup.txt").write_text("01\n01\n")
    res = run_cli(
        "cap", "product", "--left", "ok.txt", "--right", "dup.txt", cwd=tmp_path
    )
    assert res.returncode == 1
    assert res.stderr == "error: dup.txt: line 2: duplicate of line 1: '01'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "f3", "--cap", "{bad}"],
        ["cap", "lift", "--cap", "{bad}", "--dimension", "2"],
        ["cap", "product", "--left", "{ok}", "--right", "{bad}"],
    ],
    ids=["build-f3", "cap-lift", "cap-product"],
)
def test_non_cap_is_refused_with_its_file(tmp_path, cap2, argv):
    bad = tmp_path / "bad.txt"
    bad.write_text("0\n1\n2\n")
    res = run_cli(*(arg.format(bad=bad, ok=cap2) for arg in argv))
    assert (res.returncode, res.stdout) == (2, "")
    progression = "set contains a progression: ((0,), (1,), (2,))"
    assert res.stderr == f"error: {bad}: {progression}\n"


def test_modular_set_out_of_range(tmp_path):
    bad = tmp_path / "s.txt"
    bad.write_text("9\n")
    res = run_cli("build", "modular", "--k", "2", "--set", str(bad))
    assert res.returncode == 1


# A valid argv for every leaf command. The parser tests below run none of
# them: every command function is replaced by one that records its args.
VALID_ARGV = [
    ["cap", "verify", "c.txt"],
    ["cap", "max", "--n", "2"],
    ["cap", "product", "--left", "a", "--right", "b", "--out", "o"],
    ["cap", "lift", "--cap", "c", "--dimension", "5"],
    ["build", "f3", "--cap", "c", "--out", "o", "--report", "r"],
    ["build", "modular", "--k", "5", "--set", "s"],
    ["build", "eisenstein", "--bound", "6", "--auto", "--norm", "ring"],
    ["color", "f3", "--cap", "c", "--seed", "3", "--attempts", "2"],
    ["color", "modular", "--k", "5", "--set", "s", "--out", "o"],
    ["color", "eisenstein", "--bound", "4", "--set", "e"],
    ["search", "ruzsa", "--n", "10"],
    ["search", "modular", "--k", "5", "--mode", "local", "--seed", "2"],
    ["search", "triangle", "--bound", "6", "--budget", "9"],
    ["census", "--detectors", "--minimality", "--csv", "x", "--jobs", "2"],
    ["bounds", "exponent", "--selected", "5", "--n", "2"],
    ["bounds", "corollary", "--c", "2.2"],
    ["bounds", "gl", "--exponent", "0.5"],
]
BRANCHES = [[], *([name] for name in cli._COMMANDS)] + [
    argv[:2] for argv in VALID_ARGV if argv[0] != "census"
]
PARSER_CASES = [
    *VALID_ARGV,
    *(branch + ["-h"] for branch in BRANCHES),
    [],
    ["build"],
    ["build", "modular", "--k", "5"],
    ["build", "eisenstein", "--bound", "2"],
    ["build", "eisenstein", "--bound", "2", "--auto", "--set", "e"],
    ["search", "ruzsa", "--n", "5", "--mode", "fast"],
    ["color", "eisenstein", "--bound", "2", "--auto", "--norm", "taxicab"],
    ["census", "--jobs", "0"],
    ["census", "--bogus"],
    ["build", "f3", "--cap", "c", "--seed", "1"],
    ["bounds", "gl", "--exponent", "0.5", "extra"],
    ["frobnicate"],
    ["frobnicate", "--n", "1"],
    ["--version"],
]


@pytest.mark.parametrize(
    "argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "(none)"
)
def test_each_command_parses_as_the_whole_tree_does(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    ran = []

    def record(args):
        ran.append(args)
        return 0

    for name in ("cap", "build", "color", "search", "census", "bounds"):
        monkeypatch.setattr(cli, f"cmd_{name}", record)
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    try:
        whole = [cli.build_parser().parse_args(list(argv))]
        whole_code = 0
    except SystemExit as exc:
        whole, whole_code = [], exc.code
    assert (code, out, err) == (whole_code, *capsys.readouterr())
    assert ran == whole


def test_build_parser_fills_only_the_named_branch():
    def filled(parser) -> list:
        (top,) = (a for a in parser._actions if a.dest == "command")
        return [
            name
            for name, sub in top.choices.items()
            if any(a.dest != "help" for a in sub._actions)
        ]

    assert filled(cli.build_parser()) == list(cli._COMMANDS)
    for name in cli._COMMANDS:
        assert filled(cli.build_parser(name)) == [name]
    assert filled(cli.build_parser("frobnicate")) == list(cli._COMMANDS)
