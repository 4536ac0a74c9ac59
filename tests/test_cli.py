import json
import os
import subprocess
import sys

import pytest

from wicketlab import cli
from wicketlab.errors import ColoringBudgetError


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "wicketlab.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


@pytest.fixture
def cap2(tmp_path):
    path = tmp_path / "cap2.txt"
    path.write_text("00\n01\n10\n11\n")
    return str(path)


@pytest.fixture
def set7(tmp_path):
    path = tmp_path / "s7.txt"
    path.write_text("0\n1\n3\n")
    return str(path)


def test_bounds_exponent_output():
    res = run_cli("bounds", "exponent", "--base", "2.2202")
    assert res.returncode == 0
    assert abs(float(res.stdout.strip()) - 1.5446) <= 0.0005
    res = run_cli("bounds", "exponent", "--selected", "8", "--n", "2")
    assert res.returncode == 0
    assert res.stdout.strip() == "0.6309"


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
    path = tmp_path / "s036.txt"
    path.write_text("0\n3\n6\n")
    monkeypatch.setattr(cli, "build_wickets", lambda build: [])
    code = cli.main(
        ["color", "modular", "--k", "3", "--set", str(path), "--seed", "4"]
    )
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: selected color class still contains a wicket")


def test_build_f3_counts_without_enumeration(monkeypatch, capsys, tmp_path):
    # GF(3) builds report the closed-form count and degree, so neither
    # the wicket list nor the dependency scan may run.
    def refuse(*args):
        raise AssertionError("build f3 must not enumerate wickets")

    monkeypatch.setattr(cli, "build_wickets", refuse)
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
    def refuse(*args):
        raise AssertionError("color f3 must not list wickets")

    monkeypatch.setattr(cli, "build_wickets", refuse)
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


def test_search_local_deterministic():
    args = ("search", "ruzsa", "--n", "40", "--mode", "local", "--seed", "3")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_search_exhaustive_guard():
    res = run_cli("search", "ruzsa", "--n", "31", "--mode", "exhaustive")
    assert res.returncode == 1


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
    ],
)
def test_negative_resource_input_exits_1(argv, message, capsys):
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {message}" in err
    assert "Traceback" not in err


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


def test_set_file_errors_exit_one(tmp_path):
    bad = tmp_path / "s.txt"
    bad.write_text("1\n1\n")
    res = run_cli("build", "modular", "--k", "3", "--set", str(bad))
    assert res.returncode == 1
    assert "line 2" in res.stderr


def test_modular_set_out_of_range(tmp_path):
    bad = tmp_path / "s.txt"
    bad.write_text("9\n")
    res = run_cli("build", "modular", "--k", "2", "--set", str(bad))
    assert res.returncode == 1
