"""Workload definitions: seeded inputs, CLI commands and output checks.

Every workload is a fixed list of `wicketlab` CLI commands. The seed picks
the coloring seeds and the driving sets; set sizes never change, so a seed
changes which inputs are used but not how much work they cause. Each
command carries a check that validates its stdout independently of the
program (closed-form counts, brute-force freeness of returned sets), so a
wrong answer is counted as a failed command.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

DEFAULT_SEED = 0

WHY = {
    "construct-detect": (
        "f3 on the binary 4-cap, modular builds at k=5 and 7, Eisenstein and "
        "two colorings: construction, find_wickets scans and the re-check"
    ),
    "search-census": (
        "Ruzsa, modular, triangle and cap searches plus the 3x3x3 census: "
        "has_solution and tiny detector calls; no construction"
    ),
}
NAMES = tuple(WHY)

# Driving sets for the modular builds. Any affine image u*S + c (u a unit
# mod n) is again free, and both kx-(k-1)y=z and the wicket system are
# invariant under such maps, so every seeded image gives the same edge and
# wicket counts: 294 at k=5 and 0 at k=7.
MODULAR_BASES = {
    5: ((6, 7, 10, 12, 14, 17, 18), 294),  # free of 5x-4y=z mod 21
    7: ((8, 11, 18, 23, 38, 39), 0),  # free of the wicket system mod 43
}
EISENSTEIN_BOUND = 6
EISENSTEIN_SET_SIZE = 10
# Bases of the Eisenstein build: lattice points a + b*w, stored as (a, b),
# with the CLI's default coordinate norm a^2 + b^2 <= EISENSTEIN_BOUND.
DISC = tuple(
    (a, b)
    for a in range(-EISENSTEIN_BOUND, EISENSTEIN_BOUND + 1)
    for b in range(-EISENSTEIN_BOUND, EISENSTEIN_BOUND + 1)
    if a * a + b * b <= EISENSTEIN_BOUND
)
CENSUS_CSV_ROWS = 3834

CENSUS_TOTALS = {
    "total_candidates": 80730,
    "linear": 3834,
    "wicket": 216,
    "six_three": 3618,
    "both": 0,
    "full_coverage": 2862,
    "counterexamples": [],
    "verified": True,
}
# The f3 build runs on the binary cap {0,1}^4: 19440 wickets, maximum
# dependency degree 355.
F3_DIMENSION = 4
F3_MAX_DEGREE = 355
# Ruzsa's 3x+y=2z+2w over 1..RUZSA_N; the optimum is 6 for every n from
# 20 to 30.
RUZSA_N = 24


class CheckError(Exception):
    """A command's output is wrong."""


@dataclass(frozen=True)
class Command:
    """One CLI invocation. `args` excludes the program name."""

    label: str
    args: tuple
    check: Callable[[dict], None]
    seeded: bool  # output depends on the workload seed
    artifact: Optional[str] = None  # file the command writes, checked too

    def validate(self, stdout: str, reference: Optional[dict]) -> None:
        """Raise CheckError unless stdout is right.

        `reference` maps labels to the recorded outputs of the default
        seed; stdout is compared with it byte for byte when given.
        """
        lines = stdout.splitlines()
        if len(lines) != 1:
            raise CheckError(f"{self.label}: expected one JSON line")
        try:
            payload = json.loads(lines[0])
        except ValueError:
            raise CheckError(f"{self.label}: stdout is not JSON") from None
        if not isinstance(payload, dict):
            raise CheckError(f"{self.label}: stdout is not a JSON object")
        self.check(payload)
        if reference is not None:
            if self.label not in reference:
                raise CheckError(f"{self.label}: no recorded reference")
            if stdout != reference[self.label]["stdout"]:
                raise CheckError(f"{self.label}: stdout differs from reference")

    def validate_artifact(self, reference: Optional[dict]) -> None:
        """Raise CheckError unless the file the command wrote is right."""
        if self.artifact is None:
            return
        digest = _check_csv(self.artifact)
        if reference is not None:
            if digest != reference[self.label].get("artifact_sha256"):
                raise CheckError(f"{self.label}: artifact differs from reference")

    def record(self, stdout: str) -> dict:
        entry = {"stdout": stdout}
        if self.artifact is not None:
            entry["artifact_sha256"] = _check_csv(self.artifact)
        return entry


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _fields(payload: dict, **expected) -> None:
    for key, value in expected.items():
        _expect(
            payload.get(key) == value,
            f"{key}: expected {value!r}, got {payload.get(key)!r}",
        )


def colors_needed(set_size: int) -> int:
    """Smallest k >= 2 with k^4 >= 120|S|: the paper's palette."""
    k = 2
    while k**4 < 120 * set_size:
        k += 1
    return k


def _check_build(payload: dict, set_size: int, n: int,
                 vertices: Optional[int], edges: int,
                 wickets: Optional[int]) -> None:
    k = colors_needed(set_size)
    _fields(payload, n=n, set_size=set_size, edges=edges, k=k,
            selected_edges=-(-edges // k))
    if vertices is not None:
        _fields(payload, vertices=vertices)
    if wickets is not None:
        _fields(payload, wickets=wickets)
    _expect(isinstance(payload.get("wickets"), int) and payload["wickets"] >= 0,
            "wickets must be a count")
    _expect(isinstance(payload.get("max_dependency_degree"), int),
            "max_dependency_degree must be a count")


def _check_color(payload: dict, set_size: int, edges: int, wickets: int,
                 seed: int) -> None:
    k = colors_needed(set_size)
    _fields(payload, k=k, seed=seed, total_edges=edges, wickets=wickets,
            lower_bound=-(-edges // k))
    _expect(0 <= payload.get("color", -1) < k, "color outside the palette")
    _expect(payload.get("selected_edges", -1) >= payload["lower_bound"],
            "selected_edges below lower_bound")


# --- independent freeness checks on returned sets -------------------------

def ruzsa_free(values) -> bool:
    """No x,y,z,w in S, not all equal, with 3x + y = 2z + 2w."""
    s = set(values)
    for x, y, z in itertools.product(s, repeat=3):
        rest = 3 * x + y - 2 * z
        if rest % 2 == 0 and rest // 2 in s and len({x, y, z, rest // 2}) > 1:
            return False
    return True


def modular_free(values, k: int) -> bool:
    """No x,y,z in S, not all equal, with kx - (k-1)y = z mod k^2-k+1."""
    n = k * k - k + 1
    s = {v % n for v in values}
    for x, y in itertools.product(s, repeat=2):
        z = (k * x - (k - 1) * y) % n
        if z in s and len({x, y, z}) > 1:
            return False
    return True


def _eis_rotations(p, q):
    """The two points completing an equilateral triangle on p, q, for
    points a + b*w of the Eisenstein lattice stored as (a, b)."""
    c, d = q[0] - p[0], q[1] - p[1]
    return (p[0] + c - d, p[1] + c), (p[0] + d, p[1] + d - c)


def triangle_free(points) -> bool:
    s = set(points)
    for p, q in itertools.permutations(s, 2):
        if any(r in s for r in _eis_rotations(p, q)):
            return False
    return True


def cap_free(rows) -> bool:
    """No three distinct vectors of F_3^n summing to zero."""
    vecs = [tuple(int(ch) for ch in row) for row in rows]
    present = set(vecs)
    for x, y in itertools.combinations(vecs, 2):
        z = tuple((-a - b) % 3 for a, b in zip(x, y))
        if z in present and z != x and z != y:
            return False
    return True


def _check_search(payload: dict, problem: str, domain: str,
                  optimum: Optional[int], free: Callable) -> None:
    _fields(payload, problem=problem, domain=domain, verified=True)
    elements = payload.get("set")
    _expect(isinstance(elements, list), "set must be a list")
    _fields(payload, size=len(elements))
    if optimum is None:
        _fields(payload, optimal=False, method="local")
    else:
        _fields(payload, size=optimum, optimal=True, method="exhaustive")
    _expect(free(elements), "returned set is not solution-free")


def _check_cap(payload: dict) -> None:
    _fields(payload, dimension=3, size=9)
    elements = payload.get("elements")
    _expect(isinstance(elements, list) and len(elements) == 9
            and cap_free(elements), "cap max output is not a 9-cap")


def _parse_points(elements):
    return [tuple(int(x) for x in e.split(",")) for e in elements]


def _check_census(payload: dict, minimality: bool) -> None:
    _fields(payload, **CENSUS_TOTALS)
    if minimality:
        witness = payload.get("minimality_witness")
        _expect(isinstance(witness, list) and len(witness) == 4,
                "minimality_witness must be four edge ids")
    else:
        _expect("minimality_witness" not in payload, "unexpected witness")


def _check_csv(path) -> str:
    data = Path(path).read_bytes()
    rows = data.decode().splitlines()
    _expect(rows[:1] == ["e1,e2,e3,e4,e5,wicket,six_three"], "csv header")
    _expect(len(rows) == CENSUS_CSV_ROWS + 1, "csv row count")
    for row in rows[1:]:
        fields = row.split(",")
        _expect(len(fields) == 7, "csv row width")
        _expect(fields[5] == "1" or fields[6] == "1",
                "csv row with neither a wicket nor a (6,3)")
    return hashlib.sha256(data).hexdigest()


def reference_work(rounds: int = 5) -> list:
    """Fixed pure-Python work of the program's kind (tuples, sets, pair
    loops) that uses no wicketlab code: greedy caps in F_3^4, in seeded
    orders, grown with cap_free. run.py times it to gauge the CPU's speed."""
    points = ["".join(v) for v in itertools.product("012", repeat=4)]
    sizes = []
    for seed in range(rounds):
        random.Random(seed).shuffle(points)
        chosen: list = []
        for p in points:
            if cap_free(chosen + [p]):
                chosen.append(p)
        sizes.append(len(chosen))
    return sizes


# --- input generation -------------------------------------------------------

def _write(path: Path, lines) -> str:
    path.write_text("".join(f"{line}\n" for line in lines))
    return str(path)


def _affine_image(base, n: int, rng: random.Random) -> list:
    unit = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
    shift = rng.randrange(n)
    return sorted((unit * x + shift) % n for x in base)


def eisenstein_set(rng: random.Random) -> list:
    """A triangle-free subset of DISC of fixed size, by greedy insertion
    in a seeded order."""
    disc = list(DISC)
    while True:
        rng.shuffle(disc)
        chosen: list = []
        for p in disc:
            if triangle_free(chosen + [p]):
                chosen.append(p)
            if len(chosen) == EISENSTEIN_SET_SIZE:
                return sorted(chosen)


def make_commands(name: str, seed: int, workdir: Path) -> list:
    """Write the workload's inputs under workdir and return its commands."""
    rng = random.Random(f"{name}/{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "construct-detect":
        return _f3_pipeline(rng, workdir) + _generic_detect(rng, workdir)
    if name == "search-census":
        return _free_search(rng) + _grid_census(workdir)
    raise ValueError(f"unknown workload {name!r}")


def _f3_pipeline(rng, workdir):
    n, size = F3_DIMENSION, 2**F3_DIMENSION
    rows = ("".join(v) for v in itertools.product("01", repeat=n))
    cap = _write(workdir / f"cap{n}.txt", rows)
    wickets = math.comb(size, 2) * 3 ** (n - 1) * 6

    def check(p):
        _check_build(p, size, n, 3 * 3**n, size * 3**n, wickets)
        _fields(p, max_dependency_degree=F3_MAX_DEGREE)

    s = rng.randrange(10**6)
    return [
        Command(f"build f3 n={n}", ("build", "f3", "--cap", cap),
                check, seeded=False),
        Command(f"color f3 n={n}",
                ("color", "f3", "--cap", cap, "--seed", str(s)),
                lambda p: _check_color(p, size, size * 3**n, wickets, s),
                seeded=True),
    ]


def _generic_detect(rng, workdir):
    commands = []
    files = {}
    for k, (base, wickets) in MODULAR_BASES.items():
        n = k * k - k + 1
        elems = _affine_image(base, n, rng)
        if k != 7 and not modular_free(elems, k):
            raise RuntimeError(f"generated set for k={k} is not free")
        files[k] = _write(workdir / f"mod{k}.txt", elems)
        commands.append(Command(
            f"build modular k={k}",
            ("build", "modular", "--k", str(k), "--set", files[k]),
            lambda p, k=k, n=n, m=len(base), w=wickets:
                _check_build(p, m, n, 3 * n, m * n, w),
            seeded=True,
        ))
    s = rng.randrange(10**6)
    k5_base, k5_wickets = MODULAR_BASES[5]
    commands.append(Command(
        "color modular k=5",
        ("color", "modular", "--k", "5", "--set", files[5], "--seed", str(s)),
        lambda p, s=s: _check_color(p, len(k5_base), len(k5_base) * 21,
                                    k5_wickets, s),
        seeded=True,
    ))
    points = eisenstein_set(rng)
    eis = _write(workdir / "eisenstein.txt", (f"{a},{b}" for a, b in points))
    commands.append(Command(
        "build eisenstein bound=6",
        ("build", "eisenstein", "--bound", str(EISENSTEIN_BOUND), "--set", eis),
        lambda p: _check_build(p, EISENSTEIN_SET_SIZE, EISENSTEIN_BOUND, None,
                               EISENSTEIN_SET_SIZE * len(DISC), None),
        seeded=True,
    ))
    return commands


def _free_search(rng):
    s = rng.randrange(10**6)
    return [
        Command(f"search ruzsa n={RUZSA_N}",
                ("search", "ruzsa", "--n", str(RUZSA_N)),
                lambda p: _check_search(p, "3x+y=2z+2w", f"1..{RUZSA_N}", 6,
                                        ruzsa_free),
                seeded=False),
        Command("search modular k=5", ("search", "modular", "--k", "5"),
                lambda p: _check_search(p, "5x-4y=z (mod 21)", "Z/21", 7,
                                        lambda e: modular_free(e, 5)),
                seeded=False),
        Command("search triangle bound=6",
                ("search", "triangle", "--bound", "6"),
                lambda p: _check_search(
                    p, "t-w=omega(w-v)", "coordinate<=6", 12,
                    lambda e: triangle_free(_parse_points(e))),
                seeded=False),
        Command("cap max n=3", ("cap", "max", "--n", "3"), _check_cap,
                seeded=False),
        Command("search modular k=8 local",
                ("search", "modular", "--k", "8", "--mode", "local",
                 "--seed", str(s)),
                lambda p: _check_search(p, "8x-7y=z (mod 57)", "Z/57", None,
                                        lambda e: modular_free(e, 8)),
                seeded=True),
    ]


def _grid_census(workdir):
    jobs = min(2, len(os.sched_getaffinity(0)))  # no more workers than CPUs
    csv = str(workdir / "census.csv")
    return [
        Command("census", ("census",),
                lambda p: _check_census(p, False), seeded=False),
        Command("census --jobs", ("census", "--jobs", str(jobs)),
                lambda p: _check_census(p, False), seeded=False),
        Command("census --detectors --minimality",
                ("census", "--detectors", "--minimality"),
                lambda p: _check_census(p, True), seeded=False),
        Command("census --csv", ("census", "--csv", csv),
                lambda p: _check_census(p, False), seeded=False,
                artifact=csv),
    ]
