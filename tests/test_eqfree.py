import functools
import itertools
import operator
import random

import pytest

from wicketlab.construction import load_int_set_file

from wicketlab.eisenstein import (
    OMEGA,
    EisensteinPoint,
    load_eisenstein_set_file,
    region_points,
)
from wicketlab.eqfree import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    TRIANGLE_EXHAUSTIVE_LIMIT,
    EquationSpec,
    _forbidden_sets,
    _max_free_mask,
    equilateral_equation,
    greedy_free_set,
    has_solution,
    is_free,
    iter_nontrivial_solutions,
    max_free_exhaustive,
    max_free_heuristic,
    max_triangle_free,
    modular_equation,
    ruzsa_equation,
)
from wicketlab.errors import DomainTooLargeError, SetFileError
from wicketlab.gf3 import all_vectors, find_ap3, load_cap_file
from oracles import (
    F3Elem,
    constant_solves,
    equilateral_by_sides,
    max_free_first_by_has_solution,
    max_free_heuristic_by_full_check,
    max_free_mask_by_rescan,
    modular_solution_raw,
    ruzsa_bad_masks,
    ruzsa_max_fullenum,
    ruzsa_solution_raw,
)

RUZSA_OPTIMA = [1, 2, 2, 2, 2, 3, 4, 4, 4, 4, 4, 4]  # n = 1..12


def test_spec_validation():
    with pytest.raises(ValueError):
        EquationSpec(name="empty", coefficients=())


def test_ruzsa_constant_satisfies():
    # every constant solves it, and no all-equal assignment is listed
    spec = ruzsa_equation()
    assert constant_solves(spec, 1)
    assert has_solution([2], spec) is None
    sols = list(iter_nontrivial_solutions([1, 2, 3], spec))
    assert sols and all(len(set(sol)) > 1 for sol in sols)


def test_has_solution_matches_raw_scan():
    spec = ruzsa_equation()
    rng = random.Random(9)
    for _ in range(80):
        S = rng.sample(range(1, 15), rng.randrange(1, 8))
        assert (has_solution(S, spec) is not None) == ruzsa_solution_raw(S)


def test_has_solution_returns_valid_assignment():
    spec = ruzsa_equation()
    sol = has_solution([1, 2, 3], spec)
    assert sol is not None
    x, y, z, w = sol
    assert 3 * x + y == 2 * z + 2 * w
    assert len(set(sol)) > 1


def test_modular_spec_matches_raw_scan():
    for k in (2, 3):
        spec = modular_equation(k)
        n = k * k - k + 1
        rng = random.Random(k)
        for _ in range(60):
            S = rng.sample(range(n), rng.randrange(1, n + 1))
            assert (has_solution(S, spec) is not None) == modular_solution_raw(S, k)


def test_modular_equation_names():
    assert modular_equation(2).name == "2x-1y=z (mod 3)"
    assert modular_equation(3).name == "3x-2y=z (mod 7)"
    with pytest.raises(ValueError):
        modular_equation(1)


def test_iter_nontrivial_solutions_complete():
    spec = modular_equation(2)
    sols = list(iter_nontrivial_solutions([0, 1, 2], spec))
    # raw count over Z/3: all (x, y) pairs define z; count nontrivial ones
    expected = sum(
        1
        for x in range(3)
        for y in range(3)
        if not x == y == (2 * x - y) % 3
    )
    assert len(sols) == expected
    for x, y, z in sols:
        assert (2 * x - y - z) % 3 == 0


def test_iter_nontrivial_solutions_matches_full_product():
    # The enumerator solves one +-1 position from the others; compare
    # with a plain scan of every tuple. With through=c it pins each
    # position to c in turn and solves another (by a unit, or by exact
    # division over int values); compare with the scanned solutions
    # that use c. 2x + 2y = 4z has no +-1 coefficient, so its full
    # listing checks every tuple. The GF(3) cases have int coefficients
    # over F3Elem values, where dividing by 3 or 2 would be wrong.
    f3_plane = [F3Elem(v) for v in all_vectors(2)]
    cases = [
        (ruzsa_equation(), range(-2, 5)),
        (modular_equation(3), range(7)),
        (equilateral_equation(), region_points(1)),
        (EquationSpec("2x+2y=4z", (2, 2, -4)), range(-3, 4)),
        (_reduced_gf3_equation(), f3_plane),
        (ruzsa_equation(), f3_plane),
    ]
    for spec, domain in cases:
        values = sorted(set(domain))
        expected = set()
        for combo in itertools.product(values, repeat=len(spec.coefficients)):
            terms = [coeff * v for coeff, v in zip(spec.coefficients, combo)]
            total = functools.reduce(operator.add, terms)
            if spec.modulus is not None:
                solves = total % spec.modulus == 0
            else:
                solves = total == total - total
            if solves and len(set(combo)) > 1:
                expected.add(combo)
        found = list(iter_nontrivial_solutions(values, spec))
        assert len(found) == len(set(found)), spec.name
        assert set(found) == expected, spec.name
        assert has_solution(values, spec) == (found[0] if found else None)
        for c in values:
            using_c = {combo for combo in expected if c in combo}
            for S in (values, [v for v in values if v != c]):
                found = list(iter_nontrivial_solutions(S, spec, through=c))
                assert len(found) == len(set(found)), (spec.name, c)
                assert set(found) == using_c, (spec.name, c)
                assert (has_solution(S, spec, through=c) is None) == (
                    not using_c
                )


def test_values_reduce_mod_m():
    # 21 is 0 in Z/21: {0, 21} is the one-element set {0}, whose only
    # solution is the trivial one.
    spec = modular_equation(5)
    assert has_solution([0, 21], spec) is None
    assert has_solution([0], spec, through=21) is None
    assert list(iter_nontrivial_solutions([1, 23, 44], spec)) == list(
        iter_nontrivial_solutions([1, 2], spec)
    )
    assert has_solution([1], spec, through=23) == has_solution([1, 2], spec)


def test_exhaustive_matches_full_enumeration():
    spec = ruzsa_equation()
    for n in (4, 6, 9):
        res = max_free_exhaustive(tuple(range(1, n + 1)), spec)
        assert res.size == ruzsa_max_fullenum(n) == RUZSA_OPTIMA[n - 1]
        assert res.optimal and res.verified


def test_forbidden_sets_are_the_minimal_solution_sets():
    # The exact search's forbidden sets against raw scans: for Ruzsa
    # over 1..n the oracle's solution value sets, for kx - (k-1)y = z
    # the value sets of every non-trivial triple over Z/(k^2 - k + 1).
    def minimal(masks):
        return {m for m in masks if not any(o != m and o & m == o for o in masks)}

    spec = ruzsa_equation()
    for n in range(1, 13):
        forbidden = _forbidden_sets(list(range(1, n + 1)), spec)
        assert len(forbidden) == len(set(forbidden)), n
        assert set(forbidden) == minimal(set(ruzsa_bad_masks(n))), n
    for k in (2, 3, 4):
        n = k * k - k + 1
        solution_sets = {
            (1 << x) | (1 << y) | (1 << z)
            for x, y, z in itertools.product(range(n), repeat=3)
            if (k * x - (k - 1) * y - z) % n == 0 and not x == y == z
        }
        forbidden = _forbidden_sets(list(range(n)), modular_equation(k))
        assert len(forbidden) == len(set(forbidden)), k
        assert set(forbidden) == minimal(solution_sets), k


def _reduced_gf3_equation():
    return EquationSpec("y+z+w=0 over GF(3)^n", (1, 1, 1))


def test_exhaustive_matches_has_solution_search_in_order():
    # The forbidden-set branch and bound returns the same set, element
    # for element, as the search that called has_solution at every node.
    cases = [(ruzsa_equation(), range(1, n + 1)) for n in range(1, 19)]
    cases += [(modular_equation(k), range(k * k - k + 1)) for k in range(2, 6)]
    cases += [
        (equilateral_equation(), region_points(bound, norm=norm))
        for bound in range(1, 5)
        for norm in ("coordinate", "ring")
    ]
    cases += [
        (_reduced_gf3_equation(), [F3Elem(v) for v in all_vectors(2)]),
        # R0 of the wicket system, s - t + k(u - w) = 0 mod k^2 - k + 1
        (EquationSpec("s-t+2u-2w (mod 3)", (1, -1, 2, -2), 3), range(3)),
        (EquationSpec("s-t+3u-3w (mod 7)", (1, -1, 3, -3), 7), range(7)),
        (EquationSpec("2x+2y=4z", (2, 2, -4)), range(-3, 4)),
    ]
    rng = random.Random(61)
    for spec, domain in list(cases):
        values = sorted(set(domain))
        for _ in range(2):
            sub = rng.sample(values, rng.randrange(len(values) + 1))
            cases.append((spec, sub))
    for spec, domain in cases:
        result = max_free_exhaustive(domain, spec)
        assert result.elements == max_free_first_by_has_solution(domain, spec), (
            spec.name,
            domain,
        )
        assert result.verified


def test_kill_tables_match_rescan():
    # Random families with singletons, non-minimal and repeated sets,
    # searched from random free starting masks.
    rng = random.Random(83)
    for _ in range(300):
        size = rng.randint(1, 24)
        forbidden = []
        for _ in range(rng.randrange(3 * size)):
            width = min(rng.randint(1, 5), size)
            forbidden.append(sum(1 << i for i in rng.sample(range(size), width)))
        for f in rng.sample(forbidden, len(forbidden) // 4):
            forbidden.append(f)  # repeated
            extra = rng.randrange(size)
            forbidden.append(f | 1 << extra)  # non-minimal unless extra in f
        rng.shuffle(forbidden)
        chosen = 0
        for i in rng.sample(range(size), rng.randrange(size + 1) // 2):
            trial = chosen | 1 << i
            if all(f & trial != f for f in forbidden):
                chosen = trial
        assert _max_free_mask(forbidden, size, chosen) == max_free_mask_by_rescan(
            forbidden, size, chosen
        ), (size, forbidden, chosen)


def test_exhaustive_domain_guard():
    spec = ruzsa_equation()
    with pytest.raises(DomainTooLargeError):
        max_free_exhaustive(tuple(range(1, DEFAULT_EXHAUSTIVE_LIMIT + 2)), spec)


def test_greedy_is_free_and_deterministic():
    spec = ruzsa_equation()
    a = greedy_free_set(range(1, 30), spec)
    b = greedy_free_set(range(1, 30), spec)
    assert a == b
    assert is_free(a, spec)


def test_heuristic_improves_on_greedy_and_is_seed_stable():
    spec = ruzsa_equation()
    domain = range(1, 45)
    greedy = max_free_heuristic(domain, spec, method="greedy")
    assert greedy.method == "greedy" and greedy.verified
    first = max_free_heuristic(domain, spec, seed=2, budget=800)
    second = max_free_heuristic(domain, spec, seed=2, budget=800)
    assert first.elements == second.elements
    assert first.size >= greedy.size
    assert first.verified and not first.optimal


def test_heuristic_matches_full_check_oracle():
    # Each move checks only the solutions through the new element; the
    # oracle checks the whole trial set, so both make the same moves.
    cases = [(ruzsa_equation(), range(1, 46))]
    cases += [(modular_equation(k), range(k * k - k + 1)) for k in (5, 8, 12)]
    triangle = region_points(8)
    assert len(triangle) > TRIANGLE_EXHAUSTIVE_LIMIT
    cases.append((equilateral_equation(), triangle))
    for spec, domain in cases:
        greedy = max_free_heuristic(domain, spec, method="greedy")
        assert greedy.elements == max_free_heuristic_by_full_check(
            domain, spec, method="greedy"
        ), spec.name
        for seed in range(5):
            for budget in (250, 2000):
                result = max_free_heuristic(domain, spec, seed=seed, budget=budget)
                assert result.elements == max_free_heuristic_by_full_check(
                    domain, spec, seed=seed, budget=budget
                ), (spec.name, seed, budget)
                assert result.verified


def test_heuristic_unknown_method():
    with pytest.raises(ValueError):
        max_free_heuristic(range(5), ruzsa_equation(), method="tabu")


def test_reduced_gf3_equation_detects_caps():
    """Over GF(3) the quadruple equation loses its x term and turns
    into y + z + w = 0, whose nontrivial solutions are exactly the
    zero-sum triples of distinct vectors."""
    reduced = _reduced_gf3_equation()
    assert constant_solves(reduced, F3Elem((1, 0)))
    rng = random.Random(23)
    vecs = list(all_vectors(2))
    for _ in range(60):
        S = rng.sample(vecs, rng.randrange(1, 9))
        wrapped = [F3Elem(v) for v in S]
        assert is_free(wrapped, reduced) == (find_ap3(S) is None)


def test_equilateral_equation_over_points():
    spec = equilateral_equation()
    corners = [
        EisensteinPoint(-1, 0),
        EisensteinPoint(-1, 1),
        EisensteinPoint(0, 1),
    ]
    sol = has_solution(corners, spec)
    assert sol is not None
    t, v, w = sol
    assert t - w == OMEGA * (w - v)
    assert equilateral_by_sides(t, v, w)
    assert is_free(
        [EisensteinPoint(0, 0), EisensteinPoint(1, 0), EisensteinPoint(0, 1)], spec
    )


def test_max_triangle_free_exhaustive_small():
    res = max_triangle_free(1, norm="coordinate")
    assert res.size == 4 and res.optimal and res.method == "exhaustive"
    res = max_triangle_free(2, norm="coordinate")
    assert res.size == 5 and res.optimal
    res = max_triangle_free(3, norm="ring")
    assert res.size == 7 and res.optimal


def test_max_triangle_free_heuristic_path():
    # exhaustive only: a region above the limit is refused, and no
    # command reaches it (the CLI checks the limit first)
    with pytest.raises(DomainTooLargeError):
        max_triangle_free(8, norm="coordinate")


def _set_file(tmp_path, text):
    path = tmp_path / "set.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_int_set_text(tmp_path):
    def load(text, modulus=7):
        return load_int_set_file(_set_file(tmp_path, text), modulus)

    path = tmp_path / "set.txt"
    assert load("3\n1\n# c\n\n2\n") == (1, 2, 3)
    assert load("5\n1\n") == (1, 5)
    with pytest.raises(SetFileError) as info:
        load("1\nx\n")
    assert str(info.value) == f"{path}: line 2: not an integer: 'x'"
    # int() would read these as 1, 10 and 3
    for bad in ("0_1", "1_0", "\u0663"):
        with pytest.raises(SetFileError) as info:
            load(f"2\n{bad}\n")
        assert str(info.value) == f"{path}: line 2: not an integer: {bad!r}"
    with pytest.raises(SetFileError) as info:
        load("1\n1\n")
    assert str(info.value) == f"{path}: line 2: duplicate of line 1: '1'"
    with pytest.raises(SetFileError) as info:
        load("9\n")
    assert str(info.value) == f"{path}: line 1: 9 outside residue range 0..6"


def test_parse_eisenstein_set_text(tmp_path):
    def load(text):
        return load_eisenstein_set_file(_set_file(tmp_path, text))

    path = tmp_path / "set.txt"
    pts = load("0,1\n-1, 2\n")
    assert pts == (EisensteinPoint(-1, 2), EisensteinPoint(0, 1))
    with pytest.raises(SetFileError) as info:
        load("0,1\n3\n")
    assert str(info.value) == f"{path}: line 2: expected 'a,b', got '3'"
    with pytest.raises(SetFileError) as info:
        load("0,1\n0,1\n")
    assert str(info.value) == f"{path}: line 2: duplicate of line 1: '0,1'"
    # int() would read these as 1, 10 and 3
    for bad in ("0_1,2", "1_0,2", "\u0663,0"):
        with pytest.raises(SetFileError) as info:
            load(f"0,1\n{bad}\n")
        assert str(info.value) == f"{path}: line 2: non-integer pair {bad!r}"


# The line rules the three file formats share: each loader with two
# entries and the first entry written again in another way.
SET_FILE_LOADERS = [
    (lambda path: load_cap_file(path).sorted_elements, "01", "10", " 01\t"),
    (functools.partial(load_int_set_file, modulus=7), "1", "3", "01"),
    (load_eisenstein_set_file, "0,1", "-1,2", " 0 , 1"),
]


@pytest.mark.parametrize(
    "load, first, second, again", SET_FILE_LOADERS, ids=["cap", "residue", "point"]
)
def test_set_files_share_line_rules(tmp_path, load, first, second, again):
    def read(text):
        return load(_set_file(tmp_path, text))

    path = tmp_path / "set.txt"
    values = read(f"# header\n\n  {second}  \n\t\n   # note\n\t{first}\n")
    assert len(values) == 2 and values == read(f"{first}\n{second}\n")
    with pytest.raises(SetFileError) as info:
        read(f"{first}\n# c\n\n{second}\n{again}\n")
    assert str(info.value) == f"{path}: line 5: duplicate of line 1: {again.strip()!r}"
