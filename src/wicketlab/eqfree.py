"""Solution-free sets for linear equations, and extremal searches.

An EquationSpec is a conjunction of homogeneous linear relations over a
commutative ring: plain integers, integers mod m, or Eisenstein points.
A set S is free when no assignment of S-values to the variables
satisfies every relation non-trivially (by default, "trivial" means all
variables take one common value).

Searches: exact branch and bound for small domains, greedy plus
simulated annealing beyond that. Freeness is hereditary (dropping
elements never creates a solution), which both searches rely on.

The exact search lists every non-trivial solution over the domain once
and keeps the inclusion-minimal solution value sets as bitmasks (the
forbidden sets): a set is free exactly when it contains none of them.
The branch and bound over these masks is shared with the exact cap
search in `gf3`, whose forbidden sets are the lines. The heuristic
calls `has_solution` per move, since its domains have no size limit,
and every result's `verified` flag comes from `has_solution` too.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from .eisenstein import ONE, OMEGA, ROT60, EisensteinPoint, region_points
from .errors import DomainTooLargeError, SetFileError

DEFAULT_EXHAUSTIVE_LIMIT = 30
TRIANGLE_EXHAUSTIVE_LIMIT = 22


@dataclass(frozen=True, eq=False)
class EquationSpec:
    """Conjunction of relations, each a tuple of (variable, coefficient)
    terms summing to zero. `trivial` overrides the all-equal rule."""

    name: str
    variables: tuple
    relations: tuple
    modulus: Optional[int] = None
    trivial: Optional[Callable] = None

    def __post_init__(self):
        if not self.variables:
            raise ValueError("equation needs at least one variable")
        if not self.relations:
            raise ValueError("equation needs at least one relation")
        known = set(self.variables)
        for relation in self.relations:
            for var, _coeff in relation:
                if var not in known:
                    raise ValueError(f"relation uses unknown variable {var!r}")

    def is_trivial(self, assignment: dict) -> bool:
        if self.trivial is not None:
            return self.trivial(assignment)
        values = iter(assignment.values())
        first = next(values)
        return all(v == first for v in values)


def _relation_value(relation, assignment):
    total = None
    for var, coeff in relation:
        term = coeff * assignment[var]
        total = term if total is None else total + term
    return total


def _is_zero(value, modulus: Optional[int]) -> bool:
    if value is None:
        return True
    if modulus is not None:
        return value % modulus == 0
    return value == value - value


def _canon(value, modulus: Optional[int]):
    return value % modulus if modulus is not None else value


def _unit_sign(coeff) -> Optional[int]:
    if isinstance(coeff, int):
        if coeff == 1:
            return 1
        if coeff == -1:
            return -1
        return None
    if isinstance(coeff, EisensteinPoint):
        if coeff == ONE:
            return 1
        if coeff == -ONE:
            return -1
    return None


def _solver_plan(spec: EquationSpec) -> Optional[tuple]:
    """Locate one relation term with a +-1 coefficient to solve for.

    The relation needs a second term to solve from, and the chosen
    variable must appear exactly once in it, so the remaining terms
    evaluate without it.
    """
    for ridx, relation in enumerate(spec.relations):
        if len(relation) < 2:
            continue
        mentions: dict = {}
        for var, _coeff in relation:
            mentions[var] = mentions.get(var, 0) + 1
        for tidx, (var, coeff) in enumerate(relation):
            if mentions[var] != 1:
                continue
            sign = _unit_sign(coeff)
            if sign is not None:
                return ridx, tidx, sign
    return None


def iter_nontrivial_solutions(S: Iterable, spec: EquationSpec) -> Iterator[dict]:
    """Every non-trivial solving assignment with values drawn from S.

    When some relation carries a +-1 coefficient, that variable is
    solved from the others, saving one enumeration dimension; the
    remaining relations and the triviality rule are then checked on the
    completed assignment. Otherwise every assignment is enumerated.
    """
    values = sorted(set(S))
    plan = _solver_plan(spec)
    if plan is None:
        solved_var, free_vars, checked = None, spec.variables, spec.relations
    else:
        ridx, tidx, sign = plan
        relation = spec.relations[ridx]
        solved_var = relation[tidx][0]
        rest_terms = tuple(t for i, t in enumerate(relation) if i != tidx)
        free_vars = tuple(v for v in spec.variables if v != solved_var)
        checked = tuple(r for i, r in enumerate(spec.relations) if i != ridx)
        members = {_canon(v, spec.modulus) for v in values}

    for combo in itertools.product(values, repeat=len(free_vars)):
        assignment = dict(zip(free_vars, combo))
        if solved_var is not None:
            rest = _relation_value(rest_terms, assignment)
            candidate = _canon(-rest if sign == 1 else rest, spec.modulus)
            if candidate not in members:
                continue
            assignment[solved_var] = candidate
        if not all(
            _is_zero(_relation_value(r, assignment), spec.modulus)
            for r in checked
        ):
            continue
        if spec.is_trivial(assignment):
            continue
        yield assignment


def has_solution(S: Iterable, spec: EquationSpec) -> Optional[dict]:
    """First non-trivial solution with values drawn from S, or None."""
    return next(iter_nontrivial_solutions(S, spec), None)


def is_free(S: Iterable, spec: EquationSpec) -> bool:
    return has_solution(S, spec) is None


def ruzsa_equation() -> EquationSpec:
    """3x + y = 2z + 2w over the integers."""
    return EquationSpec(
        name="3x+y=2z+2w",
        variables=("x", "y", "z", "w"),
        relations=((("x", 3), ("y", 1), ("z", -2), ("w", -2)),),
    )


def modular_equation(k: int) -> EquationSpec:
    """kx - (k-1)y = z over Z/(k^2 - k + 1)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    n = k * k - k + 1
    return EquationSpec(
        name=f"{k}x-{k - 1}y=z (mod {n})",
        variables=("x", "y", "z"),
        relations=((("x", k), ("y", -(k - 1)), ("z", -1)),),
        modulus=n,
    )


def equilateral_equation() -> EquationSpec:
    """t - w = omega (w - v) over the Eisenstein lattice.

    Any assignment of three not-all-equal values solving this has three
    distinct values forming an equilateral triangle, and every
    equilateral triple solves it under some labeling (the opposite
    orientation corresponds to swapping t and v), so set-freeness for
    this single relation is exactly equilateral-triangle-freeness.
    """
    return EquationSpec(
        name="t-w=omega(w-v)",
        variables=("t", "v", "w"),
        relations=((("t", ONE), ("v", OMEGA), ("w", -ROT60)),),
    )


@dataclass(frozen=True)
class SearchResult:
    elements: tuple
    method: str  # exhaustive | greedy | local
    verified: bool
    optimal: bool = False

    @property
    def size(self) -> int:
        return len(self.elements)


def _forbidden_sets(items: list, spec: EquationSpec) -> list:
    """Inclusion-minimal solution value sets over `items`, as bitmasks.

    Bit i stands for items[i], and solution values are matched to items
    by canonical value. A set is free exactly when it contains none of
    these masks.
    """
    position = {_canon(v, spec.modulus): i for i, v in enumerate(items)}
    masks = set()
    for solution in iter_nontrivial_solutions(items, spec):
        mask = 0
        for value in solution.values():
            mask |= 1 << position[_canon(value, spec.modulus)]
        masks.add(mask)
    minimal = []
    for mask in masks:
        sub = (mask - 1) & mask
        while sub and sub not in masks:
            sub = (sub - 1) & mask
        if not sub:
            minimal.append(mask)
    return minimal


def _max_free_mask(forbidden: list, size: int, chosen: int) -> int:
    """Largest superset of the free bitmask `chosen` among bits
    0..size-1 that contains no forbidden set, by branch and bound.

    Candidates are tried in ascending bit order, so of the maximum sets
    the search returns the first in depth-first order. Adding a bit
    drops from the remaining candidates every bit that would complete
    one of the forbidden sets through it; the same rule, applied to
    `chosen`, gives the first candidates.
    """
    through: list = [[] for _ in range(size)]
    rest = ((1 << size) - 1) & ~chosen
    for f in forbidden:
        missing = f & ~chosen
        if missing.bit_count() == 1:
            rest &= ~missing
        bits = f
        while bits:
            low = bits & -bits
            through[low.bit_length() - 1].append(f)
            bits ^= low
    best, best_size = chosen, chosen.bit_count()

    def extend(current: int, count: int, rest: int) -> None:
        nonlocal best, best_size
        if count > best_size:
            best, best_size = current, count
        while count + rest.bit_count() > best_size:
            low = rest & -rest
            rest ^= low
            trial = current | low
            tail = rest
            for f in through[low.bit_length() - 1]:
                missing = f & ~trial
                if missing.bit_count() == 1:
                    tail &= ~missing
            extend(trial, count + 1, tail)

    extend(chosen, best_size, rest)
    return best


def max_free_exhaustive(
    domain: Iterable,
    spec: EquationSpec,
    max_domain: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> SearchResult:
    """Maximum free subset by branch and bound over the sorted domain.

    Lists the forbidden sets once, then searches over bitmasks: it
    prunes on the remaining-domain bound and, after each inclusion,
    drops candidates that would complete a forbidden set. Of the
    maximum free subsets it returns the first in depth-first order.
    """
    items = sorted(set(domain))
    if len(items) > max_domain:
        raise DomainTooLargeError(
            f"domain has {len(items)} elements, exhaustive limit is "
            f"{max_domain}; use max_free_heuristic instead"
        )
    best = _max_free_mask(_forbidden_sets(items, spec), len(items), 0)
    elements = tuple(v for i, v in enumerate(items) if best >> i & 1)
    return SearchResult(
        elements=elements,
        method="exhaustive",
        verified=is_free(elements, spec),
        optimal=True,
    )


def greedy_free_set(domain: Iterable, spec: EquationSpec) -> tuple:
    """Ascending-order greedy insertion; the heuristic baseline."""
    current: list = []
    for cand in sorted(set(domain)):
        if has_solution(current + [cand], spec) is None:
            current.append(cand)
    return tuple(current)


def max_free_heuristic(
    domain: Iterable,
    spec: EquationSpec,
    seed: int = 0,
    budget: int = 2000,
    method: str = "local",
) -> SearchResult:
    """Greedy baseline, optionally improved by seeded annealing.

    Moves: add a random outside element, remove a random member
    (accepted with probability exp(-1/T)), or swap one for one.
    Temperature cools geometrically. The returned set is always at
    least as large as the greedy baseline.
    """
    if method not in ("greedy", "local"):
        raise ValueError(f"unknown heuristic method {method!r}")
    items = sorted(set(domain))
    baseline = greedy_free_set(items, spec)
    if method == "greedy" or not items:
        return SearchResult(
            elements=baseline,
            method="greedy",
            verified=is_free(baseline, spec),
        )

    rng = random.Random(seed)
    current: list = list(baseline)
    member_set = set(current)
    best: tuple = baseline
    temperature = 1.0
    cooling = 0.995

    for _step in range(budget):
        temperature = max(temperature * cooling, 1e-9)
        move = rng.choice(("add", "remove", "swap"))
        if move == "add":
            outside = [c for c in items if c not in member_set]
            if not outside:
                continue
            cand = rng.choice(outside)
            if has_solution(current + [cand], spec) is None:
                bisect.insort(current, cand)
                member_set.add(cand)
        elif move == "remove":
            if not current:
                continue
            if rng.random() >= math.exp(-1.0 / temperature):
                continue
            victim = rng.choice(current)
            current.remove(victim)
            member_set.discard(victim)
        else:
            if not current:
                continue
            outside = [c for c in items if c not in member_set]
            if not outside:
                continue
            victim = rng.choice(current)
            cand = rng.choice(outside)
            trial = [c for c in current if c != victim] + [cand]
            if has_solution(trial, spec) is None:
                current.remove(victim)
                member_set.discard(victim)
                bisect.insort(current, cand)
                member_set.add(cand)
        if len(current) > len(best):
            best = tuple(current)

    return SearchResult(
        elements=best,
        method="local",
        verified=is_free(best, spec),
    )


def max_triangle_free(
    bound: int,
    norm: str = "coordinate",
    seed: int = 0,
    budget: int = 2000,
) -> SearchResult:
    """Largest equilateral-free subset of a lattice disc.

    Exact for regions up to TRIANGLE_EXHAUSTIVE_LIMIT points, heuristic
    above.
    """
    region = region_points(bound, norm=norm)
    spec = equilateral_equation()
    if len(region) <= TRIANGLE_EXHAUSTIVE_LIMIT:
        return max_free_exhaustive(
            region, spec, max_domain=TRIANGLE_EXHAUSTIVE_LIMIT
        )
    return max_free_heuristic(region, spec, seed=seed, budget=budget)


def parse_int_set_text(text: str, modulus: Optional[int] = None) -> tuple:
    """One integer per line; '#' comments and blanks ignored."""
    values: list = []
    seen: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = int(line)
        except ValueError:
            raise SetFileError(f"not an integer: {line!r}", lineno) from None
        if modulus is not None:
            if not 0 <= value < modulus:
                raise SetFileError(
                    f"{value} outside residue range 0..{modulus - 1}", lineno
                )
        if value in seen:
            raise SetFileError(f"duplicate value {value}", lineno)
        seen.add(value)
        values.append(value)
    return tuple(sorted(values))


def parse_eisenstein_set_text(text: str) -> tuple:
    """One "a,b" lattice pair per line; '#' comments and blanks ignored."""
    points: list = []
    seen: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise SetFileError(f"expected 'a,b', got {line!r}", lineno)
        try:
            point = EisensteinPoint(int(parts[0]), int(parts[1]))
        except ValueError:
            raise SetFileError(f"non-integer pair {line!r}", lineno) from None
        if point in seen:
            raise SetFileError(f"duplicate point {line}", lineno)
        seen.add(point)
        points.append(point)
    return tuple(sorted(points))


def load_int_set_file(path, modulus: Optional[int] = None) -> tuple:
    return parse_int_set_text(Path(path).read_text(), modulus=modulus)


def load_eisenstein_set_file(path) -> tuple:
    return parse_eisenstein_set_text(Path(path).read_text())
