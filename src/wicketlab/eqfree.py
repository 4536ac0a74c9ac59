"""Solution-free sets for linear equations, and extremal searches.

An EquationSpec is a conjunction of homogeneous linear relations over a
commutative ring: plain integers, integers mod m, or Eisenstein points.
A set S is free when no assignment of S-values to the variables
satisfies every relation non-trivially, where "trivial" means all
variables take one common value. One enumerator,
`iter_nontrivial_solutions`, lists the solutions as value tuples in
`spec.variables` order; every freeness check and search reads them.

Searches: exact branch and bound for small domains, greedy plus
simulated annealing beyond that. Freeness is hereditary (dropping
elements never creates a solution), which both searches rely on.

The exact search lists every non-trivial solution over the domain once
and keeps the inclusion-minimal solution value sets as bitmasks (the
forbidden sets): a set is free exactly when it contains none of them.
The branch and bound over these masks reads, for each added element, a
kill table built once from the forbidden sets through it, and is shared
with the exact cap search in `gf3`, whose forbidden sets are the lines
and whose search starts from an affine frame. The heuristic,
whose domains have no size limit, keeps its set free, so each move
calls `has_solution(S, spec, through=c)`: it lists only the solutions
over S | {c} that use the new element c, which decides whether S | {c}
is free only because S is. Every result's `verified` flag comes from a
full `has_solution` check.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from typing import Iterable, Iterator, NamedTuple, Optional

from .eisenstein import ONE, OMEGA, ROT60, EisensteinPoint, region_points
from .errors import DomainTooLargeError

DEFAULT_EXHAUSTIVE_LIMIT = 30
TRIANGLE_EXHAUSTIVE_LIMIT = 22


class EquationSpec:
    """Conjunction of relations, each a tuple of (variable, coefficient)
    terms summing to zero. Specs compare by identity."""

    def __init__(
        self,
        name: str,
        variables: tuple,
        relations: tuple,
        modulus: Optional[int] = None,
    ):
        if not variables:
            raise ValueError("equation needs at least one variable")
        if not relations:
            raise ValueError("equation needs at least one relation")
        known = set(variables)
        for relation in relations:
            for var, _coeff in relation:
                if var not in known:
                    raise ValueError(f"relation uses unknown variable {var!r}")
        self.name = name
        self.variables = variables
        self.relations = relations
        self.modulus = modulus
        self._plans: dict = {}  # built by iter_nontrivial_solutions


def _is_zero(terms, values: tuple, modulus: Optional[int]) -> bool:
    """Whether the (position, coefficient) terms sum to zero on `values`."""
    zero = values[0] - values[0]
    total = sum((coeff * values[pos] for pos, coeff in terms), zero)
    return total % modulus == 0 if modulus is not None else total == zero


def _solver(coeff, modulus: Optional[int], units: bool, divide: bool):
    """(factor, divisor) that solve coeff * v + rest = 0 for v, as
    v = factor * rest or, with a divisor, as the exact quotient
    -rest / divisor; None when the coefficient allows neither.

    +-1 always solves. With `units`, so do the units mod m and the
    Eisenstein units (the sixth roots of unity); with `divide`, the
    other non-zero integers, by exact division over Z.
    """
    if coeff in (1, ONE):
        return -1, None
    if coeff in (-1, -ONE):
        return 1, None
    if units and isinstance(coeff, EisensteinPoint):
        power = coeff
        for _ in range(6):
            if power * coeff == ONE:
                return -power, None
            power = power * coeff
    elif units and modulus is not None and math.gcd(coeff, modulus) == 1:
        return -pow(coeff, -1, modulus) % modulus, None
    elif divide and isinstance(coeff, int) and coeff:
        return None, coeff
    return None


def _plan(spec: EquationSpec, pinned, units: bool, divide: bool) -> tuple:
    """(solved, rest, factor, divisor, checked) for listing the
    solutions in which position `pinned` (None: none) has a fixed value.

    Relations are compiled to (position, coefficient) terms, positions
    into `spec.variables`. `solved` is the position of the first term,
    in a relation of two or more terms, that is not pinned, appears once
    in its relation and has a coefficient `_solver` accepts (None if no
    term does). The other positions are enumerated; the solved value is
    computed from `rest`, the relation's other terms as (index into the
    enumerated tuple, coefficient), and inserted at its position. The
    `checked` relations are then tested on the completed tuple.
    """
    relations = tuple(
        tuple((spec.variables.index(var), c) for var, c in relation)
        for relation in spec.relations
    )
    for ridx, terms in enumerate(relations):
        places = [pos for pos, _coeff in terms]
        for tidx, (pos, coeff) in enumerate(terms):
            if len(places) < 2 or pos == pinned or places.count(pos) != 1:
                continue
            solve = _solver(coeff, spec.modulus, units, divide)
            if solve is not None:
                rest = tuple(
                    (p - (p > pos), c)
                    for i, (p, c) in enumerate(terms)
                    if i != tidx
                )
                checked = relations[:ridx] + relations[ridx + 1 :]
                return (pos, rest, *solve, checked)
    return None, (), None, None, relations


def iter_nontrivial_solutions(
    S: Iterable, spec: EquationSpec, through=None
) -> Iterator[tuple]:
    """Every non-trivial solution with values drawn from S, reduced mod
    m when the spec has a modulus, as a tuple of values in
    `spec.variables` order.

    When some relation carries a +-1 coefficient, that variable is
    solved from the others, saving one enumeration dimension; the
    remaining relations are then checked on the completed tuple.
    Otherwise every tuple is enumerated. A tuple whose values are all
    equal is trivial and skipped.

    With `through=c`, only the solutions over S | {c} that use the value
    c are listed, each once: under the first variable equal to c, which
    is pinned to c while another term of a relation is solved by a unit
    coefficient or, over integer values, by exact division. When S is
    free, these are all the solutions over S | {c}.
    """
    modulus = spec.modulus
    width = len(spec.variables)
    values = set(S) if modulus is None else {v % modulus for v in S}
    pins: Iterable = (None,)
    key = None
    if through is not None:
        through = through if modulus is None else through % modulus
        values.add(through)
        pins = range(width)
        key = modulus is None and all(isinstance(v, int) for v in values)
    plans = spec._plans.get(key)
    if plans is None:  # built once per spec and key
        plans = spec._plans[key] = {
            pin: _plan(spec, pin, key is not None, bool(key)) for pin in pins
        }
    values = sorted(values)
    members = set(values)

    for pinned in pins:
        solved, rest_terms, factor, divisor, checked = plans[pinned]
        free = [pos for pos in range(width) if pos != solved]
        domains = [(through,) if pos == pinned else values for pos in free]
        for combo in itertools.product(*domains):
            if solved is not None:
                rest = None
                for i, coeff in rest_terms:
                    term = coeff * combo[i]
                    rest = term if rest is None else rest + term
                if divisor is not None:
                    if rest % divisor:
                        continue
                    value = -rest // divisor
                elif factor == 1:
                    value = rest
                elif factor == -1:
                    value = -rest
                else:
                    value = factor * rest
                if modulus is not None:
                    value %= modulus
                if value not in members:
                    continue
                combo = combo[:solved] + (value,) + combo[solved:]
            if checked and not all(_is_zero(r, combo, modulus) for r in checked):
                continue
            if combo.count(combo[0]) == width:
                continue  # trivial: every variable takes one value
            if pinned and through in combo[:pinned]:
                continue  # listed under an earlier variable
            yield combo


def has_solution(S: Iterable, spec: EquationSpec, through=None) -> Optional[tuple]:
    """First non-trivial solution with values drawn from S, as a tuple
    in `spec.variables` order, or None.

    With `through=c`, the first over S | {c} that uses c: when S is
    free, None means that S | {c} is free as well.
    """
    return next(iter_nontrivial_solutions(S, spec, through), None)


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


class SearchResult(NamedTuple):
    elements: tuple
    method: str  # exhaustive | greedy | local
    verified: bool
    optimal: bool = False

    @property
    def size(self) -> int:
        return len(self.elements)


def _forbidden_sets(items: list, spec: EquationSpec) -> list:
    """Inclusion-minimal solution value sets over `items`, as bitmasks.

    Bit i stands for items[i], and solution values, which come reduced
    mod m, are matched to items by canonical value. A set is free
    exactly when it contains none of these masks.
    """
    m = spec.modulus
    bit = {v if m is None else v % m: 1 << i for i, v in enumerate(items)}
    masks = set()
    for solution in iter_nontrivial_solutions(items, spec):
        mask = 0
        for value in solution:
            mask |= bit[value]
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
    the search returns the first in depth-first order. Adding a bit b
    drops from the remaining candidates every bit c that would then
    complete a forbidden set. The kill table of b, built once, maps the
    key f - {b, c} to c for each forbidden f through b and each other c
    in f; adding b looks up each subset of the current set with at most
    max |f| - 2 members. That is exactly the completion rule: the current
    set is free and no remaining candidate completes a forbidden set, so
    a c found this way is never a member. The same rule, applied to
    `chosen`, gives the first candidates.
    """
    kills: list = [{} for _ in range(size)]
    rest = ((1 << size) - 1) & ~chosen
    for f in forbidden:
        missing = f & ~chosen
        if missing.bit_count() == 1:
            rest &= ~missing
        bits = f
        while bits:
            b = bits & -bits
            bits ^= b
            table = kills[b.bit_length() - 1]
            others = f ^ b
            completions = others
            while completions:
                c = completions & -completions
                completions ^= c
                key = others ^ c
                table[key] = table.get(key, 0) | c
    top = max([f.bit_count() - 2 for f in forbidden], default=0)

    def grow(levels: list, b: int) -> list:
        """The subsets of a set by size, up to `top`, once b joins it."""
        return [levels[0]] + [
            levels[s] + [key | b for key in levels[s - 1]]
            for s in range(1, top + 1)
        ]

    levels = [[0]] + [[] for _ in range(top)]
    bits = chosen
    while bits:
        b = bits & -bits
        bits ^= b
        levels = grow(levels, b)
    best, best_size = chosen, chosen.bit_count()

    def extend(current: int, count: int, rest: int, levels: list) -> None:
        # levels[s] lists the subsets of `current` with s members
        nonlocal best, best_size
        if count > best_size:
            best, best_size = current, count
        while count + rest.bit_count() > best_size:
            b = rest & -rest
            rest ^= b
            table = kills[b.bit_length() - 1]
            dropped = 0
            for keys in levels:
                for key in keys:
                    c = table.get(key)
                    if c:
                        dropped |= c
            tail = rest & ~dropped
            if tail and count + 1 + tail.bit_count() > best_size:
                extend(current | b, count + 1, tail, grow(levels, b))
            elif count + 1 > best_size:  # the child would only record its size
                best, best_size = current | b, count + 1

    extend(chosen, best_size, rest, levels)
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
        if has_solution(current, spec, through=cand) is None:
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
    members = set(baseline)
    # the sorted complement of current, kept in step with it
    outside = [c for c in items if c not in members]
    best: tuple = baseline
    temperature = 1.0
    cooling = 0.995

    for _step in range(budget):
        temperature = max(temperature * cooling, 1e-9)
        move = rng.choice(("add", "remove", "swap"))
        if move == "add":
            if not outside:
                continue
            cand = rng.choice(outside)
            if has_solution(current, spec, through=cand) is None:
                bisect.insort(current, cand)
                del outside[bisect.bisect_left(outside, cand)]
        elif move == "remove":
            if not current:
                continue
            if rng.random() >= math.exp(-1.0 / temperature):
                continue
            victim = rng.choice(current)
            current.remove(victim)
            bisect.insort(outside, victim)
        else:
            if not current or not outside:
                continue
            victim = rng.choice(current)
            cand = rng.choice(outside)
            kept = [c for c in current if c != victim]
            if has_solution(kept, spec, through=cand) is None:
                current.remove(victim)
                bisect.insort(current, cand)
                del outside[bisect.bisect_left(outside, cand)]
                bisect.insort(outside, victim)
        if len(current) > len(best):
            best = tuple(current)

    return SearchResult(
        elements=best,
        method="local",
        verified=is_free(best, spec),
    )


def max_triangle_free(bound: int, norm: str = "coordinate") -> SearchResult:
    """Largest equilateral-free subset of a lattice disc, by exhaustive
    search; a region of more than TRIANGLE_EXHAUSTIVE_LIMIT points
    raises DomainTooLargeError (max_free_heuristic searches those)."""
    return max_free_exhaustive(
        region_points(bound, norm=norm),
        equilateral_equation(),
        max_domain=TRIANGLE_EXHAUSTIVE_LIMIT,
    )

