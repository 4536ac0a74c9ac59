"""Exponent and bound formulas for the edge-count lower bounds.

Pure float arithmetic lives here and only here; every combinatorial
quantity elsewhere in the package is exact.
"""

from __future__ import annotations

import math

# Reference upper-bound base for progression-free sets in F_3^n that an
# improved wicket Turan exponent would have to beat.
CAP_BOUND_BASELINE = 2.756


def asymptotic_exponent(base: float) -> float:
    """1 + (3/4) log_3(base): the edge exponent granted by direction
    sets growing like base^n."""
    if not 1 < base < math.inf:  # also refuses nan
        raise ValueError("base must be finite and exceed 1")
    return 1.0 + 0.75 * math.log(base) / math.log(3.0)


def concrete_exponent(selected_edges: int, vertices: int) -> float:
    """log(selected) / log(vertices) for one finite build."""
    if vertices < 2:
        raise ValueError("need at least 2 vertices")
    if selected_edges < 1:
        raise ValueError("need at least 1 selected edge")
    return math.log(selected_edges) / math.log(vertices)


def dimension_exponent(selected_edges: int, n: int) -> float:
    """concrete_exponent(selected_edges, 3^(n+1)) for a build over
    GF(3)^n, computed as log(selected) / ((n+1) log 3) so that 3^(n+1)
    is never built and a huge n costs no time."""
    if n < 0:
        raise ValueError("n must be at least 0")
    if selected_edges < 1:
        raise ValueError("need at least 1 selected edge")
    try:
        return math.log(selected_edges) / ((n + 1) * math.log(3.0))
    except OverflowError:  # n + 1 is past the float range
        return 0.0


def cap_bound_base(c: float) -> float:
    """3^{(4/3)(1-c)}: the progression-free bound base implied by a
    wicket Turan upper bound with exponent 2 - c."""
    if not 0 < c < 1:
        raise ValueError("c must lie strictly between 0 and 1")
    return 3.0 ** ((4.0 / 3.0) * (1.0 - c))


def improves_cap_bound(value: float) -> bool:
    return value < CAP_BOUND_BASELINE


def gowers_long_constant(exponent: float) -> float:
    """2 - exponent: the constant implied for ordered tri-partite
    systems by an edge exponent in (1, 2)."""
    if not 1.0 < exponent < 2.0:
        raise ValueError("exponent must lie strictly between 1 and 2")
    return 2.0 - exponent

