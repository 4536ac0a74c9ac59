"""Exact arithmetic in the Eisenstein integers Z[w], w = (-1+i*sqrt(3))/2.

A point (a, b) stands for a + w*b. The identities used throughout:
w^2 = -1 - w, 1 + w = e^{i*pi/3} (the rotation by pi/3), and
-w = e^{-i*pi/3}. These points form the triangular lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True, order=True)
class EisensteinPoint:
    a: int
    b: int

    def __add__(self, other):
        if not isinstance(other, EisensteinPoint):
            return NotImplemented
        return EisensteinPoint(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        if not isinstance(other, EisensteinPoint):
            return NotImplemented
        return EisensteinPoint(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return EisensteinPoint(-self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, int):
            return EisensteinPoint(self.a * other, self.b * other)
        if isinstance(other, EisensteinPoint):
            # (a+wb)(c+wd) = ac - bd + w(ad + bc - bd), using w^2 = -1-w
            a, b, c, d = self.a, self.b, other.a, other.b
            return EisensteinPoint(a * c - b * d, a * d + b * c - b * d)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return EisensteinPoint(self.a * other, self.b * other)
        return NotImplemented

    def __str__(self):
        return f"({self.a},{self.b})"


ZERO = EisensteinPoint(0, 0)
ONE = EisensteinPoint(1, 0)
OMEGA = EisensteinPoint(0, 1)
ROT60 = EisensteinPoint(1, 1)  # 1 + w rotates by +pi/3


def ring_norm(p: EisensteinPoint) -> int:
    """a^2 - ab + b^2, the squared Euclidean length of a + wb."""
    return p.a * p.a - p.a * p.b + p.b * p.b


def coordinate_norm(p: EisensteinPoint) -> int:
    """a^2 + b^2, the squared length of the coordinate pair itself."""
    return p.a * p.a + p.b * p.b


NORM_FUNCTIONS: dict = {
    "coordinate": coordinate_norm,
    "ring": ring_norm,
}


def region_points(bound: int, norm: str = "coordinate") -> tuple:
    """All lattice points with the chosen norm <= bound, sorted by (a, b)."""
    if bound < 0:
        return ()
    try:
        norm_fn: Callable = NORM_FUNCTIONS[norm]
    except KeyError:
        raise ValueError(
            f"unknown norm {norm!r}; expected one of {sorted(NORM_FUNCTIONS)}"
        ) from None
    # a^2 - ab + b^2 >= (a^2 + b^2)/2, so a box of radius isqrt(2*bound)
    # covers both norms.
    radius = math.isqrt(2 * bound) + 1
    points = []
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            p = EisensteinPoint(a, b)
            if norm_fn(p) <= bound:
                points.append(p)
    return tuple(sorted(points))
