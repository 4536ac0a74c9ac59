"""Vectors over GF(3) and progression-free sets (caps).

A cap is a subset of F_3^n with no three distinct elements summing to
zero; over F_3 that is the same as containing no 3-term arithmetic
progression and no affine line.

Vectors are tuples of ints in {0,1,2}, most significant coordinate
first, so `encode` orders them the same way as base-3 integers.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .errors import (
    CapFileError,
    CapVerificationError,
    DimensionMismatchError,
    DomainTooLargeError,
)

Vec = tuple[int, ...]

# Exhaustive cap search degrades quickly with dimension; 3 is the last
# dimension where the branch and bound from an affine frame is known to
# stay interactive.
MAX_EXACT_CAP_DIMENSION = 3


def f3_add(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatchError(f"dimension {len(a)} vs {len(b)}")
    return tuple((x + y) % 3 for x, y in zip(a, b))


def f3_neg(a: Vec) -> Vec:
    return tuple((-x) % 3 for x in a)


def f3_scale(c: int, a: Vec) -> Vec:
    return tuple((c * x) % 3 for x in a)


def encode(vec: Vec) -> int:
    """Base-3 value of a vector, most significant coordinate first."""
    value = 0
    for x in vec:
        value = value * 3 + x
    return value


def decode(value: int, dimension: int) -> Vec:
    if value < 0 or value >= 3**dimension:
        raise ValueError(f"{value} out of range for dimension {dimension}")
    digits = []
    for _ in range(dimension):
        digits.append(value % 3)
        value //= 3
    return tuple(reversed(digits))


def all_vectors(dimension: int) -> Iterator[Vec]:
    """All of F_3^n in ascending `encode` order."""
    return itertools.product(range(3), repeat=dimension)


def vec_to_string(vec: Vec) -> str:
    return "".join(str(x) for x in vec)


def string_to_vec(text: str) -> Vec:
    if not all(ch in "012" for ch in text):
        raise ValueError(f"invalid base-3 digits: {text!r}")
    return tuple(int(ch) for ch in text)


class CapSet:
    """A finite subset of F_3^n, optionally verified progression-free.
    Caps are equal when dimension, elements and `verified` agree."""

    def __init__(
        self, dimension: int, elements: frozenset, verified: bool = False
    ):
        self.dimension = dimension
        self.elements = elements
        self.verified = verified

    def _key(self) -> tuple:
        return (self.dimension, self.elements, self.verified)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, vec: Vec) -> bool:
        return vec in self.elements

    def __iter__(self) -> Iterator[Vec]:
        return iter(self.sorted_elements)

    @cached_property
    def sorted_elements(self) -> tuple:
        return tuple(sorted(self.elements, key=encode))


def _lines(points: list) -> Iterator[tuple]:
    """Index triples i < j < k of the lines {a, b, -a-b} among the
    distinct `points`, which are in encode order, in (i, j) order."""
    index = {p: k for k, p in enumerate(points)}
    for i, a in enumerate(points):
        for j in range(i + 1, len(points)):
            k = index.get(f3_neg(f3_add(a, points[j])), -1)
            if k > j:  # each line once, from its two lowest points
                yield i, j, k


def find_ap3(elements: Iterable[Vec]) -> Optional[tuple]:
    """First zero-sum triple of distinct elements, or None.

    Over F_3 three distinct points sum to zero exactly when they form a
    line, so scanning pairs and completing each to its line is enough.
    The witness is returned sorted by encode order.
    """
    ordered = sorted(set(elements), key=encode)
    for i, j, k in _lines(ordered):
        return ordered[i], ordered[j], ordered[k]
    return None


def verify_cap(dimension: int, elements: Iterable[Vec]) -> CapSet:
    """Validate ranges and progression-freeness, returning a verified CapSet."""
    elems = frozenset(elements)
    for vec in elems:
        if len(vec) != dimension:
            raise DimensionMismatchError(
                f"element {vec} has dimension {len(vec)}, expected {dimension}"
            )
        if not all(0 <= x <= 2 for x in vec):
            raise ValueError(f"element {vec} has coordinates outside GF(3)")
    witness = find_ap3(elems)
    if witness is not None:
        raise CapVerificationError(witness)
    return CapSet(dimension=dimension, elements=elems, verified=True)


def product_cap(left: CapSet, right: CapSet) -> CapSet:
    """Concatenate coordinates; the product of two caps is again a cap."""
    if not (left.verified and right.verified):
        raise ValueError("product_cap needs verified inputs")
    elems = frozenset(a + b for a in left.elements for b in right.elements)
    # A zero-sum triple in the product projects to zero-sum (or constant)
    # triples in each factor, which verified caps rule out.
    return CapSet(
        dimension=left.dimension + right.dimension,
        elements=elems,
        verified=True,
    )


def lift_cap(cap: CapSet, dimension: int) -> CapSet:
    """Left-pad with zero coordinates up to the requested dimension."""
    if not cap.verified:
        raise ValueError("lift_cap needs a verified input")
    if dimension < cap.dimension:
        raise ValueError("cannot lift to a smaller dimension")
    pad = (0,) * (dimension - cap.dimension)
    elems = frozenset(pad + v for v in cap.elements)
    return CapSet(dimension=dimension, elements=elems, verified=True)


def max_cap_exact(dimension: int) -> CapSet:
    """A maximum cap in F_3^n found by exhaustive branch and bound (n <= 3).

    The search is the one behind `max_free_exhaustive`, over the points
    in encode order with the lines {a, b, -a-b} as forbidden sets. It
    starts from the affine frame 0, e_1, ..., e_n chosen and returns the
    first maximum cap in depth-first order that contains the frame.

    Some maximum cap contains the frame. The largest cap size grows
    strictly with n (a cap C in F_3^(n-1) gives the cap C x {0, 1}), so
    a maximum cap lies in no affine hyperplane, which holds a cap of
    dimension n - 1 at most. It therefore contains n + 1 affinely
    independent points p_0, ..., p_n. The invertible affine map sending
    p_0 to 0 and each p_i - p_0 to e_i maps lines to lines, hence this
    cap to a maximum cap through the frame.
    """
    if dimension < 0:
        raise ValueError("dimension must be nonnegative")
    if dimension > MAX_EXACT_CAP_DIMENSION:
        raise DomainTooLargeError(
            f"exact cap search supports dimension <= {MAX_EXACT_CAP_DIMENSION}"
        )
    if dimension == 0:
        return CapSet(0, frozenset({()}), True)
    # imported here so that loading a cap does not load the search layer
    from .eqfree import _max_free_mask

    size = 3**dimension
    vecs = [decode(i, dimension) for i in range(size)]
    lines = [1 << i | 1 << j | 1 << k for i, j, k in _lines(vecs)]
    frame = 1 | sum(1 << 3**i for i in range(dimension))  # 0 and the e_i
    best = _max_free_mask(lines, size, frame)
    return CapSet(
        dimension, frozenset(v for i, v in enumerate(vecs) if best >> i & 1), True
    )


def parse_cap_text(text: str) -> CapSet:
    """Parse the base-3 line format and verify progression-freeness.

    One element per line, most significant digit first; blank lines and
    lines starting with '#' are ignored. The first data line fixes the
    dimension. An empty file is the empty cap in dimension 0.
    """
    dimension: Optional[int] = None
    elements: list[Vec] = []
    seen: set[Vec] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not all(ch in "012" for ch in line):
            raise CapFileError(f"invalid base-3 digits {line!r}", lineno)
        if dimension is None:
            dimension = len(line)
        elif len(line) != dimension:
            raise CapFileError(
                f"expected {dimension} digits, got {len(line)}", lineno
            )
        vec = string_to_vec(line)
        if vec in seen:
            raise CapFileError(f"duplicate element {line!r}", lineno)
        seen.add(vec)
        elements.append(vec)
    if dimension is None:
        return CapSet(0, frozenset(), True)
    return verify_cap(dimension, elements)


def load_cap_file(path) -> CapSet:
    return parse_cap_text(Path(path).read_text())


def write_cap_file(cap: CapSet, path) -> None:
    lines = [vec_to_string(v) for v in cap.sorted_elements]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
