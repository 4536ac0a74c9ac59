"""Exception types shared across the package, and `_read_set_file`,
the one reader of cap and set files.

The CLI maps these onto exit codes by base class: the ValueErrors
(SetFileError, the one parse error of cap and set files; domains beyond
a size guard; mismatched dimensions) exit 1, ColoringBudgetError exits
3, and every other WicketlabError exits 2; these are the verification
failures, including a color class still holding a wicket the lister
missed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable


class WicketlabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(WicketlabError, ValueError):
    """Vectors of different dimensions were combined."""


class CapVerificationError(WicketlabError):
    """A set claimed to be progression-free contains a zero-sum triple;
    the message names the file the set was read from, if any."""

    def __init__(self, witness, path=None):
        self.witness = witness
        where = "" if path is None else f"{path}: "
        super().__init__(f"{where}set contains a progression: {witness}")


class SetFileError(WicketlabError, ValueError):
    """A cap or set file could not be read at the line it names."""


def _read_set_file(path, parse: Callable) -> tuple:
    """The sorted values of the cap or set file at `path`, by the rules
    all three formats share: the bytes are decoded strictly as UTF-8 in
    any locale, lines are stripped, blank and '#' lines skipped, and
    `parse` maps each other line to a value or raises ValueError. That,
    an undecodable byte or a value already read is a SetFileError that
    reads '<path>: line N: ...'."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise SetFileError(
            f"{path}: line {lineno}: not UTF-8: byte {data[exc.start]:#04x}"
        ) from None
    seen: dict = {}  # value -> the line it was read from
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = parse(line)
            if value in seen:
                raise ValueError(f"duplicate of line {seen[value]}: {line!r}")
        except ValueError as exc:
            raise SetFileError(f"{path}: line {lineno}: {exc}") from None
        seen[value] = lineno
    return tuple(sorted(seen))


def _ascii_int(text: str) -> int:
    """int(text) for an ASCII decimal with an optional sign: int() alone
    also reads `_` separators and non-ASCII digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return int(text)


# The most candidates a CLI domain may list: 1..n for `search ruzsa`,
# the k^2 - k + 1 residues of a modular search or build, the lattice
# points region_points scans for a disc and the 3^n vectors of a GF(3)
# build; also the most coordinates `cap lift` or `cap product` may
# write. Larger inputs are refused before anything is built.
MAX_DOMAIN_SIZE = 1_000_000


class DomainTooLargeError(WicketlabError, ValueError):
    """A domain beyond its size guard was asked for."""


class ColoringBudgetError(WicketlabError):
    """Resampling did not reach a wicket-free coloring within its budget."""

    def __init__(self, diagnostics: dict):
        self.diagnostics = diagnostics
        super().__init__(
            "resample budget exhausted "
            f"(attempts={diagnostics.get('attempts')}, "
            f"resamples={diagnostics.get('resamples')}, "
            f"violated={diagnostics.get('violated')}); retry with a new seed"
        )


class IncompleteWicketListError(WicketlabError):
    """A color class left wicket-free by the build's wicket list still
    contains a wicket, so that list was incomplete."""
