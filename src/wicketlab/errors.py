"""Exception types shared across the package.

The CLI maps these onto exit codes: cap and set files that cannot be
parsed and domains beyond a size guard exit 1, verification failures
(including a coloring whose wicket list proves incomplete) exit 2,
exhausted budgets exit 3.
"""

from __future__ import annotations


class WicketlabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(WicketlabError, ValueError):
    """Vectors of different dimensions were combined."""


class _ParseError(WicketlabError, ValueError):
    """An input file could not be parsed; `line` is 1-based or None."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapFileError(_ParseError):
    """A cap file could not be parsed."""


class CapVerificationError(WicketlabError):
    """A set claimed to be progression-free contains a zero-sum triple."""

    def __init__(self, witness, message: str = "set contains a progression"):
        self.witness = witness
        super().__init__(f"{message}: {witness}")


class SetFileError(_ParseError):
    """A set file (integers or lattice pairs) could not be parsed."""


class DomainTooLargeError(WicketlabError, ValueError):
    """Exhaustive search was asked for on a domain beyond its size guard."""


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
    """A color class left wicket-free by the given wicket list still
    contains a wicket, so that list was incomplete."""
