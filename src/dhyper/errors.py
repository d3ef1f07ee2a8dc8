"""Exception types shared across the package.

Every error that a CLI command can surface carries a process exit code so
reports stay machine-checkable.  Exit code 0 is reserved for success and 1
for a computation whose verdict is a clean "no".
"""

from __future__ import annotations


class DhyperError(Exception):
    """Base class for all domain errors."""

    exit_code = 5


class InputFormatError(DhyperError):
    """Malformed JSON or an unparseable literal."""

    exit_code = 2


class DimensionMismatchError(DhyperError):
    """Shapes of matrices, vectors or exponent tuples disagree."""

    exit_code = 3


class UnsupportedCharacterError(DhyperError):
    """The sublattice is not saturated, so a nontrivial partial character
    would be needed; only the trivial character is implemented."""

    exit_code = 4


class NotFullRankError(DhyperError):
    """A matrix fails the full-rank precondition of an operation."""


class ZeroColumnError(DhyperError):
    """A matrix has a zero column where a nonzero one is required."""


class NotMixedError(DhyperError):
    """The column span of the matrix contains a nonzero nonnegative vector."""


class DenominatorVanishedError(DhyperError):
    """A series recurrence hit a vanishing falling factorial and the retry
    budget ran out; the base exponent or parameter vector is too special."""


class CycleInconsistentError(DhyperError):
    """Series coefficients propagated along two paths disagree."""


class ZeroFactorialError(DhyperError):
    """Termwise antidifferentiation would divide by a zero falling factorial."""


class IncompatibleRecurrencesError(DhyperError):
    """Mixed-path compatibility of a multivariate recurrence failed."""


class LatticeCollisionError(DhyperError):
    """A monomial substitution mapped two exponents to the same point."""


class InconsistentCoefficientsError(DhyperError):
    """Polynomial-solution propagation met contradictory cycle constraints."""


class ResultTooLargeError(DhyperError):
    """A result holds an integer with more digits than Python's int-string
    limit lets it print; the input was valid."""


class InvariantError(DhyperError):
    """An internal consistency check failed: a bug, not a property of the
    input.  An explicit raise, so the check also runs under python -O."""
