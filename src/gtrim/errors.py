"""Errors for violated mathematical preconditions.

The CLI maps PreconditionError (and subclasses) to exit code 3; plain
argument problems stay with argparse's exit code 2.
"""

from __future__ import annotations


class PreconditionError(ValueError):
    """A mathematical precondition does not hold for the given input."""


class NonHomogeneousError(PreconditionError):
    """A generator is not homogeneous; only graded input is supported."""


class NotNPrimaryError(PreconditionError):
    """The quotient is not artinian: some variable has no pure power leading term."""


class UnitIdealError(PreconditionError):
    """The ideal is the whole ring: a generator is a nonzero constant."""


class ClassificationScopeError(PreconditionError):
    """The ideal has a degree-1 minimal generator, outside the classification's scope."""


class QuotientTooLargeError(PreconditionError):
    """The input exceeds the bound on dim R: a generator's degree or the count
    of standard monomials is above it."""
