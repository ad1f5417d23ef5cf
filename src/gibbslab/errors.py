"""Exception types shared across the package."""

from __future__ import annotations


class GibbsLabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GibbsLabError, ValueError):
    """An input failed a mathematical precondition (shape, symmetry, closure, ...)."""


class NumericalGuardError(GibbsLabError):
    """A numerical guard fired: a standing cross-check of a computed quantity
    disagreed with its independent reference beyond tolerance, or a model is
    refused before it is built because its generator would not fit in the
    host's memory."""
