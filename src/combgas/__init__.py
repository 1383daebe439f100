"""Spectral and thermodynamic toolkit for perturbed graphs and comb lattices."""

__version__ = "0.1.0"


class DomainError(ValueError):
    """The input lies outside a computation's domain (CLI exit 1)."""


class NumericFailure(ArithmeticError):
    """A computation on valid input did not reach its stated accuracy
    (CLI exit 2)."""
