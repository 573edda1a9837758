"""Diagnostic exception classes shared across the package."""


class LoopcertError(Exception):
    """Base class for all package errors."""


class ValidationError(LoopcertError):
    """Structural data failed a construction-time check (closure, form, ...)."""


class TruncationError(LoopcertError):
    """A computation would exceed the declared truncation level."""


class RegularityError(LoopcertError):
    """A torus element / Cartan vector fails a required regularity condition."""


class BoundsError(LoopcertError):
    """A job parameter is outside its documented bounds."""


class OutputError(LoopcertError):
    """The report cannot be written to the requested path."""
