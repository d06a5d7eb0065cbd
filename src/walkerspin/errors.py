"""Exception hierarchy shared across the engine.

The command-line layer maps these onto process exit codes, so user-input
problems and internal cross-check failures must stay distinguishable.
Every InputError is a ValueError; ``poly.PoleError`` is also a
ZeroDivisionError.  Three builtin raises are kept on purpose: a
ZeroDivisionError for a zero divisor (an engine fault), and the TypeError
of ``RationalFunction.__hash__`` and KeyError of ``SpinCoefficientSet.get``
that the hash and mapping protocols ask for.

An argument that carries user data is read by the rules of ``poly.py`` or
refused with an EngineError subclass: a number is an int, a Fraction or a
finite float, never text; an ordered argument is a sequence, not a str, a
set, a mapping or an iterator; a point is four numbers.  ``Poly(terms)``
takes a mapping from four nonnegative int exponents to numbers.  A literal
in polynomial text is decimal digits that int() can read.  Engine objects
(WalkerMetric, Frame, Tetrad, Analysis, CoefficientTrace) are typed, not
checked.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine-specific errors."""


class InputError(EngineError, ValueError):
    """Malformed or out-of-contract user input."""


class DegenerateTetradError(InputError):
    """A frame whose inner products violate the null-tetrad normalization."""


class InternalInconsistencyError(EngineError):
    """Two independent internal computation routes disagreed."""
