"""Exception types shared across the package.

Each error names the contract it guards; modules raise these rather than
bare ValueError so callers (and the CLI exit-code mapping) can tell a
domain violation from a numerical failure.
"""


class HyperalphaError(Exception):
    """Base class for package errors."""


class DomainError(HyperalphaError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class EmptyPattern(HyperalphaError, ValueError):
    """Operation requires at least one point."""


class EmptyInput(HyperalphaError, ValueError):
    """Operation requires a nonempty collection."""


class Overflow(HyperalphaError, ArithmeticError):
    """Requested order, degree or exponent exceeds the supported range."""


class NoConvergence(HyperalphaError, ArithmeticError):
    """Adaptive refinement exhausted its budget before reaching tol."""


class NotPsd(HyperalphaError, ArithmeticError):
    """Matrix has negative eigenvalues beyond the clipping tolerance."""


class ZeroTransformSum(HyperalphaError, ArithmeticError):
    """All squared transforms vanished at some scale (measure-zero event)."""


class DegenerateScales(HyperalphaError, ValueError):
    """Scale list has zero variance; least-squares weights undefined."""


class WindowTooSmall(HyperalphaError, ValueError):
    """Window cannot support the requested scale range."""


class Unmatchable(HyperalphaError, RuntimeError):
    """Matching could not pair every lattice point."""
