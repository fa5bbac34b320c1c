"""Exception hierarchy shared across the toolkit.

Everything raised on purpose derives from LowdepthError so the CLI can map
failures to exit codes without enumerating modules: an InputError (outside
input refused) exits 2, BudgetExceeded 3, any other LowdepthError 1.
"""


class LowdepthError(Exception):
    """Base class for all toolkit errors."""


class InputError(LowdepthError):
    """Outside input the toolkit refuses (text, parameters, a formula a pass rejects)."""


class FormulaSyntaxError(InputError):
    """Malformed formula text; carries a character position when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class WellFormednessError(InputError):
    """Structurally invalid formula (bad constant-leaf placement, zero weight, ...)."""


class BudgetExceeded(LowdepthError):
    """An expansion or enumeration grew past the configured budget."""


class ModeMismatch(InputError):
    """Two formulas disagree on commutativity mode or coefficient field."""


class NotSemanticallyHomogeneous(InputError):
    """The expanded polynomial mixes degrees, so no single component covers it."""


class NotComputingH(LowdepthError):
    """A formula handed to the hard-instance checkers computes something else."""


class ParamOutOfRange(InputError):
    """Hard-instance parameters outside the supported range."""


class UniverseTooLarge(InputError):
    """The requested variable universe exceeds the configured cap."""


class InfeasibleShape(InputError):
    """Requested random formula shape cannot exist (e.g. degree above size)."""


class InternalInvariantError(LowdepthError):
    """An internal consistency check failed; indicates IR corruption, not bad input."""
