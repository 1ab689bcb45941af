"""Exception types shared across the package."""


class EvolAlgError(Exception):
    """Base class for every error raised by this package."""


class FieldError(EvolAlgError, ValueError):
    """Invalid scalar or modulus."""


class DimensionError(EvolAlgError, ValueError):
    """Shape or length mismatch between operands."""


class PreconditionError(EvolAlgError, ValueError):
    """An operation was called on input that violates its contract."""


class ParseError(EvolAlgError, ValueError):
    """Malformed input document.

    ``line`` is the 1-based line number of the offending input, when known.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class BudgetExceededError(EvolAlgError, RuntimeError):
    """A brute-force enumeration would exceed its configured budget."""


class InternalConsistencyError(EvolAlgError, RuntimeError):
    """A cross-check that must hold by construction failed; this is a bug,
    never a user error."""
