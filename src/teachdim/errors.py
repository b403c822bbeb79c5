"""Exception types shared across the package."""


class TeachdimError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(TeachdimError, ValueError):
    """An operation was called with arguments violating its precondition."""


class ParseError(TeachdimError, ValueError):
    """A text input (class file, graph file, plan file) is malformed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedPlanError(TeachdimError, ValueError):
    """A teaching plan does not cover the class's concepts exactly once."""


class InvalidPlanError(TeachdimError):
    """A structurally valid plan has a step whose set fails to teach.

    Carries the 0-based index of the first failing step and the label of a
    concept that the step's set fails to separate.
    """

    def __init__(self, step: int, witness: str, message: str):
        self.step = step
        self.witness = witness
        super().__init__(message)


class CapacityError(TeachdimError):
    """An exhaustive search was requested beyond the configured size cap."""


class SoundnessViolationError(TeachdimError):
    """A teaching set of a reduced instance failed to decode to a dominating set.

    This error is loud on purpose: it can only fire if the reduction's
    soundness guarantee is broken, so it must never be swallowed.
    """


class InvariantError(TeachdimError):
    """A result failed its re-check against the definition.

    Only a defect in this package can raise it, never bad input, so it
    reports a negative verdict instead of a usage error.
    """
