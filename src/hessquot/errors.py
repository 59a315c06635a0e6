"""Exception types shared across the package; an AliasingFloorError's state
is as far as its grid goes, so a caller may hand it on as a start."""


class InputError(ValueError):
    """Malformed input: bad shapes, non-Hermitian matrices, bad config values."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation (cone, positivity)."""


class ConstructionError(RuntimeError):
    """A constructive search (bisection, band fitting, boundary tuning) failed."""


class NonconvergenceError(RuntimeError):
    """Iteration failed to converge; carries the last iterate for inspection."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class AliasingFloorError(NonconvergenceError):
    """Newton stopped where what is left of the residual is outside the Hessian's range."""


class ConeViolationError(RuntimeError):
    """An iterate or instance left the admissible cone; carries offending info."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail
