"""Shared exception types."""


class NonConvergenceError(RuntimeError):
    """An iterative solver failed to reach the requested tolerance."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
