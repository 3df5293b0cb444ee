"""Exceptions shared across the package."""


class BudgetExceededError(RuntimeError):
    """A bounded search ran out of its node/step budget (no partial answer)."""

    def __init__(self, message, budget=None):
        super().__init__(message)
        self.budget = budget


class DocumentError(ValueError):
    """A JSON input document is malformed or violates its schema."""


class NotPositiveDefiniteError(ValueError):
    """A Gram matrix that must be positive definite is not."""
