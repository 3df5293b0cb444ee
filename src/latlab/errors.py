"""Exceptions shared across the package, and the default search budget."""

DEFAULT_NODE_BUDGET = 1_000_000


class BudgetExceededError(RuntimeError):
    """A bounded search ran out of its node/step budget.

    ``nodes`` is the number of nodes it visited and ``best`` the best
    (value, witness) it had found, where the search reports them (the
    shortest-vector enumeration does); otherwise both are None.
    """

    def __init__(self, message, budget=None, nodes=None, best=None):
        super().__init__(message)
        self.budget = budget
        self.nodes = nodes
        self.best = best


class DocumentError(ValueError):
    """A JSON input document is malformed or violates its schema."""


class NotPositiveDefiniteError(ValueError):
    """A Gram matrix that must be positive definite is not."""
