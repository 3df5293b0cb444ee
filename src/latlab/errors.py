"""Exceptions shared across the package, and the default search budget."""

DEFAULT_NODE_BUDGET = 1_000_000


class BudgetExceededError(RuntimeError):
    """A bounded search ran out of its node/step budget.

    ``nodes`` is the number of nodes it visited and ``best`` the best
    (value, witness) it had found, where the search reports them; otherwise
    they are None.  The shortest-vector enumeration reports both.  The
    isotropic search reports ``nodes``, the box points it counted: the
    budget when its scan stops, 0 when one coordinate's box or its tables
    alone exceed the budget; it has no best value, so ``best`` stays None.
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
