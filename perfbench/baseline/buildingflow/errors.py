"""Exceptions shared across the package."""


class UnsupportedFieldError(ValueError):
    """Requested field size has no bundled or supplied irreducible polynomial."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed the configured leaf budget.

    Carries ``leaves``, the exact number of leaves the run would visit.
    """

    def __init__(self, leaves: int, limit: int):
        self.leaves = leaves
        self.limit = limit
        super().__init__(
            f"enumeration refused: {leaves} leaves exceed the budget of {limit}"
        )


class InternalConsistencyError(RuntimeError):
    """Two routes that must agree produced different answers.

    Raised instead of silently repairing; the message names the witnesses.
    """
