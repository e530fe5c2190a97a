"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An operation was called outside its contract (bad shape, bad range,
    violated precondition)."""


class EnumerationLimitError(ContractViolation):
    """Exact support enumeration would exceed the budget; use the randomized
    lower bound instead."""


class NotApplicableError(ContractViolation):
    """A guarantee's constants were requested outside the regime where the
    guarantee holds."""
