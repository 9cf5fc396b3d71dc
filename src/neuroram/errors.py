"""Exception types shared across the toolkit."""


class InvalidParameterError(ValueError):
    """An argument violates an operation's precondition."""


class ResourceBudgetError(RuntimeError):
    """An operation would exceed its fixed size or combinatorial budget."""


class SchemaError(ValueError):
    """A serialized artifact is malformed; the message names the offending path."""
