"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class DomainError(ValueError):
    """A value lies outside the mathematical domain of an operation."""


class SupportViolationError(DomainError):
    """A distribution assigns weight where its reference has none."""


class InfeasibleTargetError(ValueError):
    """A constraint target cannot be met by any admissible posterior."""
