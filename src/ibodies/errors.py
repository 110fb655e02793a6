"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SideRequired(ValueError):
    """A one-sided evaluation (left/right) is needed at a non-smooth point."""


class SmoothnessError(ArithmeticError):
    """A required (one-sided) derivative does not exist or is unbounded."""


class FlatTopRequired(ValueError):
    """The flat-top hypothesis rho(1) + rho'(1) = 0 does not hold."""


class NoConvergence(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class InvalidBracket(ValueError):
    """A root bracket does not have opposite signs at its ends."""


class InvalidParam(ValueError):
    """A family parameter is outside its admissible range."""


class InsufficientSamples(ValueError):
    """Too few Monte Carlo samples were requested."""


class ProfileFormatError(ValueError):
    """A profile description (JSON / prefix expression) cannot be parsed."""
