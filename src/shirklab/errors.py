"""Exception types shared across the package."""


class InvalidParamsError(ValueError):
    """A model parameter is non-finite or outside its hard range."""


class InadmissibleParamsError(ValueError):
    """Parameters are in range but violate an admissibility condition."""


class InvalidCurveError(ValueError):
    """A replacement-cost schedule violates its structural invariants."""


class ContractViolationError(ValueError):
    """An operation was called with inputs that break its preconditions."""


class ConvergenceError(ArithmeticError):
    """A numerical routine hit its iteration cap before reaching its tolerance."""
