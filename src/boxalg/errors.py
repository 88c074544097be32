"""Exception hierarchy shared by all boxalg modules."""


class BoxAlgError(Exception):
    """Base class for all boxalg errors."""


class DomainError(BoxAlgError, ValueError):
    """Input violates a documented precondition (shape, sign, range)."""


class CapacityError(BoxAlgError):
    """A request exceeds a configured cap.

    Matrices above the determinant or characteristic size cap are refused
    outright rather than attempted; the cap can be raised explicitly by the
    caller (or via BOXALG_CAP in the CLI). The CLI also raises it for a
    result with more digits than Python converts to a string.
    """


class DegenerateConfigurationError(DomainError):
    """A geometric construction received a configuration with determinant 0."""


class ConvergenceError(BoxAlgError):
    """An iterative computation failed to converge within its budget."""
