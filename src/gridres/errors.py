"""Exception types shared across the package."""


class GridResError(Exception):
    """Base class for all errors raised by gridres."""


class InvalidFamily(GridResError):
    """A graph descriptor violates its construction invariants."""


class SizeExceeded(GridResError):
    """Requested computation is above a configured size cap."""


class DisconnectedGraph(GridResError):
    """More than one null Laplacian mode was detected."""


class SingularSystem(DisconnectedGraph):
    """The grounded linear system is singular; the graph is disconnected."""


class DisconnectedSpectrum(DisconnectedGraph):
    """A spectrum stream carries more than one zero eigenvalue."""


class Overflow(GridResError):
    """A value would leave the exact integer range or the float range."""


class NonIntegralSides(GridResError):
    """Scaling-scenario side lengths are not integers."""


class DivergentIntegral(GridResError):
    """The continuum integral diverges for the requested dimension."""


class InsufficientBudget(GridResError):
    """The evaluation budget is too small for the requested estimator."""


class SingularPoint(GridResError):
    """The integrand was evaluated at a lattice image of the origin."""


class InsufficientData(GridResError):
    """Too few data rows to fit the requested model."""
