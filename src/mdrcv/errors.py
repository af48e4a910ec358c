"""Exception hierarchy shared across the package."""


class MdrError(Exception):
    """Base class for all package errors."""


class ValidationError(MdrError, ValueError):
    """Inputs violate a documented contract (domain, shape, file format)."""


class NearSingularMatrixError(MdrError):
    """Matrix inverse square root blocked by a near-zero eigenvalue."""
