"""Exception hierarchy shared across the package."""


class MdrError(Exception):
    """Base class for all package errors."""


class ValidationError(MdrError, ValueError):
    """Inputs violate a documented contract (domain, shape, file format)."""


class DegenerateLabelsError(MdrError):
    """A label class is empty where a nondegenerate sample is required."""


class ZeroScaleError(MdrError):
    """A plug-in scale of zero leaves a self-normalized deviation undefined."""


class NearSingularMatrixError(MdrError):
    """Matrix inverse square root blocked by a near-zero eigenvalue."""
