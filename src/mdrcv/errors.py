"""Exception hierarchy shared across the package."""


class ValidationError(ValueError):
    """Inputs violate a documented contract (domain, shape, file format)."""
