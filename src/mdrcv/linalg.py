"""Inverse square root of small symmetric positive-definite matrices, the
covariance estimates used to whiten a handful of subsets' deviations."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

MIN_EIGENVALUE = 1e-8


def _check_symmetric(a: np.ndarray) -> np.ndarray:
    m = np.array(a, dtype=np.float64)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"expected square matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix contains non-finite entries")
    t = m.swapaxes(-1, -2)
    if not np.allclose(m, t, atol=1e-10, rtol=0.0):
        raise ValidationError("matrix is not symmetric")
    return (m + t) / 2.0


def inv_sqrt_symmetric(a: np.ndarray) -> np.ndarray:
    """Inverse square root of a symmetric positive-definite matrix, or of
    each matrix in a (..., S, S) stack.

    A matrix with an eigenvalue below MIN_EIGENVALUE, for which whitening is
    meaningless, gets an all-NaN result; the others are unaffected.
    """
    vals, vecs = np.linalg.eigh(_check_symmetric(a))
    ok = (vals >= MIN_EIGENVALUE).all(-1, keepdims=True)
    inv = np.where(ok, 1.0 / np.sqrt(np.where(ok, vals, 1.0)), np.nan)
    return (vecs * inv[..., None, :]) @ vecs.swapaxes(-1, -2)
