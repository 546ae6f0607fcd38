"""Array validation helpers used by the numerical modules."""

import numpy as np

from .errors import DimensionMismatchError


def as_matrix(m) -> np.ndarray:
    """Return ``m`` as a 2-D float array with at least one row and column.
    Complex entries raise, rather than lose their imaginary parts in the
    cast; a float array is returned as it is, with no copy."""
    if np.iscomplexobj(m):
        raise ValueError("matrix entries must be real")
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatchError(
            f"expected a nonempty 2-D matrix, got shape {a.shape}"
        )
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_vector(y, length=None) -> np.ndarray:
    if np.iscomplexobj(y):  # the cast would drop the imaginary parts
        raise ValueError("vector entries must be real")
    v = np.asarray(y, dtype=float).reshape(-1)
    if length is not None and v.size != length:
        raise DimensionMismatchError(f"expected a vector of length {length}, got {v.size}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v
