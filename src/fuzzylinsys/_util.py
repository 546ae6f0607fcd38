"""Array validation helpers used by the numerical modules."""

import reprlib
import sys
from numbers import Real

import numpy as np

from .errors import DimensionMismatchError


def as_real(v, what: str) -> float:
    """``v`` as a float: a bool, an int or a float (Python or numpy) within
    the float range.  Anything else, a string, a complex number, ``None`` or
    an int beyond the float range among them, raises a ``ValueError`` that
    names it."""
    if isinstance(v, (Real, np.bool_)):
        try:
            return float(v)
        except OverflowError:
            pass
    raise ValueError(f"{what} must be real numbers within the float range, got {reprlib.repr(v)}")


def _as_floats(x, what: str) -> np.ndarray:
    """``x`` as a float array.  A float64 ndarray is returned as it is, after
    one dtype test; bool, integer and float dtypes are cast, and an object
    array (say one holding an int beyond int64, such as ``2**70``) is
    converted one element at a time by :func:`as_real`.  A masked array,
    whose mask the conversion would drop, and any other dtype (strings,
    bytes, complex) raise a ``ValueError``."""
    # only code that imported numpy.ma can hold a masked array, and
    # reading np.ma would import it, which costs a cold start about 20 ms
    ma = sys.modules.get("numpy.ma")
    if ma is not None and isinstance(x, ma.MaskedArray):
        raise ValueError(f"{what} must not be masked")
    a = np.asarray(x)
    if a.dtype == float:
        return a
    if a.dtype.kind == "O":
        return np.array([as_real(v, what) for v in a.flat], dtype=float).reshape(a.shape)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be real, got dtype {a.dtype}")
    return a.astype(float)


def as_matrix(m) -> np.ndarray:
    """Return ``m`` as a 2-D float array with at least one row and column
    (see :func:`_as_floats`).  Complex entries raise, rather than lose their
    imaginary parts in the cast; a float array is returned as it is, with no
    copy."""
    a = _as_floats(m, "matrix entries")
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
    v = _as_floats(y, "vector entries").reshape(-1)
    if length is not None and v.size != length:
        raise DimensionMismatchError(f"expected a vector of length {length}, got {v.size}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v
