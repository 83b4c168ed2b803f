"""Small complex linear-algebra helpers used throughout the solvers.

Everything funnels Hermitian positive-(semi)definite work through Cholesky
factorizations; explicit inverses are never formed.  Every matrix helper
acts on the last two axes, so a (K, n, n) stack is handled in one call.
"""
from __future__ import annotations

import logging

import numpy as np

from .errors import NumericalError

logger = logging.getLogger(__name__)

# Relative ridge used as a last resort when a factorization fails.
_RIDGE_SCALE = 1e-12


def adj(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Symmetrize away roundoff so Cholesky sees an exactly Hermitian matrix."""
    return 0.5 * (m + adj(m))


def chol_pd(a: np.ndarray) -> np.ndarray:
    """Cholesky factor of a Hermitian PD matrix (or stack), with a logged
    tiny-ridge retry for each matrix that fails."""
    a = hermitize(a)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        if a.ndim > 2:
            return np.stack([chol_pd(m) for m in a])
        ridge = _RIDGE_SCALE * max(float(np.trace(a).real), 1.0) / a.shape[0]
        logger.warning("cholesky failed; retrying with ridge %.3e", ridge)
        try:
            return np.linalg.cholesky(a + ridge * np.eye(a.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("matrix not positive definite even after ridge") from exc


def logdet_pd(a: np.ndarray):
    """log|A| for Hermitian PD A via the Cholesky factor; one value per matrix
    of a stack."""
    c = chol_pd(a)
    return 2.0 * np.sum(np.log(np.diagonal(c, axis1=-2, axis2=-1).real), axis=-1)


def solve_pd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B for Hermitian PD A (or a stack) through its Cholesky factor."""
    c = chol_pd(a)
    y = np.linalg.solve(c, b)
    return np.linalg.solve(adj(c), y)


def assert_finite(*arrays: np.ndarray) -> None:
    for arr in arrays:
        if not np.all(np.isfinite(arr.view(float) if np.iscomplexobj(arr) else arr)):
            raise NumericalError("non-finite values encountered")
