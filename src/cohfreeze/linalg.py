"""Dense complex linear algebra and entropy functionals.

All entropies are in bits (base-2 logarithms) and use the convention
0 log 0 = 0.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    NumericalInconsistencyError,
    OutOfRangeError,
    ValidationError,
)

NEGATIVE_FLOOR = 1e-9
SUPPORT_CUTOFF = 1e-12  # values at or below it times the largest count as zero


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce to a dense square complex matrix, rejecting NaN/Inf entries."""
    mat = np.asarray(entries, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] == 0:
        raise ValidationError("matrix must have positive dimension")
    if not np.isfinite(mat).all():
        raise ValidationError("matrix entries must be finite")
    return mat


def max_abs(array) -> float:
    return float(np.abs(array).max())


def is_exactly_diagonal(matrix: np.ndarray) -> bool:
    """Every off-diagonal entry is exactly zero (-0.0 counts as zero)."""
    return np.count_nonzero(matrix) == np.count_nonzero(matrix.diagonal())


def support(values: np.ndarray) -> np.ndarray:
    """Mask of the entries above SUPPORT_CUTOFF times the largest (if > 0)."""
    return values > SUPPORT_CUTOFF * max(float(values.max()), 0.0)


def offdiagonal_l1(matrix: np.ndarray) -> float:
    """Sum of the moduli of the off-diagonal entries."""
    moduli = np.abs(matrix)
    np.fill_diagonal(moduli, 0.0)
    return float(moduli.sum())


def hermiticity_defect(matrix: np.ndarray) -> float:
    return max_abs(matrix - matrix.conj().T)


def clamp_negative(value: float, quantity: str) -> float:
    """A non-negative quantity computed as value: 0.0 in place of a
    rounding-level negative value, NumericalInconsistencyError below
    -NEGATIVE_FLOOR, and value itself otherwise (-0.0 included)."""
    if value < 0.0:
        if value < -NEGATIVE_FLOOR:
            raise NumericalInconsistencyError(f"{quantity} came out {value:.3e}")
        return 0.0
    return value


def entropy_bits(probabilities) -> float:
    """Shannon entropy of a (sub)distribution in bits, ignoring p <= 0."""
    p = np.asarray(probabilities, dtype=np.float64)
    p = p[p > 0.0]
    if p.size == 0:
        return 0.0
    value = float(-np.sum(p * np.log2(p)))
    return clamp_negative(value, "entropy") + 0.0  # normalizes -0.0


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p) with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRangeError(f"probability must be in [0, 1], got {p}")
    return entropy_bits([p, 1.0 - p])
