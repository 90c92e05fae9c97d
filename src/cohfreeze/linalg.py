"""Dense complex linear algebra and entropy functionals.

All entropies are in bits (base-2 logarithms) and use the convention
0 log 0 = 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionTooLargeError,
    NumericalInconsistencyError,
    OutOfRangeError,
    ValidationError,
)

MAX_DIM = 64
NEGATIVE_FLOOR = 1e-9
SUPPORT_CUTOFF = 1e-12  # values at or below it times the largest count as zero


def check_unit_interval(name: str, value: float) -> float:
    """value as a float, refused unless it is in [0, 1] (NaN fails too)."""
    if not 0.0 <= value <= 1.0:
        raise OutOfRangeError(f"{name} must be in [0, 1], got {value}")
    return float(value)


def check_tolerance(name: str, value: float) -> float:
    """value, refused unless it is finite and positive (NaN fails too)."""
    if not 0.0 < value < np.inf:
        raise OutOfRangeError(f"{name} must be finite and positive, got {value}")
    return value


def check_dimension(dim: int) -> None:
    """Refuse a dimension above MAX_DIM before anything that size is built."""
    if dim > MAX_DIM:
        raise DimensionTooLargeError(
            f"dimension {dim} exceeds the supported maximum {MAX_DIM}"
        )


def check_qubits(num_qubits: int) -> None:
    """As check_dimension for dimension 2**num_qubits, without computing the
    power of an arbitrarily large count."""
    if num_qubits > math.log2(MAX_DIM):
        raise DimensionTooLargeError(
            f"dimension 2^{num_qubits} exceeds the supported maximum {MAX_DIM}"
        )


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


def _parity_lines(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(masks, lines): line P of a d x d matrix holds matrix[i, i ^ P], and
    the kept lines, in ascending P, are P = 0 (the diagonal), P = d-1 (the
    anti-diagonal) and every line with a nonzero entry. d must be a power
    of two, as under qubit factors. An X matrix (every entry off its
    diagonal and anti-diagonal exactly zero) is its lines 0 and d-1, found
    by counting its nonzero entries, without gathering the others."""
    d = len(matrix)
    ends = np.array([0, d - 1])
    lines = np.stack([matrix.diagonal(), matrix[:, ::-1].diagonal()])
    if np.count_nonzero(matrix) == np.count_nonzero(lines):
        return ends, lines
    i = np.arange(d)
    lines = matrix.ravel().take(i * d + (i ^ i[:, None]))
    kept = lines.any(axis=1)
    kept[ends] = True
    masks = np.flatnonzero(kept)
    return masks, lines[masks]


def _parity_matrix(masks: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """The d x d matrix whose _parity_lines are (masks, lines); every line
    not listed is zero."""
    d = lines.shape[1]
    i = np.arange(d)
    matrix = np.zeros((d, d), np.complex128)
    matrix[i, i ^ masks[:, None]] = lines
    return matrix


def support(values: np.ndarray) -> np.ndarray:
    """Mask of the entries above SUPPORT_CUTOFF times the largest (if > 0)."""
    return values > SUPPORT_CUTOFF * max(float(values.max()), 0.0)


def offdiagonal_l1(matrix: np.ndarray) -> float:
    """Sum of the moduli of the off-diagonal entries."""
    moduli = np.abs(matrix)
    np.fill_diagonal(moduli, 0.0)
    return float(moduli.sum())


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
    p = check_unit_interval("probability", p)
    return entropy_bits([p, 1.0 - p])
