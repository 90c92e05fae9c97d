"""Dense complex linear algebra and entropy functionals.

All entropies are in bits (base-2 logarithms) and use the convention
0 log 0 = 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    NumericalInconsistencyError,
    OutOfRangeError,
    ValidationError,
)

# Eigenvalues below SUPPORT_CUTOFF*(largest eigenvalue) count as zero; a state
# carrying more than SUPPORT_LEAK_TOL weight on the other state's numerical
# kernel has disjoint support and infinite relative entropy.
SUPPORT_CUTOFF = 1e-12
SUPPORT_LEAK_TOL = 1e-9
NEGATIVE_FLOOR = 1e-9


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


def matrix_of(state) -> np.ndarray:
    """Unwrap a DensityMatrix-like object (anything with .matrix) to its array."""
    return np.asarray(getattr(state, "matrix", state))


def max_abs(array) -> float:
    return float(np.abs(array).max())


def is_exactly_diagonal(matrix: np.ndarray) -> bool:
    """Every off-diagonal entry is exactly zero (-0.0 counts as zero)."""
    return np.count_nonzero(matrix) == np.count_nonzero(matrix.diagonal())


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


def von_neumann_entropy(rho) -> float:
    """Entropy of a density matrix in bits: -sum(lambda log2 lambda)."""
    mat = as_complex_matrix(matrix_of(rho))
    return entropy_bits(np.linalg.eigvalsh(mat))


def relative_entropy(rho, sigma) -> float:
    """Tr rho (log2 rho - log2 sigma), or +inf on support violation.

    Eigenvalues below SUPPORT_CUTOFF times the largest one are treated as
    exact zeros; rho placing more than SUPPORT_LEAK_TOL weight on sigma's
    numerical kernel makes the divergence infinite.
    """
    rmat = as_complex_matrix(matrix_of(rho))
    smat = as_complex_matrix(matrix_of(sigma))
    if rmat.shape != smat.shape:
        raise DimensionMismatchError(
            f"state dimensions differ: {rmat.shape[0]} vs {smat.shape[0]}"
        )
    svals, svecs = np.linalg.eigh(smat)
    cutoff = SUPPORT_CUTOFF * max(float(svals[-1]), 0.0)
    support = svals > cutoff
    weights = np.real(np.einsum("ij,jk,ki->i", svecs.conj().T, rmat, svecs))
    if float(weights[~support].sum()) > SUPPORT_LEAK_TOL:
        return math.inf
    rvals = np.linalg.eigvalsh(rmat)
    rcutoff = SUPPORT_CUTOFF * max(float(rvals[-1]), 0.0)
    rpos = rvals[rvals > rcutoff]
    value = float(np.sum(rpos * np.log2(rpos)))
    value -= float(np.sum(weights[support] * np.log2(svals[support])))
    return clamp_negative(value, "relative entropy")


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p) with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRangeError(f"probability must be in [0, 1], got {p}")
    return entropy_bits([p, 1.0 - p])
