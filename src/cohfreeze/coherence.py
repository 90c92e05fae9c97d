"""The computable coherence panel: l1 norm and relative entropy of coherence.

The relative entropy of coherence is evaluated in closed form as
S(diag(rho)) - S(rho). measure_panel compares it with the defining
relative entropy at the dephased state, which attains the minimum over
incoherent states. Both sides read S(rho) from the spectrum that validation
stored on rho, so the residual catches summation and support errors, but
not a wrong stored spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NumericalInconsistencyError,
)
from .linalg import clamp_negative, entropy_bits, is_exactly_diagonal, offdiagonal_l1, support
from .states import DensityMatrix, dephase

CROSS_CHECK_TOL = 1e-8
SUPPORT_LEAK_TOL = 1e-9  # rho's weight on sigma's kernel that keeps D finite


@dataclass(frozen=True)
class CoherenceReport:
    """Panel values for one state; both measures are non-negative."""

    c_l1: float
    c_rel_ent: float
    cross_check_residual: float


def c_l1(rho: DensityMatrix) -> float:
    """Sum of moduli of the off-diagonal entries."""
    return offdiagonal_l1(rho.matrix)


def c_rel_ent(rho: DensityMatrix) -> float:
    """S(diag(rho)) - S(rho), in bits; S(rho) from the spectrum that
    validation stored on rho."""
    if is_exactly_diagonal(rho.matrix):
        return 0.0
    return _entropy_gap(rho.matrix.diagonal().real, rho.eigenvalues)


def _entropy_gap(diagonal: np.ndarray, spectrum: np.ndarray) -> float:
    """S(diagonal) - S(spectrum) in bits, the closed form of C_r for a state
    with some nonzero off-diagonal entry."""
    value = entropy_bits(diagonal) - entropy_bits(spectrum)
    return clamp_negative(value, "relative entropy of coherence")


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr rho (log2 rho - log2 sigma) in bits, from rho's stored spectrum,
    or +inf when rho places more than SUPPORT_LEAK_TOL weight on sigma's
    kernel (the eigenvalues outside linalg.support)."""
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(
            f"state dimensions differ: {rho.dim} vs {sigma.dim}"
        )
    if is_exactly_diagonal(sigma.matrix):
        svals = sigma.matrix.diagonal().real
        weights = rho.matrix.diagonal().real
    else:
        svals, svecs = np.linalg.eigh(sigma.matrix)
        weights = np.einsum("ij,jk,ki->i", svecs.conj().T, rho.matrix, svecs).real
    kept = support(svals)
    if float(weights[~kept].sum()) > SUPPORT_LEAK_TOL:
        return math.inf
    rpos = rho.eigenvalues[support(rho.eigenvalues)]
    value = float(np.sum(rpos * np.log2(rpos)))
    value -= float(np.sum(weights[kept] * np.log2(svals[kept])))
    return clamp_negative(value, "relative entropy")


def measure_panel(rho: DensityMatrix) -> CoherenceReport:
    """Evaluate both measures, and the residual between the closed form and
    relative_entropy(rho, dephase(rho)): both read rho.eigenvalues, so it
    catches summation and support errors, not a wrong stored spectrum."""
    closed_form = c_rel_ent(rho)
    definitional = relative_entropy(rho, dephase(rho))
    residual = abs(definitional - closed_form)
    if residual > CROSS_CHECK_TOL:
        raise NumericalInconsistencyError(
            f"closed-form vs definitional mismatch: {residual:.3e}"
        )
    return CoherenceReport(
        c_l1=c_l1(rho),
        c_rel_ent=closed_form,
        cross_check_residual=residual,
    )
