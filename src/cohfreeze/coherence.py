"""The computable coherence panel: l1 norm and relative entropy of coherence.

The relative entropy of coherence is evaluated in closed form as
S(diag(rho)) - S(rho); the defining minimization over incoherent states is
retained only as a cross-check, since the dephased state attains the minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NumericalInconsistencyError,
)
from .linalg import (
    clamp_negative,
    entropy_bits,
    is_exactly_diagonal,
)
from .states import DensityMatrix, dephase

CROSS_CHECK_TOL = 1e-8
SUPPORT_CUTOFF = 1e-12  # eigenvalues below it times the largest count as zero
SUPPORT_LEAK_TOL = 1e-9  # rho's weight on sigma's kernel that keeps D finite


@dataclass(frozen=True)
class CoherenceReport:
    """Panel values for one state; both measures are non-negative."""

    c_l1: float
    c_rel_ent: float
    cross_check_residual: float


def c_l1(rho: DensityMatrix) -> float:
    """Sum of moduli of the off-diagonal entries."""
    mods = np.abs(rho.matrix)
    np.fill_diagonal(mods, 0.0)
    return float(mods.sum())


def c_rel_ent(rho: DensityMatrix) -> float:
    """S(diag(rho)) - S(rho), in bits; S(rho) from the spectrum that
    validation stored on rho."""
    if is_exactly_diagonal(rho.matrix):
        return 0.0
    diag_entropy = entropy_bits(rho.matrix.diagonal().real)
    value = diag_entropy - entropy_bits(rho.eigenvalues)
    return clamp_negative(value, "relative entropy of coherence")


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr rho (log2 rho - log2 sigma) in bits, from rho's stored spectrum,
    or +inf when rho places more than SUPPORT_LEAK_TOL weight on sigma's
    kernel (eigenvalues below SUPPORT_CUTOFF times the largest one)."""
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(
            f"state dimensions differ: {rho.dim} vs {sigma.dim}"
        )
    if is_exactly_diagonal(sigma.matrix):
        # The eigenvectors are basis vectors, in eigh's ascending order; equal
        # entries may come in another order, which moves only the last bits.
        svals = sigma.eigenvalues
        order = np.argsort(sigma.matrix.diagonal().real, kind="stable")
        weights = rho.matrix.diagonal().real[order]
    else:
        svals, svecs = np.linalg.eigh(sigma.matrix)
        weights = np.einsum("ij,jk,ki->i", svecs.conj().T, rho.matrix, svecs).real
    cutoff = SUPPORT_CUTOFF * max(float(svals[-1]), 0.0)
    support = svals > cutoff
    if float(weights[~support].sum()) > SUPPORT_LEAK_TOL:
        return math.inf
    rvals = rho.eigenvalues
    rcutoff = SUPPORT_CUTOFF * max(float(rvals[-1]), 0.0)
    rpos = rvals[rvals > rcutoff]
    value = float(np.sum(rpos * np.log2(rpos)))
    value -= float(np.sum(weights[support] * np.log2(svals[support])))
    return clamp_negative(value, "relative entropy")


def measure_panel(rho: DensityMatrix) -> CoherenceReport:
    """Evaluate both measures plus the closed-form/definition cross-check."""
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
