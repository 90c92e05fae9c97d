"""The computable coherence panel: l1 norm and relative entropy of coherence.

The relative entropy of coherence is evaluated in closed form as
S(diag(rho)) - S(rho); the defining minimization over incoherent states is
retained only as a cross-check, since the dephased state attains the minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalInconsistencyError
from .linalg import (
    clamp_negative,
    entropy_bits,
    is_exactly_diagonal,
    relative_entropy,
)
from .states import DensityMatrix, dephase

CROSS_CHECK_TOL = 1e-8


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
