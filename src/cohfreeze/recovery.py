"""Incoherent recovery maps and freezing certificates.

For a channel with Kraus operators K_n and a diagonal reference state d0 with
image dt = channel(d0), the recovery map has operators

    R_n = d0^(1/2) K_n^dag dt^(-1/2)

where dt^(-1/2) inverts only the nonzero diagonal entries. When dt is
singular the projector onto its kernel is appended, which restores trace
preservation. Reversing the evolution with such a map, itself incoherent,
pins every coherence measure between its initial and final values, so a
successful round trip certifies freezing of all measures at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelClass,
    ChannelClassification,
    ClassificationWitness,
    KrausChannel,
    apply_channel,
    classify,
)
from .coherence import c_l1, c_rel_ent
from .errors import (
    NotDiagonalError,
    NotIncoherentChannelError,
    NotStrictlyIncoherentError,
    NumericalInconsistencyError,
    OutOfRangeError,
)
from .linalg import max_abs
from .states import DensityMatrix, dephase

KERNEL_CUTOFF = 1e-12  # relative to the largest diagonal entry
CERTIFICATE_TOL = 1e-8


def petz_recovery(channel: KrausChannel, delta0: DensityMatrix) -> KrausChannel:
    """Recovery channel for an incoherent channel and diagonal reference.

    Requires delta0 diagonal and the channel at least incoherent (so that the
    evolved reference stays diagonal). The result is trace preserving by
    construction; when the input channel is strictly incoherent the recovery
    operators are incoherent as well.
    """
    if not delta0.is_diagonal():
        raise NotDiagonalError("reference state must be diagonal")
    classification = classify(channel)
    if classification.channel_class is ChannelClass.NOT_INCOHERENT:
        raise NotIncoherentChannelError(
            "channel is not incoherent: " + classification.witness.describe()
        )
    delta_t = apply_channel(channel, delta0)
    if not delta_t.is_diagonal():
        raise NotDiagonalError("evolved reference state is not diagonal")
    d0 = np.clip(delta0.matrix.diagonal().real, 0.0, None)
    dt = np.clip(delta_t.matrix.diagonal().real, 0.0, None)
    kernel = dt <= KERNEL_CUTOFF * float(dt.max())
    inv_sqrt = np.where(kernel, 0.0, 1.0 / np.sqrt(np.where(kernel, 1.0, dt)))
    sqrt0 = np.sqrt(d0)
    ops = [
        sqrt0[:, None] * op.conj().T * inv_sqrt[None, :]
        for op in channel.operators
    ]
    if kernel.any():
        ops.append(np.diag(kernel.astype(np.complex128)))
    return KrausChannel(tuple(ops), label=f"recovery({channel.label})")


@dataclass(frozen=True)
class FreezingCertificate:
    """Outcome of the freezing check for one (state, channel) pair.

    verdict is "Frozen" only if the relative-entropy deviation, both recovery
    residuals, and the incoherence of the recovery operators all pass at tol;
    otherwise failed_checks names every check that failed.
    """

    cr_initial: float
    cr_final: float
    cr_deviation: float
    c_l1_initial: float
    c_l1_final: float
    c_l1_deviation: float
    recovery_residual_state: float
    recovery_residual_diag: float
    recovery_incoherent: bool
    recovery_witness: ClassificationWitness | None
    verdict: str
    failed_checks: tuple[str, ...]
    tol: float

    def __post_init__(self):
        if self.verdict == "NotFrozen" and not self.failed_checks:
            raise NumericalInconsistencyError(
                "NotFrozen verdict without a named failing check"
            )

    @property
    def frozen(self) -> bool:
        return self.verdict == "Frozen"

    def to_text(self) -> str:
        """Flat key = value serialization, one metric per line."""
        witness = (
            self.recovery_witness.describe() if self.recovery_witness else "none"
        )
        failed = ",".join(self.failed_checks) if self.failed_checks else "none"
        lines = [
            f"verdict = {self.verdict}",
            f"failed_checks = {failed}",
            f"cr_initial = {self.cr_initial:.12g}",
            f"cr_final = {self.cr_final:.12g}",
            f"cr_deviation = {self.cr_deviation:.12g}",
            f"c_l1_initial = {self.c_l1_initial:.12g}",
            f"c_l1_final = {self.c_l1_final:.12g}",
            f"c_l1_deviation = {self.c_l1_deviation:.12g}",
            f"recovery_residual_state = {self.recovery_residual_state:.12g}",
            f"recovery_residual_diag = {self.recovery_residual_diag:.12g}",
            f"recovery_incoherent = {'true' if self.recovery_incoherent else 'false'}",
            f"recovery_witness = {witness}",
            f"tol = {self.tol:.12g}",
        ]
        return "\n".join(lines)


def certify_freezing(
    channel: KrausChannel,
    rho0: DensityMatrix,
    tol: float = CERTIFICATE_TOL,
    *,
    enforce_hypothesis: bool = True,
) -> FreezingCertificate:
    """Run the round-trip freezing check for rho0 under the given channel.

    The channel must classify strictly incoherent unless
    enforce_hypothesis=False, in which case any incoherent representation is
    accepted and the outcome is reported as-is.
    """
    if not 0.0 < tol < math.inf:
        raise OutOfRangeError(f"tolerance must be finite and positive, got {tol}")
    classification = classify(channel)
    if (
        enforce_hypothesis
        and classification.channel_class is not ChannelClass.STRICTLY_INCOHERENT
    ):
        detail = (
            classification.witness.describe()
            if classification.witness
            else "no witness"
        )
        raise NotStrictlyIncoherentError(
            f"channel classifies {classification.channel_class.value} ({detail}); "
            "pass enforce_hypothesis=False to explore anyway"
        )
    rho_t = apply_channel(channel, rho0)
    delta0 = dephase(rho0)
    delta_t = apply_channel(channel, delta0)

    cr0 = c_rel_ent(rho0)
    crt = c_rel_ent(rho_t)
    l10 = c_l1(rho0)
    l1t = c_l1(rho_t)
    cr_deviation = abs(crt - cr0)
    l1_deviation = abs(l1t - l10)

    recovery = petz_recovery(channel, delta0)
    recovered_state = apply_channel(recovery, rho_t)
    recovered_diag = apply_channel(recovery, delta_t)
    residual_state = max_abs(recovered_state.matrix - rho0.matrix)
    residual_diag = max_abs(recovered_diag.matrix - delta0.matrix)
    recovery_classification: ChannelClassification = classify(recovery)
    recovery_incoherent = (
        recovery_classification.channel_class is not ChannelClass.NOT_INCOHERENT
    )

    checks = (
        ("cr_deviation", cr_deviation <= tol),
        ("recovery_residual_state", residual_state <= tol),
        ("recovery_residual_diag", residual_diag <= tol),
        ("recovery_incoherent", recovery_incoherent),
    )
    failed = tuple(name for name, ok in checks if not ok)
    verdict = "Frozen" if not failed else "NotFrozen"
    if verdict == "Frozen" and l1_deviation > tol:
        # A frozen relative entropy with an unfrozen l1 norm would contradict
        # the round-trip monotonicity argument; treat as numerical failure.
        raise NumericalInconsistencyError(
            f"frozen verdict but l1 deviation {l1_deviation:.3e} exceeds {tol:.3e}"
        )
    return FreezingCertificate(
        cr_initial=cr0,
        cr_final=crt,
        cr_deviation=cr_deviation,
        c_l1_initial=l10,
        c_l1_final=l1t,
        c_l1_deviation=l1_deviation,
        recovery_residual_state=residual_state,
        recovery_residual_diag=residual_diag,
        recovery_incoherent=recovery_incoherent,
        recovery_witness=recovery_classification.witness,
        verdict=verdict,
        failed_checks=failed,
        tol=tol,
    )
