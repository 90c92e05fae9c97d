"""Incoherent recovery maps and freezing certificates.

For a channel with Kraus operators K_n and a diagonal reference state d0 with
image dt = channel(d0), the recovery map has operators

    R_n = d0^(1/2) K~_n^dag dt^(-1/2)

where K~_n is K_n with every entry at or below ZERO_TOL set to zero (the
stack classify judged) and dt^(-1/2) inverts dt on linalg.support(dt), zero
off it. When dt is singular the projector onto its kernel is appended, which
restores trace preservation. Reversing the evolution with such a map, itself
incoherent, pins every coherence measure between its initial and final
values, so a successful round trip certifies freezing of all measures at
once. Each column of an incoherent K~_n holds at most one nonzero, so
sum R_n^dag R_n is exactly diagonal; when each row does too, so does each
R_n, and the recovery is as strictly incoherent as the channel.

For a LocalChannel, whose factors are strictly incoherent entry by entry,
the certificate applies the recovery of its full Kraus list in closed form,

    R(X) = d0^(1/2) L^dag(dt^(-1/2) X dt^(-1/2)) d0^(1/2) + P_ker X P_ker,

with L^dag the channel's adjoint applied factor by factor, and never builds
the Kraus list; petz_recovery builds it through tensor(channel.factors).
Either way the certificate reads R(rho_t) and R(dt) as unvalidated matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .channels import (
    ChannelClass,
    ChannelClassification,
    ClassificationWitness,
    KrausChannel,
    LocalChannel,
    _Entries,
    apply_channel,
    classify,
    tensor,
)
from .coherence import c_l1, c_rel_ent
from .errors import (
    NotDiagonalError,
    NotIncoherentChannelError,
    NotStrictlyIncoherentError,
    NumericalInconsistencyError,
)
from .linalg import (
    check_tolerance,
    is_exactly_diagonal,
    max_abs,
    offdiagonal_l1,
    support,
)
from .records import render
from .states import DensityMatrix, dephase

CERTIFICATE_TOL = 1e-8


def _recovery_weights(
    delta0: DensityMatrix, delta_t: DensityMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """d0^(1/2), dt^(-1/2) on dt's support (zero on its kernel), and the
    kernel mask, from the clipped diagonals of the two references. An
    incoherent channel's dt has off-diagonal entries only from Kraus entries
    at or below ZERO_TOL, which the recovery does not read."""
    d0 = np.clip(delta0.matrix.diagonal().real, 0.0, None)
    dt = np.clip(delta_t.matrix.diagonal().real, 0.0, None)
    kernel = ~support(dt)
    inv_sqrt = np.where(kernel, 0.0, 1.0 / np.sqrt(np.where(kernel, 1.0, dt)))
    return np.sqrt(d0), inv_sqrt, kernel


def petz_recovery(
    channel: KrausChannel | LocalChannel, delta0: DensityMatrix
) -> KrausChannel:
    """Recovery channel for an incoherent channel and diagonal reference.

    Requires delta0 exactly diagonal (every off-diagonal entry zero) and the
    channel at least incoherent at ZERO_TOL.
    The result is trace preserving by construction; when the input channel
    is strictly incoherent the recovery is strictly incoherent as well. A
    LocalChannel is expanded by tensor(channel.factors) first.
    """
    if not is_exactly_diagonal(delta0.matrix):
        raise NotDiagonalError("reference state must be diagonal")
    if isinstance(channel, LocalChannel):
        channel = tensor(channel.factors)
    return _recovery_channel(channel, classify(channel), delta0)


def _recovery_channel(
    channel: KrausChannel,
    classification: ChannelClassification,
    delta0: DensityMatrix,
) -> KrausChannel:
    """petz_recovery for a diagonal delta0, built from the entries that
    classify(channel) judged and handed over on the classification."""
    if classification.channel_class is ChannelClass.NOT_INCOHERENT:
        raise NotIncoherentChannelError(
            "channel is not incoherent: " + classification.witness.describe()
        )
    sqrt0, inv_sqrt, kernel = _recovery_weights(delta0, apply_channel(channel, delta0))
    operator, row, column, value = classification._entries
    n, ker = len(channel.operators), np.flatnonzero(kernel)
    # R_n[column, row] = d0^(1/2) conj(K_n[row, column]) dt^(-1/2), then P_ker
    stack = _Entries(
        (n + kernel.any(), *delta0.matrix.shape),
        np.concatenate([operator, np.full(len(ker), n)]),
        np.concatenate([column, ker]),
        np.concatenate([row, ker]),
        np.concatenate([sqrt0[column] * value.conj() * inv_sqrt[row], np.ones_like(ker)]),
    )
    return KrausChannel(stack, label=f"recovery({channel.label})")


def _closed_form_recovery(
    channel: LocalChannel, delta0: DensityMatrix, delta_t: DensityMatrix
):
    """The action of petz_recovery(channel, delta0), as a function from a
    state to the matrix of its image, without the recovery's Kraus list.

    A LocalChannel's factors are strictly incoherent entry by entry, so
    channel(delta0) is exactly diagonal and sum R_n^dag R_n = dt^(-1/2)
    channel(delta0) dt^(-1/2) + P_ker = I: the completeness that
    KrausChannel checks on the Kraus list holds by construction. A composition
    of completely positive maps, R needs no check of its image either.
    """
    sqrt0, inv_sqrt, kernel = _recovery_weights(delta0, delta_t)
    outer0 = np.outer(sqrt0, sqrt0)
    outer_t = np.outer(inv_sqrt, inv_sqrt)
    projector = np.outer(kernel, kernel)

    def recover(state: DensityMatrix) -> np.ndarray:
        x = state.matrix
        return outer0 * channel.contract(outer_t * x, adjoint=True) + projector * x

    return recover


@dataclass(frozen=True)
class FreezingCertificate:
    """Outcome of the freezing check for one (state, channel) pair.

    failed_checks names every check that failed at tol: the relative-entropy
    deviation, the two recovery residuals and the incoherence of the
    recovery operators. The verdict is "Frozen" when it is empty.

    The fields are declared in report order: to_text() prints the verdict,
    then every field but final_state. final_state is the evolved state
    channel(rho0) that the final measures and the round trip were computed
    from; it takes no part in equality, repr or to_text().
    """

    failed_checks: tuple[str, ...]
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
    tol: float
    final_state: DensityMatrix = field(compare=False, repr=False)

    @property
    def frozen(self) -> bool:
        return not self.failed_checks

    @property
    def verdict(self) -> str:
        return "Frozen" if self.frozen else "NotFrozen"

    def to_text(self) -> str:
        """Flat key = value serialization, one metric per line."""
        shown = [(f.name, getattr(self, f.name)) for f in fields(self) if f.repr]
        return render([("verdict", self.verdict), *shown])


def certify_freezing(
    channel: KrausChannel | LocalChannel,
    rho0: DensityMatrix,
    tol: float = CERTIFICATE_TOL,
    *,
    enforce_hypothesis: bool = True,
) -> FreezingCertificate:
    """Run the round-trip freezing check for rho0 under the given channel.

    The channel must classify strictly incoherent unless
    enforce_hypothesis=False, in which case any incoherent representation is
    accepted and the outcome is reported as-is. A LocalChannel takes the
    closed-form recovery.
    """
    check_tolerance("tolerance", tol)
    classification = classify(channel)
    if (
        enforce_hypothesis
        and classification.channel_class is not ChannelClass.STRICTLY_INCOHERENT
    ):
        raise NotStrictlyIncoherentError(
            f"channel classifies {classification.channel_class.value} "
            f"({classification.witness.describe()}); "
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

    # Strict: each R_n keeps K~_n's at most one nonzero per row and column.
    recovery_classification = classification
    if isinstance(channel, LocalChannel):
        recover = _closed_form_recovery(channel, delta0, delta_t)
    else:
        # delta0 = dephase(rho0) is diagonal by construction.
        recovery = _recovery_channel(channel, classification, delta0)

        def recover(state: DensityMatrix) -> np.ndarray:
            return apply_channel(recovery, state).matrix

        if classification.channel_class is not ChannelClass.STRICTLY_INCOHERENT:
            recovery_classification = classify(recovery)  # for its witness
    state_error = recover(rho_t) - rho0.matrix
    residual_state = max_abs(state_error)
    residual_diag = max_abs(recover(delta_t) - delta0.matrix)
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
    if not failed and l1_deviation > tol:
        # l1 is monotone under the channel and under the incoherent recovery,
        # so |l1(rho_t) - l1(rho0)| <= l1(rho0 - R(rho_t)), the off-diagonal
        # moduli of the round-trip error. Past that bound a Frozen verdict
        # contradicts its own arithmetic.
        bound = offdiagonal_l1(state_error)
        if l1_deviation > tol + bound:
            raise NumericalInconsistencyError(
                f"frozen verdict but l1 deviation {l1_deviation:.3e} exceeds "
                f"{tol:.3e} plus the round-trip bound {bound:.3e}"
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
        failed_checks=failed,
        tol=tol,
        final_state=rho_t,
    )
