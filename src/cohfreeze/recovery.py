"""Incoherent recovery maps and freezing certificates.

For a channel with Kraus operators K_n and a diagonal reference state d0 with
image dt = channel(d0), the recovery map has operators

    R_n = d0^(1/2) K~_n^dag dt^(-1/2)

where K~_n is K_n with every entry at or below ZERO_TOL set to zero (the
stack classify judged) and dt^(-1/2) inverts the recovery's weights off its
kernel, zero on it. The weights are dt's diagonal on linalg.support(dt) and
below it the judged image sum_n |K~_n[t, j]|^2 d0_j; the kernel is where a
weight is not a normal float (zero or subnormal), so a tiny population
keeps its coherences. When the kernel is not empty the projector onto it
is appended, which restores trace preservation. Reversing the evolution
with such a map, itself incoherent, pins every coherence measure between
its initial and final values, so a successful round trip certifies
freezing of all measures at once. Each column of an incoherent K~_n holds
at most one nonzero, so sum R_n^dag R_n is exactly diagonal; when each row
does too, so does each R_n, and the recovery is as strictly incoherent as
the channel.

For a LocalChannel, whose factors are qubits strictly incoherent entry by
entry (local_channel builds any other factor list with tensor, and its
Kraus list takes the recovery above), the certificate applies the recovery
of its full Kraus list in closed form,

    R(X) = d0^(1/2) L^dag(dt^(-1/2) X dt^(-1/2)) d0^(1/2) + P_ker X P_ker,

with L^dag the channel's adjoint applied factor by factor and dt's diagonal
as the weights, and never builds the Kraus list; petz_recovery builds it
through tensor(channel.factors).

The two layouts are chosen by channel type, once, in certify_freezing. A
Kraus list takes d x d matrices: its evolved states rho_t and dt are the
two validated DensityMatrixes, and delta0 (rho0's diagonal), the
recovery's own channel(delta0) and R(rho_t) and R(dt) are plain matrices,
the last two read only through their residuals. A LocalChannel takes
parity lines, the entries (i, i ^ P) of a matrix for one mask P
(linalg._parity_lines), since its channel, its adjoint and the diagonal
weights above map each line into itself: rho0 is its diagonal, its
anti-diagonal and every other line with a nonzero entry, two lines alone
for an X state (every entry off the diagonal and anti-diagonal exactly
zero; every diagonal state and every d = 2 state is one). delta0 is rho0's
diagonal line, never a d x d state: rho0 has passed DensityMatrix's three
rules, so its dephased state does too. The channel acts through its line
kernel on rho0's lines and delta0's as one stack, and the recovery, with
the same kernel rule, on rho_t's and delta_t's; both residuals and the l1
bound are read off the lines. delta_t passes DensityMatrix's three rules
as np.diag(delta_t) would, and rho_t of an X state on its 2 x 2 blocks
{i, d-1-i}, read from the lower triangle as eigvalsh reads it, whose
eigenvalues give C_r; any other rho_t is the one DensityMatrix the layout
validates, and C_r reads its spectrum.
For an X state final_state, the validated DensityMatrix channel(rho0), is
built only when it is read.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .channels import (
    ChannelClass,
    ChannelClassification,
    ClassificationWitness,
    KrausChannel,
    LocalChannel,
    _Entries,
    _check_dim,
    apply_channel,
    classify,
    tensor,
)
from .coherence import _entropy_gap, c_l1, c_rel_ent
from .errors import (
    NotDiagonalError,
    NotIncoherentChannelError,
    NotStrictlyIncoherentError,
    NumericalInconsistencyError,
)
from .linalg import (
    _parity_lines,
    _parity_matrix,
    check_tolerance,
    is_exactly_diagonal,
    max_abs,
    offdiagonal_l1,
    support,
)
from .records import render
from .states import DensityMatrix, _checked, _x_spectrum

CERTIFICATE_TOL = 1e-8


def _recovery_weights(
    d0: np.ndarray, dt: np.ndarray, entries: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """d0^(1/2), w^(-1/2) off the kernel (zero on it), and the kernel mask,
    from the clipped real diagonals d0 of delta0 and dt of channel(delta0).

    The weights w are dt. Given the (operator, row, column, value) entries
    classify judged, a Kraus list's recovery takes below linalg.support(dt)
    their image sum_n |K~_n[t, j]|^2 d0_j instead (computed only when some
    weight lies there), so support picks the source of a weight, not the
    kernel. The kernel is where w is not a normal float (zero or
    subnormal), so w^(-1/2) squared stays finite.
    An incoherent channel's dt has off-diagonal entries only from Kraus
    entries at or below ZERO_TOL, which the recovery does not read."""
    d0 = np.clip(d0.real, 0.0, None)
    weights = np.clip(dt.real, 0.0, None)
    if entries is not None:
        supported = support(weights)
        if not supported.all():
            _, row, column, value = entries
            judged = np.bincount(row, np.abs(value) ** 2 * d0[column], len(d0))
            weights = np.where(supported, weights, judged)
    kernel = weights < np.finfo(float).tiny
    inv_sqrt = np.where(kernel, 0.0, 1.0 / np.sqrt(np.where(kernel, 1.0, weights)))
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
    return _recovery_channel(channel, classify(channel), delta0.matrix)


def _recovery_channel(
    channel: KrausChannel,
    classification: ChannelClassification,
    delta0: np.ndarray,
) -> KrausChannel:
    """petz_recovery for the exactly diagonal d x d matrix delta0, built
    from the entries that classify(channel) judged and handed over on the
    classification. channel(delta0) is read only for its diagonal, the
    weights, so it stays a plain matrix."""
    if classification.channel_class is ChannelClass.NOT_INCOHERENT:
        raise NotIncoherentChannelError(
            "channel is not incoherent: " + classification.witness.describe()
        )
    delta_t = apply_channel(channel, delta0)
    sqrt0, inv_sqrt, kernel = _recovery_weights(
        delta0.diagonal(), delta_t.diagonal(), classification._entries
    )
    operator, row, column, value = classification._entries
    n, ker = len(channel.operators), np.flatnonzero(kernel)
    # R_n[column, row] = d0^(1/2) conj(K_n[row, column]) dt^(-1/2), then P_ker
    stack = _Entries(
        (n + kernel.any(), *delta0.shape),
        np.concatenate([operator, np.full(len(ker), n)]),
        np.concatenate([column, ker]),
        np.concatenate([row, ker]),
        np.concatenate([sqrt0[column] * value.conj() * inv_sqrt[row], np.ones_like(ker)]),
    )
    return KrausChannel(stack, label=f"recovery({channel.label})")


def _closed_form_recovery(
    channel: LocalChannel,
    d0: np.ndarray,
    dt: np.ndarray,
    masks: np.ndarray,
    lines: np.ndarray,
) -> np.ndarray:
    """petz_recovery(channel, delta0) on the matrix with these parity masks
    and lines (linalg._parity_lines), as its lines, without the recovery's
    Kraus list; d0 and dt are the diagonals of delta0 and channel(delta0).
    Line P of np.outer(u, v) is u * v[i ^ P], so every product is
    elementwise, and the adjoint goes through the channel's line kernel.

    A LocalChannel's factors are strictly incoherent entry by entry, so
    channel(delta0) is exactly diagonal and sum R_n^dag R_n = dt^(-1/2)
    channel(delta0) dt^(-1/2) + P_ker = I: the completeness that
    KrausChannel checks on the Kraus list holds by construction. A composition
    of completely positive maps, R needs no check of its image either.
    """
    sqrt0, inv_sqrt, kernel = _recovery_weights(d0, dt)
    pairs = np.arange(len(d0)) ^ masks[:, None]
    weighted = channel._contract_lines(
        inv_sqrt * inv_sqrt[pairs] * lines, masks, adjoint=True
    )
    return sqrt0 * sqrt0[pairs] * weighted + kernel * kernel[pairs] * lines


@dataclass(frozen=True)
class FreezingCertificate:
    """Outcome of the freezing check for one (state, channel) pair.

    failed_checks names every check that failed at tol: the relative-entropy
    deviation, the two recovery residuals and the incoherence of the
    recovery operators. The verdict is "Frozen" when it is empty.

    The fields are declared in report order: to_text() prints the verdict,
    then every field but the private _final_state. final_state is the
    evolved state channel(rho0), a validated DensityMatrix, that the final
    measures and the round trip were computed from. _final_state holds it,
    or for an X state under a LocalChannel its parity (masks, lines), from
    which final_state builds it at each read, so a certificate that is never
    asked for it never builds it. It takes no part in equality, repr or
    to_text().
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
    _final_state: DensityMatrix | tuple = field(compare=False, repr=False)

    @property
    def final_state(self) -> DensityMatrix:
        if isinstance(self._final_state, DensityMatrix):
            return self._final_state
        return DensityMatrix(_parity_matrix(*self._final_state))

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


@dataclass(frozen=True)
class _Initial:
    """The rho0 half of a certificate, which no channel changes: the state
    and its two initial measures, read by both layouts."""

    state: DensityMatrix
    cr: float
    l1: float


def _initial(rho0: DensityMatrix) -> _Initial:
    return _Initial(rho0, c_rel_ent(rho0), c_l1(rho0))


class _RoundTrip(NamedTuple):
    """The channel's half of a certificate in one layout: the evolved
    state's two measures, the round trip's errors from rho0 and from
    delta0, the off-diagonal l1 sum of the first (computed when asked),
    the recovery's classification, and the evolved state for
    FreezingCertificate._final_state."""

    cr: float
    l1: float
    state_error: np.ndarray
    diag_error: np.ndarray
    state_error_l1: Callable[[], float]
    recovery_classification: ChannelClassification
    final_state: DensityMatrix | tuple


def _dense_round_trip(
    channel: KrausChannel,
    classification: ChannelClassification,
    rho0: DensityMatrix,
) -> _RoundTrip:
    """The round trip on d x d matrices under a Kraus list. It validates
    what _line_round_trip validates: rho_t, whose spectrum gives C_r, and
    delta_t. delta0 = np.diag of rho0's diagonal and every other product
    are plain matrices: the recovery is a completeness-checked Kraus list,
    and R(rho_t) and R(delta_t) are read only through their residuals."""
    delta0 = np.diag(rho0.matrix.diagonal())
    rho_t = apply_channel(channel, rho0)
    delta_t = DensityMatrix(apply_channel(channel, delta0))
    cr, l1 = c_rel_ent(rho_t), c_l1(rho_t)
    recovery = _recovery_channel(channel, classification, delta0)
    recovered = [apply_channel(recovery, s.matrix) for s in (rho_t, delta_t)]
    # Strict: each R_n keeps K~_n's at most one nonzero per row and column.
    recovery_classification = classification
    if classification.channel_class is not ChannelClass.STRICTLY_INCOHERENT:
        recovery_classification = classify(recovery)  # for its witness
    state_error = recovered[0] - rho0.matrix
    return _RoundTrip(
        cr,
        l1,
        state_error,
        recovered[1] - delta0,
        lambda: offdiagonal_l1(state_error),
        recovery_classification,
        rho_t,
    )


def _line_l1(lines: np.ndarray) -> float:
    """offdiagonal_l1 of a matrix from its parity lines, masks ascending:
    every line but the diagonal, line 0."""
    return float(np.abs(lines[1:]).sum())


def _line_round_trip(
    channel: LocalChannel,
    classification: ChannelClassification,
    masks: np.ndarray,
    lines: np.ndarray,
) -> _RoundTrip:
    """The round trip on the parity lines (masks, lines) of a state rho0
    under a LocalChannel (linalg._parity_lines), which maps each line into
    itself: rho0's lines and delta0's diagonal line go through the channel
    as one stack, as rho_t's and delta_t's go through the recovery. delta_t
    passes DensityMatrix's rules as np.diag(delta_t) would; rho_t, when rho0
    is an X state (its lines 0 and d-1 alone), passes them on its 2 x 2
    blocks (states._x_spectrum), whose eigenvalues give C_r, and any other
    rho_t is the validated DensityMatrix whose spectrum gives C_r."""
    m = len(masks)
    start_masks = np.append(masks, 0)  # rho0's lines, then delta0's
    start = np.concatenate([lines, lines[:1]])
    evolved = channel._contract_lines(start, start_masks)
    x_t, delta_t = evolved[:m], evolved[m]
    if m == 2:  # an X state
        spectrum, final_state = _x_spectrum(x_t), (masks, x_t)
    else:
        final_state = DensityMatrix(_parity_matrix(masks, x_t))
        spectrum = final_state.eigenvalues
    _checked(delta_t, delta_t.conj(), delta_t, np.real)
    cr = _entropy_gap(x_t[0].real, spectrum) if x_t[1:].any() else 0.0
    recovered = _closed_form_recovery(channel, lines[0], delta_t, start_masks, evolved)
    errors = recovered - start
    state_error = errors[:m]
    return _RoundTrip(
        cr,
        _line_l1(x_t),
        state_error,
        errors[m],
        lambda: _line_l1(state_error),
        classification,
        final_state,
    )


def certify_freezing(
    channel: KrausChannel | LocalChannel,
    rho0: DensityMatrix | _Initial,
    tol: float = CERTIFICATE_TOL,
    *,
    enforce_hypothesis: bool = True,
) -> FreezingCertificate:
    """Run the round-trip freezing check for rho0 under the given channel.

    The channel must classify strictly incoherent unless
    enforce_hypothesis=False, in which case any incoherent representation is
    accepted and the outcome is reported as-is. A LocalChannel takes the
    closed-form recovery, and the whole round trip runs on the parity lines
    of rho0; a KrausChannel runs it on d x d matrices.

    rho0 is a DensityMatrix, or the record _initial(rho0) of its initial
    measures: a sweep, where only the channel changes, prepares that record
    once and hands it to every grid point's call. Both layouts read rho0's
    measures from that one record.
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
            "pass enforce_hypothesis=False (cohfreeze certify --allow-non-strict) "
            "to explore anyway"
        )
    state = rho0.state if isinstance(rho0, _Initial) else rho0
    _check_dim(channel, state.matrix.shape)  # before either layout
    initial = rho0 if isinstance(rho0, _Initial) else _initial(rho0)
    if isinstance(channel, LocalChannel):
        trip = _line_round_trip(channel, classification, *_parity_lines(state.matrix))
    else:
        trip = _dense_round_trip(channel, classification, state)
    cr_deviation = abs(trip.cr - initial.cr)
    l1_deviation = abs(trip.l1 - initial.l1)
    residual_state = max_abs(trip.state_error)
    residual_diag = max_abs(trip.diag_error)
    recovery_incoherent = (
        trip.recovery_classification.channel_class is not ChannelClass.NOT_INCOHERENT
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
        bound = trip.state_error_l1()
        if l1_deviation > tol + bound:
            raise NumericalInconsistencyError(
                f"frozen verdict but l1 deviation {l1_deviation:.3e} exceeds "
                f"{tol:.3e} plus the round-trip bound {bound:.3e}"
            )
    return FreezingCertificate(
        cr_initial=initial.cr,
        cr_final=trip.cr,
        cr_deviation=cr_deviation,
        c_l1_initial=initial.l1,
        c_l1_final=trip.l1,
        c_l1_deviation=l1_deviation,
        recovery_residual_state=residual_state,
        recovery_residual_diag=residual_diag,
        recovery_incoherent=recovery_incoherent,
        recovery_witness=trip.recovery_classification.witness,
        failed_checks=failed,
        tol=tol,
        _final_state=trip.final_state,
    )
