"""Kraus channels, the standard qubit noise library, and the incoherence
classifier.

A Kraus operator maps diagonal states to diagonal states iff each of its
columns has at most one nonzero entry; the adjoint condition adds the same
constraint per row. The classifier applies exactly that row/column scan to
the supplied representation (Kraus representations are not unique; no search
over alternative representations is attempted).

A KrausChannel holds its operators as one read-only complex (n, d, d)
array, validated once, so tensor products, the classifier, the completeness
check and channel application each work on the whole stack at once.

An incoherent Kraus operator sends each basis vector to one basis vector,
K|j> = g_j |t_j>, so it maps a diagonal state to a diagonal state without a
matrix product. A KrausChannel of dimension at least STRUCTURED_MIN_DIM
records, once, whether its stack has this monomial structure: column form
(every column of every operator holds at most one exactly nonzero entry, as
in an incoherent channel) or row form (every row does, as in the recovery
d0^(1/2) K^dag dt^(-1/2) of an incoherent channel). apply_channel then
evolves an exactly diagonal input in O(n d) (column form, diagonal output)
or O(n d^2) (row form) work instead of the batched O(n d^3) product. The
structure is read from exact zeros, not ZERO_TOL: a tiny entry is still an
entry, and dropping it would change the output. Below the cutoff numpy's
fixed cost per call outweighs the saved arithmetic, so small channels
record nothing. The batched product stays the only path for them and for
every other stack or input.

A local channel whose factors are strictly incoherent entry by entry is kept
as its factors (LocalChannel) and applied, adjoint-applied and classified one
factor at a time; local_channel builds any other as the dense tensor product.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import (
    DimensionMismatchError,
    OutOfRangeError,
    ValidationError,
)
from .linalg import as_complex_matrix, is_exactly_diagonal, max_abs
from .states import DensityMatrix

COMPLETENESS_TOL = 1e-10
ZERO_TOL = 1e-12
# Smallest dimension whose channels record their monomial structure.
# Median time of one apply_channel call on a diagonal state, structured /
# batched, in microseconds (2 vCPU host, numpy 2.4): SIO channels with 4
# operators 48/42 at d=4, 49/46 at d=8, 52/55 at d=12, 43/49 at d=16; the
# recovery of an incoherent-only channel (d+1 operators) 69/73 at d=8,
# 99/106 at d=12, 135/169 at d=16, 252/388 at d=24.
STRUCTURED_MIN_DIM = 16

_I = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _monomial_form(ops: np.ndarray):
    """(axis, index, gain) when every column (axis 1) or else every row
    (axis 2) of every operator holds at most one exactly nonzero entry:
    line j of operator n holds gain[n, j] at position index[n, j] along
    that axis (gain 0 for an empty line). None for any other stack."""
    n, d, _ = ops.shape
    flat = np.flatnonzero(ops != 0)  # ascending (operator, row, column)
    if len(flat) > n * d:  # more entries than lines
        return None
    operator, rest = np.divmod(flat, d * d)
    row, column = np.divmod(rest, d)
    for axis, line, position in ((1, column, row), (2, row, column)):
        key = operator * d + line
        if np.bincount(key, minlength=n * d).max() <= 1:
            index = np.zeros(n * d, np.min_scalar_type(d - 1))
            index[key] = position
            gain = np.zeros(n * d, np.complex128)
            gain[key] = ops.ravel()[flat]
            return axis, index.reshape(n, d), gain.reshape(n, d)
    return None


def _apply_monomial(axis: int, index: np.ndarray, gain: np.ndarray, p: np.ndarray):
    """sum_n K_n diag(p) K_n^dag for a stack in _monomial_form."""
    if axis == 1:
        # K_n[t, j] = gain[n, j] at t = index[n, j]: the output is diagonal.
        weights = (gain * p) * gain.conj()
        targets = index.ravel()
        return np.diag(
            np.bincount(targets, weights.real.ravel(), len(p))
            + 1j * np.bincount(targets, weights.imag.ravel(), len(p))
        )
    # K_n[a, s] = gain[n, a] at s = index[n, a]: rows a and b of operator n
    # meet at (a, b) only when they read the same column s.
    terms = (gain * p[index])[:, :, None] * gain.conj()[:, None, :]
    terms[index[:, :, None] != index[:, None, :]] = 0
    return terms.sum(axis=0)


def _operator_stack(operators) -> np.ndarray:
    """The operators as one C-contiguous complex (n, d, d) copy. A bad
    input raises the error as_complex_matrix gives its first bad operator."""
    if not isinstance(operators, np.ndarray):
        operators = list(operators)  # any iterable, read once
    try:
        ops = np.array(operators, dtype=np.complex128)
    except ValueError:  # operators of different shapes
        ops = np.empty(0)
    square = ops.ndim == 3 and ops.shape[1] == ops.shape[2]
    if square and ops.size > 0 and np.isfinite(ops).all():
        return ops
    matrices = [as_complex_matrix(op) for op in operators]
    if not matrices:
        raise ValidationError("channel needs at least one Kraus operator")
    raise DimensionMismatchError("Kraus operators differ in dimension")


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A CPTP map given by its Kraus operators.

    `operators` may be a sequence of d x d matrices or an (n, d, d) array; it
    is stored as one read-only complex (n, d, d) array. Construction verifies
    completeness: sum K^dag K = I within COMPLETENESS_TOL. Equality and
    hashing are by identity.
    """

    operators: np.ndarray
    label: str = ""

    def __post_init__(self):
        ops = _operator_stack(self.operators)
        n, dim, _ = ops.shape
        stacked = ops.reshape(n * dim, dim)
        defect = max_abs(stacked.conj().T @ stacked - np.eye(dim))
        if defect > COMPLETENESS_TOL:
            raise ValidationError(
                f"completeness fails: max |sum K^dag K - I| = {defect:.3e}"
            )
        ops.setflags(write=False)
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    @cached_property
    def _monomial(self):
        """_monomial_form of the stack from STRUCTURED_MIN_DIM on, else
        None; found on first use, so building a channel costs nothing more."""
        if self.dim < STRUCTURED_MIN_DIM:
            return None
        return _monomial_form(self.operators)


class _KroneckerOperators(Sequence):
    """The Kraus operators of a LocalChannel in tensor()'s order (first
    factor slowest), each Kronecker product built when it is read."""

    def __init__(self, factors: tuple[KrausChannel, ...]):
        self._factors = factors
        self._counts = tuple(len(f.operators) for f in factors)

    def __len__(self) -> int:
        return math.prod(self._counts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(len(self))[index])
        digits = np.unravel_index(range(len(self))[index], self._counts)
        stacks = (f.operators[i : i + 1] for f, i in zip(self._factors, digits))
        op = reduce(_kron, stacks)[0]
        op.setflags(write=False)
        return op


def _superoperator(channel: KrausChannel) -> np.ndarray:
    """The d^2 x d^2 matrix S[(a, a'), (b, b')] = sum_n K_n[a, b]
    conj(K_n[a', b']), which maps X[b, b'] to the channel's output."""
    ops = channel.operators
    d = channel.dim
    return np.einsum("nab,ncd->acbd", ops, ops.conj()).reshape(d * d, d * d)


@dataclass(frozen=True, eq=False)
class LocalChannel:
    """The tensor product of its factors, stored as the factors alone.

    Each factor is a validated KrausChannel of any dimension that is strictly
    incoherent entry by entry; dim is the product of theirs. `operators` is
    a read-only sequence whose items are the Kronecker products tensor()
    would store, built on demand. Equality and hashing are by identity.
    """

    factors: tuple[KrausChannel, ...]
    _superoperators: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValidationError("local channel needs at least one factor")
        if not all(isinstance(f, KrausChannel) for f in factors):
            raise ValidationError("local channel factors must be KrausChannels")
        if not all(_exactly_strict(f) for f in factors):
            raise ValidationError(
                "local channel factors must be strictly incoherent entry by entry"
            )
        object.__setattr__(self, "factors", factors)
        object.__setattr__(
            self, "_superoperators", tuple(_superoperator(f) for f in factors)
        )

    @property
    def dim(self) -> int:
        return math.prod(f.dim for f in self.factors)

    @property
    def label(self) -> str:
        return " x ".join(f.label or "?" for f in self.factors)

    @property
    def operators(self) -> _KroneckerOperators:
        return _KroneckerOperators(self.factors)

    def contract(self, matrix, *, adjoint: bool = False) -> np.ndarray:
        """sum_n K_n X K_n^dag, or sum_n K_n^dag X K_n with adjoint=True, for
        a dim x dim matrix X, one factor at a time.

        X is reordered so that each factor's row and column index sit side by
        side, (i1, j1, ..., ik, jk). Each step multiplies the leading pair by
        that factor's superoperator and rotates it to the back, so after the
        last factor the pairs are back in order.
        """
        dims = [f.dim for f in self.factors]
        k = len(dims)
        x = np.asarray(matrix, dtype=np.complex128).reshape(dims * 2)
        x = x.transpose([axis for i in range(k) for axis in (i, k + i)])
        for d, s in zip(dims, self._superoperators):
            x = ((s.conj().T if adjoint else s) @ x.reshape(d * d, -1)).T
        x = x.reshape([d for d in dims for _ in range(2)])
        x = x.transpose([*range(0, 2 * k, 2), *range(1, 2 * k, 2)])
        return x.reshape(self.dim, self.dim)


class ChannelClass(enum.Enum):
    NOT_INCOHERENT = "NotIncoherent"
    INCOHERENT_ONLY = "IncoherentOnly"
    STRICTLY_INCOHERENT = "StrictlyIncoherent"


@dataclass(frozen=True)
class ClassificationWitness:
    """Entry positions proving a row or column has more than one nonzero."""

    operator_index: int
    axis: str  # "row" or "column"
    index: int
    positions: tuple[int, ...]

    def describe(self) -> str:
        where = "rows" if self.axis == "column" else "columns"
        return (
            f"operator {self.operator_index}, {self.axis} {self.index}, "
            f"{where} {self.positions}"
        )


@dataclass(frozen=True)
class ChannelClassification:
    channel_class: ChannelClass
    witness: ClassificationWitness | None


def classify(
    channel: KrausChannel | LocalChannel, zero_tol: float = ZERO_TOL
) -> ChannelClassification:
    """Row/column scan of the given Kraus representation.

    At most one nonzero per column in every operator makes the channel
    incoherent; at most one per row as well makes it strictly incoherent.
    The witness points at the first violating column (NotIncoherent) or
    row (IncoherentOnly). zero_tol must be finite and non-negative.

    A LocalChannel is strictly incoherent at every zero_tol: its factors
    are strictly incoherent entry by entry, so every Kronecker product of
    their operators is too, and a larger zero_tol only shrinks the mask.
    """
    if not 0.0 <= zero_tol < math.inf:
        raise OutOfRangeError(
            f"zero_tol must be finite and non-negative, got {zero_tol}"
        )
    if isinstance(channel, LocalChannel):
        return ChannelClassification(ChannelClass.STRICTLY_INCOHERENT, None)
    mask = np.abs(channel.operators) > zero_tol
    bad_columns = mask.sum(axis=1) > 1  # [n, column]
    if bad_columns.any():
        n, col = (int(i) for i in np.argwhere(bad_columns)[0])
        rows = tuple(int(r) for r in np.nonzero(mask[n, :, col])[0])
        return ChannelClassification(
            ChannelClass.NOT_INCOHERENT,
            ClassificationWitness(n, "column", col, rows),
        )
    bad_rows = mask.sum(axis=2) > 1  # [n, row]
    if bad_rows.any():
        n, row = (int(i) for i in np.argwhere(bad_rows)[0])
        cols = tuple(int(c) for c in np.nonzero(mask[n, row, :])[0])
        return ChannelClassification(
            ChannelClass.INCOHERENT_ONLY, ClassificationWitness(n, "row", row, cols)
        )
    return ChannelClassification(ChannelClass.STRICTLY_INCOHERENT, None)


def _exactly_strict(channel: KrausChannel) -> bool:
    """Strictly incoherent counting every nonzero entry, however small."""
    return classify(channel, 0.0).channel_class is ChannelClass.STRICTLY_INCOHERENT


def apply_channel(
    channel: KrausChannel | LocalChannel, rho: DensityMatrix
) -> DensityMatrix:
    """sum_n K_n rho K_n^dag as a validated density matrix; an exactly
    diagonal rho under a monomial stack skips the batched product."""
    if channel.dim != rho.dim:
        raise DimensionMismatchError(
            f"channel dim {channel.dim} does not match state dim {rho.dim}"
        )
    if isinstance(channel, LocalChannel):
        return DensityMatrix(channel.contract(rho.matrix))
    if channel._monomial is not None and is_exactly_diagonal(rho.matrix):
        return DensityMatrix(
            _apply_monomial(*channel._monomial, rho.matrix.diagonal())
        )
    ops = channel.operators
    out = (ops @ rho.matrix @ ops.conj().transpose(0, 2, 1)).sum(axis=0)
    return DensityMatrix(out)


def compose(second: KrausChannel, first: KrausChannel) -> KrausChannel:
    """The channel applying `first` then `second`."""
    if second.dim != first.dim:
        raise DimensionMismatchError(
            f"cannot compose dims {second.dim} and {first.dim}"
        )
    ops = tuple(
        b @ a for b in second.operators for a in first.operators
    )
    return KrausChannel(ops, label=f"compose({second.label},{first.label})")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every Kronecker product of an operator of stack a with one of stack
    b, a slowest, as one broadcast product: a[m, i, j] * b[n, k, l] lands
    at [m, n, i, k, j, l], entry (i k, j l) of product (m n)."""
    (n1, d1, _), (n2, d2, _) = a.shape, b.shape
    outer = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    return outer.reshape(n1 * n2, d1 * d2, d1 * d2)


def tensor(channels: Sequence[KrausChannel]) -> KrausChannel:
    """Tensor product channel; operators are all Kronecker products, in
    itertools.product order (first factor slowest)."""
    if not channels:
        raise ValidationError("tensor needs at least one channel")
    ops = reduce(_kron, (c.operators for c in channels))
    label = " x ".join(c.label or "?" for c in channels)
    return KrausChannel(ops, label=label)


def _check_unit_interval(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise OutOfRangeError(f"{name} must be in [0, 1], got {value}")
    return float(value)


def identity_channel(dim: int = 2) -> KrausChannel:
    return KrausChannel((np.eye(dim, dtype=np.complex128),), label="identity")


def bit_flip(q: float) -> KrausChannel:
    """Kraus operators sqrt(1-q) I and sqrt(q) X."""
    q = _check_unit_interval("q", q)
    ops = (np.sqrt(1 - q) * _I, np.sqrt(q) * _X)
    return KrausChannel(ops, label=f"bitflip(q={q:g})")


def phase_flip(q: float) -> KrausChannel:
    """Kraus operators sqrt(1-q) I and sqrt(q) Z."""
    q = _check_unit_interval("q", q)
    ops = (np.sqrt(1 - q) * _I, np.sqrt(q) * _Z)
    return KrausChannel(ops, label=f"phaseflip(q={q:g})")


def bit_phase_flip(q: float) -> KrausChannel:
    """Kraus operators sqrt(1-q) I and sqrt(q) Y."""
    q = _check_unit_interval("q", q)
    ops = (np.sqrt(1 - q) * _I, np.sqrt(q) * _Y)
    return KrausChannel(ops, label=f"bitphaseflip(q={q:g})")


def depolarizing(q: float) -> KrausChannel:
    """Kraus operators sqrt(1-3q/4) I and sqrt(q/4) X, Y, Z."""
    q = _check_unit_interval("q", q)
    ops = (
        np.sqrt(1 - 3 * q / 4) * _I,
        np.sqrt(q / 4) * _X,
        np.sqrt(q / 4) * _Y,
        np.sqrt(q / 4) * _Z,
    )
    return KrausChannel(ops, label=f"depolarizing(q={q:g})")


def phase_damping(lam: float) -> KrausChannel:
    """Kraus operators sqrt(1-lam) I, sqrt(lam) |0><0|, sqrt(lam) |1><1|."""
    lam = _check_unit_interval("lambda", lam)
    p0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    p1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)
    ops = (np.sqrt(1 - lam) * _I, np.sqrt(lam) * p0, np.sqrt(lam) * p1)
    return KrausChannel(ops, label=f"phasedamping(l={lam:g})")


def amplitude_damping(gamma: float) -> KrausChannel:
    """Kraus operators [[1,0],[0,sqrt(1-g)]] and [[0,sqrt(g)],[0,0]]."""
    gamma = _check_unit_interval("gamma", gamma)
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=np.complex128)
    return KrausChannel((k0, k1), label=f"amplitudedamping(g={gamma:g})")


# Per-qubit factory registry: kind -> (spec key, constructor); each
# constructor takes one probability-like parameter in [0, 1], written
# `kind key=value` in an inline channel spec.
CHANNEL_FACTORIES = {
    "bitflip": ("q", bit_flip),
    "phaseflip": ("q", phase_flip),
    "bitphaseflip": ("q", bit_phase_flip),
    "depolarizing": ("q", depolarizing),
    "phasedamping": ("l", phase_damping),
    "amplitudedamping": ("g", amplitude_damping),
}


def local_channel(factors) -> LocalChannel | KrausChannel:
    """Tensor product of per-qubit channels: a LocalChannel when every factor
    is strictly incoherent entry by entry, else the dense tensor(factors).

    Factors may be KrausChannel instances or (kind, parameter) pairs using
    the CHANNEL_FACTORIES names; the factors need not be identical.
    """
    built = []
    for factor in factors:
        if not isinstance(factor, KrausChannel):
            kind, param = factor
            try:
                _, factory = CHANNEL_FACTORIES[kind]
            except KeyError:
                raise ValidationError(f"unknown channel kind {kind!r}") from None
            factor = factory(param)
        built.append(factor)
    if all(_exactly_strict(f) for f in built):
        return LocalChannel(tuple(built))
    return tensor(built)


def random_sio_channel(dim: int, num_operators: int, seed: int) -> KrausChannel:
    """Random strictly incoherent channel from permutation-pattern operators.

    Each operator places one complex gain per column along a random
    permutation; gains are normalized so that sum K^dag K = I exactly.
    """
    if num_operators < 1:
        raise ValidationError("need at least one operator")
    rng = np.random.default_rng(seed)
    targets = np.stack([rng.permutation(dim) for _ in range(num_operators)])
    gains = rng.standard_normal((num_operators, dim)) + 1j * rng.standard_normal(
        (num_operators, dim)
    )
    gains /= np.sqrt(np.sum(np.abs(gains) ** 2, axis=0, keepdims=True))
    ops = np.zeros((num_operators, dim, dim), dtype=np.complex128)
    ops[np.arange(num_operators)[:, None], targets, np.arange(dim)] = gains
    return KrausChannel(ops, label=f"random-sio(dim={dim},seed={seed})")


def random_incoherent_channel(dim: int, num_operators: int, seed: int) -> KrausChannel:
    """Random incoherent (generally not strictly incoherent) channel.

    Each operator is |t_n><v_n| with {v_n} the rows of a random isometry, so
    every column has at most one nonzero while rows are dense. At least dim
    operators are produced.
    """
    if num_operators < 1:
        raise ValidationError("need at least one operator")
    rng = np.random.default_rng(seed)
    m = max(num_operators, dim)
    g = rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
    q, _ = np.linalg.qr(g)  # m x dim, orthonormal columns
    targets = rng.integers(0, dim, size=m)
    ops = np.zeros((m, dim, dim), dtype=np.complex128)
    ops[np.arange(m), targets, :] = q
    return KrausChannel(ops, label=f"random-io(dim={dim},seed={seed})")
