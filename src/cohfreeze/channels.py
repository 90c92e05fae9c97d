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
K|j> = g_j |t_j>: it is a gather, not a dense matrix. From STRUCTURED_MIN_DIM
on, a KrausChannel records when it is built whether its stack has this
monomial structure: column form (every column of every operator holds at
most one exactly nonzero entry, as in an incoherent channel) or row form
(every row does, as in the recovery d0^(1/2) K^dag dt^(-1/2) of an
incoherent channel). That one (axis, index, gain, shared) record checks
completeness, classifies the stack and evolves any state in O(n d^2) work
instead of the batched O(n d^3) product. It marks the rank-one operators,
whose entries share one position (|t><v| in column form, as in an
incoherent-only channel, |v><s| in row form, as in its recovery): they take
one (n x d)(d x d) or (d x n)(n x d) matrix product. A recovery is built
from the entries classify judged (_Entries), and its record is read from
them with no rescan of its dense stack. The structure is read from exact
zeros, not ZERO_TOL: a tiny entry is still an entry, and dropping it would
change the output. Small channels (numpy's fixed cost per call outweighs
the saved arithmetic) and every other stack take the batched product.

A local channel whose factors are qubits strictly incoherent entry by entry,
as its constructor judges in one scan of their stacked operators (by
classify's own crowded-line rule), is kept as its factors (LocalChannel) and
applied, adjoint-applied and classified one factor at a time; local_channel
builds any other, a factor of another dimension included, with tensor, the
one builder of a Kronecker list. A qubit factor's operators are diagonal or
anti-diagonal, so its superoperator keeps the parity of an index pair and is
two 2 x 2 blocks, one table of which (LocalChannel._blocks) the constructor
reads from the factors' Kraus entries. The tensor product then maps each
parity line of a matrix, its entries (i, i ^ P) for one mask P
(linalg._parity_lines), into itself: the diagonal is line 0, the
anti-diagonal line d-1, and an X matrix (every other entry exactly zero) is
those two lines alone. One line kernel (LocalChannel._contract_lines)
evolves any set of such lines, by each factor's block for the parity bit of
the line's mask; apply_channel is that kernel between a matrix's kept lines
and the matrix they give back.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotStrictlyIncoherentError,
    OutOfRangeError,
    ValidationError,
)
from .linalg import (
    _parity_lines,
    _parity_matrix,
    as_complex_matrix,
    check_unit_interval,
    max_abs,
)
from .states import DensityMatrix

COMPLETENESS_TOL = 1e-10
ZERO_TOL = 1e-12
# Smallest dimension whose channels record their monomial structure.
# Median time of one apply_channel call, structured / batched, in
# microseconds, on a dense full-rank state / on its dephased image (2 vCPU
# host, numpy 2.4), at d=12, 16, 24 and 64: SIO channels with 4 operators
# 59/46 60/48, 130/101 38/37, 152/136 49/57, 1104/1226 160/537;
# incoherent-only channels (d rank-one operators, one matrix product) 62/73
# 61/73, 38/71 39/73, 65/244 56/205, 404/14456 410/14842; their recoveries
# 59/62 101/102, 74/100 76/100, 121/282 160/350, 1056/16799 996/16276.
STRUCTURED_MIN_DIM = 16

_I = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


# An (n, d, d) Kraus stack as the (operator, row, column, value) arrays of
# its listed entries, each position at most once; the rest are zero.
_Entries = namedtuple("_Entries", "shape operator row column value")


def _listed(ops: np.ndarray, mask: np.ndarray) -> _Entries:
    """The stack's entries where mask holds, in (operator, row, column) order."""
    flat = np.flatnonzero(mask)
    return _Entries(ops.shape, *np.unravel_index(flat, ops.shape), ops.ravel()[flat])


def _monomial_form(ops: np.ndarray):
    """(axis, index, gain, shared) when every column (axis 1) or else every
    row (axis 2) of every operator holds at most one exactly nonzero entry:
    line j of operator n holds gain[n, j] at position index[n, j] along that
    axis (gain 0 for an empty line). shared[n] is the one position all of
    operator n's entries sit at (it is rank one), else -1; shared is None
    when no operator is rank one. None for any other stack."""
    n, d, _ = ops.shape
    nonzero = ops != 0
    if np.count_nonzero(nonzero) > n * d:  # more entries than lines
        return None
    return _entry_form(_listed(ops, nonzero))


def _entry_form(entries: _Entries):
    """_monomial_form of a stack from its listed entries."""
    (n, d, _), operator, row, column, value = entries
    if not value.all():  # a listed zero is not an entry
        kept = value != 0
        operator, row, column, value = (a[kept] for a in entries[1:])
    for axis, line, position in ((1, column, row), (2, row, column)):
        key = operator * d + line
        if _first_crowded(key, n * d) is None:
            index, gain = np.zeros((n, d), np.intp), np.zeros((n, d), np.complex128)
            np.put(index, key, position)
            np.put(gain, key, value)
            low = index.min(axis=1, where=gain != 0, initial=d)
            shared = np.where(low == index.max(axis=1), low, -1)
            return axis, index, gain, shared if shared.max() >= 0 else None
    return None


def _first_crowded(key: np.ndarray, lines: int) -> int | None:
    """The smallest key (operator * d + line < lines) seen twice, or None."""
    crowded = np.flatnonzero(np.bincount(key, minlength=lines) > 1)
    return int(crowded[0]) if len(crowded) else None


def _apply_monomial(axis: int, index, gain, shared, rho: np.ndarray):
    """sum_n K_n rho K_n^dag for a stack in _monomial_form. Its rank-one
    operators take one matrix product: g_n e_s^T (row form) adds rho[s, s]
    g_n g_n^dag and e_t g_n^T (column form) adds g_n^T rho conj(g_n) at
    (t, t), with s or t = shared[n]. The others go line by line."""
    if shared is None:
        return _apply_lines(axis, index, gain, rho)
    one = shared >= 0
    at, rank_one = shared[one], gain[one]
    if axis == 2:
        out = (rank_one.T * rho.diagonal()[at]) @ rank_one.conj()
    else:
        weight = np.einsum("nj,nj->n", rank_one @ rho, rank_one.conj())
        re, im = (np.bincount(at, w, len(rho)) for w in (weight.real, weight.imag))
        out = np.diag(re + 1j * im)
    if not one.all():
        out += _apply_lines(axis, index[~one], gain[~one], rho)
    return out


def _apply_lines(axis: int, index: np.ndarray, gain: np.ndarray, rho: np.ndarray):
    """_apply_monomial one line at a time: a gather or a scatter."""
    d = len(rho)
    if axis == 2:
        # K_n[a, s] = gain[n, a] at s = index[n, a]: rows a and b of operator
        # n read entry (index[n, a], index[n, b]) of rho.
        picked = rho.ravel().take(index[:, :, None] * d + index[:, None, :])
        picked *= gain[:, :, None] * gain.conj()[:, None, :]
        return picked.sum(axis=0)
    # K_n[t, j] = gain[n, j] at t = index[n, j]: each nonzero entry (j, k) of
    # rho lands at (index[n, j], index[n, k]). Transposed: rows take faster.
    lines, gains = np.ascontiguousarray(index.T), np.ascontiguousarray(gain.T)
    entries = np.flatnonzero(rho)
    j, k = np.divmod(entries, d)
    terms = gains.take(j, axis=0) * rho.ravel().take(entries)[:, None]
    terms *= gains.conj().take(k, axis=0)
    keys = (lines.take(j, axis=0) * d + lines.take(k, axis=0)).ravel()
    terms = terms.ravel()
    re, im = (np.bincount(keys, part, d * d) for part in (terms.real, terms.imag))
    return (re + 1j * im).reshape(d, d)


def _completeness_defect(ops: np.ndarray, form) -> float:
    """max |sum K^dag K - I|, from the stack's _monomial_form when it has one."""
    n, d, _ = ops.shape
    stacked = ops.reshape(n * d, d)
    if form is not None:
        axis, index, gain, _ = form
        weight = (gain * gain.conj()).real
        if axis == 2:  # column s collects |gain|^2 of the rows that read it
            return max_abs(np.bincount(index.ravel(), weight.ravel(), d) - 1)
        keys = (np.arange(n)[:, None] * d + index)[gain != 0]  # rows in use
        if _first_crowded(keys, n * d) is None:  # one entry a row: diagonal
            return max_abs(weight.sum(axis=0) - 1)
        stacked = stacked[np.unique(keys)]
    return max_abs(stacked.conj().T @ stacked - np.eye(d))


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

    `operators` may be a sequence of d x d matrices, an (n, d, d) array or
    its _Entries; it is stored as one read-only complex (n, d, d) array, with
    its _monomial_form from STRUCTURED_MIN_DIM on. Construction verifies that
    the values are finite and completeness: sum K^dag K = I within
    COMPLETENESS_TOL. Equality and hashing are by identity.
    """

    operators: np.ndarray
    label: str = ""
    _monomial: tuple | None = field(init=False, repr=False)

    @np.errstate(over="ignore", invalid="ignore")  # a NaN defect fails below
    def __post_init__(self):
        entries = self.operators
        if isinstance(entries, _Entries):
            ops = np.zeros(entries.shape, np.complex128)
            ops[entries[1:4]] = entries.value
            if not np.isfinite(entries.value).all():
                _operator_stack(ops)  # raises as for the dense stack
        else:
            ops, entries = _operator_stack(entries), None
        form = None
        if ops.shape[1] >= STRUCTURED_MIN_DIM:
            form = _monomial_form(ops) if entries is None else _entry_form(entries)
        defect = _completeness_defect(ops, form)
        if not defect <= COMPLETENESS_TOL:
            raise ValidationError(
                f"completeness fails: max |sum K^dag K - I| = {defect:.3e}"
            )
        ops.setflags(write=False)
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "_monomial", form)

    @property
    def dim(self) -> int:
        return self.operators.shape[1]


class _KroneckerOperators(Sequence):
    """The Kraus operators of a LocalChannel in tensor()'s order (first
    factor slowest), each Kronecker product built when it is read."""

    def __init__(self, factors: tuple[KrausChannel, ...]):
        self._factors = factors
        self._counts = tuple(len(f.operators) for f in factors)

    def __len__(self) -> int:
        return math.prod(self._counts)

    def __getitem__(self, index: int) -> np.ndarray:
        digits = np.unravel_index(range(len(self))[index], self._counts)
        stacks = (f.operators[i : i + 1] for f, i in zip(self._factors, digits))
        op = reduce(_kron, stacks)[0]
        op.setflags(write=False)
        return op


@dataclass(frozen=True, eq=False)
class LocalChannel:
    """The tensor product of its qubit factors, stored as the factors and
    their superoperators' 2 x 2 parity blocks.

    Each factor is a validated qubit KrausChannel; dim is 2 ** len(factors).
    The constructor alone judges the factors: it refuses any that is not a
    qubit strictly incoherent entry by entry. `operators` builds
    tensor(factors)'s Kronecker products one at a time, read-only, for
    callers outside the package. Equality and hashing are by identity.
    """

    factors: tuple[KrausChannel, ...]
    _blocks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValidationError("local channel needs at least one factor")
        if not all(isinstance(f, KrausChannel) for f in factors):
            raise ValidationError("local channel factors must be KrausChannels")
        qubits = all(f.dim == 2 for f in factors)
        ops = np.concatenate([f.operators for f in factors]) if qubits else None
        # classify(f, 0.0) of every factor at once: every nonzero entry counts,
        # however small
        if not qubits or _crowded_line(_listed(ops, ops != 0)) is not None:
            raise NotStrictlyIncoherentError(
                "local channel factors must be qubit and strictly incoherent "
                "entry by entry"
            )
        # _blocks[f, p][a, b] = sum_n K_n[a, b] conj(K_n[a^p, b^p]) over factor
        # f's operators: its superoperator from index pair (b, b^p) to (a, a^p).
        # einsum, not multiply: numpy's multiply may fuse a multiply-add and
        # leave |K|^2 an imaginary part at rounding level.
        pairs = np.stack([ops, ops[:, ::-1, ::-1]], axis=1).conj()
        terms = np.einsum("nab,npab->npab", ops, pairs)
        starts = np.cumsum([0] + [len(f.operators) for f in factors[:-1]])
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_blocks", np.add.reduceat(terms, starts))

    @property
    def dim(self) -> int:
        return 2 ** len(self.factors)

    @property
    def label(self) -> str:
        return " x ".join(f.label or "?" for f in self.factors)

    @property
    def operators(self) -> _KroneckerOperators:
        return _KroneckerOperators(self.factors)

    def _contract_lines(
        self, lines: np.ndarray, masks: np.ndarray, *, adjoint: bool = False
    ) -> np.ndarray:
        """sum_n K_n X K_n^dag, or with adjoint=True sum_n K_n^dag X K_n, on
        the (m, d) parity lines of X with the m parity masks; lines of any
        masks, a mask repeated included, go in one pass. Returns the lines
        of the image.

        A qubit factor's operators keep the parity a ^ a' of an index pair
        (a, a'), so line P maps into itself, and on it factor f acts by the
        2 x 2 block _blocks[f, bit f of P] (bit 0 the most significant).
        Each step multiplies every line's leading qubit index by its block
        and rotates that index to the back, so after the last factor the
        indices are back in order.
        """
        k = len(self.factors)
        bits = (masks >> np.arange(k - 1, -1, -1)[:, None]) & 1
        blocks = self._blocks[np.arange(k)[:, None], bits]  # (k, m, 2, 2)
        if adjoint:
            blocks = blocks.conj().swapaxes(-1, -2)
        x = lines.reshape(len(masks), 2, -1)
        for block in blocks:
            x = (block @ x).swapaxes(1, 2).reshape(x.shape)
        return x.reshape(lines.shape)


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
    # the _judged_entries classify scanned, which the recovery reads
    _entries: tuple | None = field(default=None, compare=False, repr=False)


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
    entries = _judged_entries(channel, zero_tol)
    crowded = _crowded_line(_Entries(channel.operators.shape, *entries))
    if crowded is None:
        return ChannelClassification(ChannelClass.STRICTLY_INCOHERENT, None, entries)
    return ChannelClassification(*crowded, entries)


def _crowded_line(entries: _Entries) -> tuple | None:
    """classify's rule on a stack's listed entries: (class, witness) of the
    first column of an operator that holds two of them (NotIncoherent), else
    of the first such row (IncoherentOnly); None when every line holds at
    most one (StrictlyIncoherent)."""
    (n, d, _), operator, row, column, _ = entries
    for kind, axis, line, position in (
        (ChannelClass.NOT_INCOHERENT, "column", column, row),
        (ChannelClass.INCOHERENT_ONLY, "row", row, column),
    ):
        key = operator * d + line
        first = _first_crowded(key, n * d)
        if first is not None:
            op, at = divmod(first, d)
            on_line = tuple(int(i) for i in position[key == first])
            return kind, ClassificationWitness(op, axis, at, on_line)
    return None


def _judged_entries(channel: KrausChannel, zero_tol: float):
    """(operator, row, column, value) of every Kraus entry with |K| >
    zero_tol, the stack classify judges and the recovery reads: from the
    _monomial form if recorded ((operator, line) order), else the stack."""
    if channel._monomial is None:
        ops = channel.operators
        return _listed(ops, np.abs(ops) > zero_tol)[1:]
    axis, index, gain, _ = channel._monomial
    flat = np.flatnonzero(np.abs(gain) > zero_tol)
    operator, line = np.divmod(flat, index.shape[1])
    position = index.ravel()[flat]
    row, column = (position, line) if axis == 1 else (line, position)
    return operator, row, column, gain.ravel()[flat]


def _check_dim(channel: KrausChannel | LocalChannel, shape: tuple) -> None:
    """Refuse a state or matrix of this shape unless it is dim x dim; a
    square one is named by its dim."""
    if shape != (channel.dim, channel.dim):
        size = shape[0] if shape == shape[:1] * 2 else shape
        raise DimensionMismatchError(
            f"channel dim {channel.dim} does not match state dim {size}"
        )


def apply_channel(
    channel: KrausChannel | LocalChannel, rho: DensityMatrix | np.ndarray
) -> DensityMatrix | np.ndarray:
    """sum_n K_n rho K_n^dag: a validated density matrix for a DensityMatrix,
    the plain matrix for a d x d matrix (the same entries, unvalidated). A
    LocalChannel evolves the matrix's parity lines (linalg._parity_lines)
    through its line kernel; a monomial stack skips the batched product."""
    state = isinstance(rho, DensityMatrix)
    x = rho.matrix if state else np.asarray(rho, dtype=np.complex128)
    _check_dim(channel, x.shape)
    if isinstance(channel, LocalChannel):
        masks, lines = _parity_lines(x)
        out = _parity_matrix(masks, channel._contract_lines(lines, masks))
    elif channel._monomial is not None:
        out = _apply_monomial(*channel._monomial, x)
    else:
        ops = channel.operators
        out = (ops @ x @ ops.conj().transpose(0, 2, 1)).sum(axis=0)
    return DensityMatrix(out) if state else out


def compose(second: KrausChannel, first: KrausChannel) -> KrausChannel:
    """The channel applying `first` then `second`."""
    if second.dim != first.dim:
        raise DimensionMismatchError(
            f"cannot compose dims {second.dim} and {first.dim}"
        )
    ops = tuple(b @ a for b in second.operators for a in first.operators)
    return KrausChannel(ops, label=f"compose({second.label},{first.label})")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every Kronecker product of an operator of stack a with one of stack
    b, a slowest, as one broadcast product: a[m, i, j] * b[n, k, l] lands
    at [m, n, i, k, j, l], entry (i k, j l) of product (m n)."""
    (n1, d1, _), (n2, d2, _) = a.shape, b.shape
    outer = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    return outer.reshape(n1 * n2, d1 * d2, d1 * d2)


def _flat_factors(channels) -> list[KrausChannel]:
    """The channels in order, each LocalChannel as its factors."""
    return [f for c in channels for f in getattr(c, "factors", (c,))]


def tensor(channels: Sequence[KrausChannel | LocalChannel]) -> KrausChannel:
    """Tensor product channel; operators are all Kronecker products, in
    itertools.product order (first factor slowest), over the flat factors."""
    channels = _flat_factors(channels)
    if not channels:
        raise ValidationError("tensor needs at least one channel")
    ops = reduce(_kron, (c.operators for c in channels))
    return KrausChannel(ops, label=" x ".join(c.label or "?" for c in channels))


def identity_channel(dim: int = 2) -> KrausChannel:
    return KrausChannel((np.eye(dim, dtype=np.complex128),), label="identity")


def _noise(kind: str, value: float, operators) -> KrausChannel:
    """The CHANNEL_FACTORIES kind's channel at value, labelled
    kind(key=value): value is checked under the kind's spec key, then
    operators(value) gives its Kraus operators."""
    key = CHANNEL_FACTORIES[kind][0]
    value = check_unit_interval(key, value)
    return KrausChannel(operators(value), label=f"{kind}({key}={value:g})")


def bit_flip(q: float) -> KrausChannel:
    """Kraus operators sqrt(1-q) I and sqrt(q) X."""
    return _noise("bitflip", q, lambda q: (np.sqrt(1 - q) * _I, np.sqrt(q) * _X))


def phase_flip(q: float) -> KrausChannel:
    """Kraus operators sqrt(1-q) I and sqrt(q) Z."""
    return _noise("phaseflip", q, lambda q: (np.sqrt(1 - q) * _I, np.sqrt(q) * _Z))


def bit_phase_flip(q: float) -> KrausChannel:
    """Kraus operators sqrt(1-q) I and sqrt(q) Y."""
    return _noise("bitphaseflip", q, lambda q: (np.sqrt(1 - q) * _I, np.sqrt(q) * _Y))


def depolarizing(q: float) -> KrausChannel:
    """Kraus operators sqrt(1-3q/4) I and sqrt(q/4) X, Y, Z."""
    return _noise(
        "depolarizing",
        q,
        lambda q: (
            np.sqrt(1 - 3 * q / 4) * _I,
            *(np.sqrt(q / 4) * pauli for pauli in (_X, _Y, _Z)),
        ),
    )


def phase_damping(lam: float) -> KrausChannel:
    """Kraus operators sqrt(1-lam) I, sqrt(lam) |0><0|, sqrt(lam) |1><1|."""
    return _noise(
        "phasedamping",
        lam,
        lambda lam: (np.sqrt(1 - lam) * _I, *(np.sqrt(lam) * np.diag(e) for e in _I)),
    )


def amplitude_damping(gamma: float) -> KrausChannel:
    """Kraus operators [[1,0],[0,sqrt(1-g)]] and [[0,sqrt(g)],[0,0]]."""
    return _noise(
        "amplitudedamping",
        gamma,
        lambda g: (((1, 0), (0, np.sqrt(1 - g))), ((0, np.sqrt(g)), (0, 0))),
    )


# Per-qubit factory registry: kind -> (spec key, constructor), the one place
# a kind's key is written; each constructor takes one probability-like
# parameter in [0, 1], written `kind key=value` in an inline channel spec
# and named by its key when out of range.
CHANNEL_FACTORIES = {
    "bitflip": ("q", bit_flip),
    "phaseflip": ("q", phase_flip),
    "bitphaseflip": ("q", bit_phase_flip),
    "depolarizing": ("q", depolarizing),
    "phasedamping": ("l", phase_damping),
    "amplitudedamping": ("g", amplitude_damping),
}


def channel_factory(kind: str):
    """The constructor of a CHANNEL_FACTORIES kind name."""
    try:
        return CHANNEL_FACTORIES[kind][1]
    except KeyError:
        raise ValidationError(f"unknown channel kind {kind!r}") from None


def local_channel(factors) -> LocalChannel | KrausChannel:
    """Tensor product of per-qubit channels: a LocalChannel when its
    constructor accepts every factor (each a qubit strictly incoherent entry
    by entry), else the dense tensor(factors).

    Factors may be KrausChannels, LocalChannels (each adds its factors) or
    (kind, parameter) pairs of CHANNEL_FACTORIES names, not all identical.
    """
    built = []
    for factor in factors:
        if not isinstance(factor, (KrausChannel, LocalChannel)):
            kind, param = factor
            factor = channel_factory(kind)(param)
        built.append(factor)
    try:
        return LocalChannel(tuple(_flat_factors(built)))
    except NotStrictlyIncoherentError:
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
