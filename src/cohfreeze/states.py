"""Validated density matrices, never repaired, and the coherent state families.

Basis convention: computational basis |i> for i = 0..dim-1. For N qubits the
label |l1 l2 ... lN> has l1 as the most significant bit, so the basis index of
a bit string l is sum(l_i * 2**(N-i)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    BadRankError,
    InvalidCanonicalFormError,
    NotNormalizedError,
    OutOfRangeError,
    ValidationError,
)
from .linalg import (
    as_complex_matrix,
    check_unit_interval,
    is_exactly_diagonal,
    max_abs,
)

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-12
NORM_TOL = 1e-10  # |norm - 1| that from_pure accepts without normalize


def check_bits(bits: str) -> str:
    if not bits or any(c not in "01" for c in bits):
        raise ValidationError(f"not a bit string: {bits!r}")
    return bits


def canonical_bitstrings(num_qubits: int) -> list[str]:
    """All length-N bit strings with a leading 0, in ascending index order."""
    if num_qubits < 1:
        raise ValidationError("need at least one qubit")
    return [format(i, f"0{num_qubits}b") for i in range(2 ** (num_qubits - 1))]


def _spectrum(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix. With every off-diagonal
    entry exactly zero they are the sorted real diagonal: the values eigvalsh
    returns for such a matrix, bit for bit up to the sign of a zero, without
    calling LAPACK."""
    if is_exactly_diagonal(mat):
        return np.sort(mat.diagonal().real)
    return np.linalg.eigvalsh(mat)


# The decorator form sets numpy's error state for about half the cost of a
# with-block, paid on every state.
@np.errstate(over="ignore", invalid="ignore")
def _checked(entries, adjoint, diagonal, spectrum) -> np.ndarray:
    """The eigenvalues spectrum(entries) of a state stored as entries, with
    its adjoint stored alike and its diagonal, after the three rules of a
    DensityMatrix: Hermiticity and trace defects within HERMITIAN_TOL and
    TRACE_TOL (the spectrum is not computed otherwise), and a smallest
    eigenvalue of at least -PSD_TOL. Finite entries near the float limit
    overflow here: a defect is then inf or NaN, which fails its rule as
    any NaN does, and numpy warns of nothing."""
    defect = max_abs(entries - adjoint)
    trace_defect = abs(complex(diagonal.sum()) - 1.0)
    if not defect <= HERMITIAN_TOL:
        raise ValidationError(f"not Hermitian: defect {defect:.3e}")
    if not trace_defect <= TRACE_TOL:
        raise ValidationError(f"trace differs from 1 by {trace_defect:.3e}")
    eigenvalues = spectrum(entries)
    smallest = float(eigenvalues.min())
    if not smallest >= -PSD_TOL:
        raise ValidationError(
            f"not positive semidefinite: smallest eigenvalue {smallest:.3e}"
        )
    return eigenvalues


def _block_spectrum(lines: np.ndarray) -> np.ndarray:
    """The eigenvalues of the X matrix with these (2, d) lines, its
    diagonal and anti-diagonal (linalg._parity_lines), block by block: each
    pair {i, d-1-i}, i < d/2, spans the 2 x 2 block [[a, conj(z)], [z, b]]
    of the real diagonal entries and the lower-triangle entry
    z = matrix[d-1-i, i], the entries eigvalsh reads. Unsorted: the lower
    eigenvalue of each block, then the upper."""
    half = lines.shape[1] // 2
    top, bottom = lines[:, :half], lines[:, ::-1][:, :half]
    a, b = top[0].real, bottom[0].real
    mean, radius = (a + b) / 2, np.hypot((a - b) / 2, np.abs(bottom[1]))
    return np.concatenate([mean - radius, mean + radius])


def _x_spectrum(lines: np.ndarray) -> np.ndarray:
    """The eigenvalues of the X matrix with these (2, d) lines, which is
    refused exactly as DensityMatrix would refuse it, with its messages."""
    adjoint = np.stack([lines[0].conj(), lines[1, ::-1].conj()])
    return _checked(lines, adjoint, lines[0], _block_spectrum)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A quantum state: Hermitian, unit-trace, positive semidefinite.

    A smallest eigenvalue down to -PSD_TOL is accepted, anything lower is
    rejected, and an accepted matrix is stored exactly as given: nothing is
    clipped or renormalised. The stored array and its ascending spectrum
    `eigenvalues` (_spectrum of that array, computed once by validation)
    are immutable. `eigenvalues` is the spectrum of the Hermitian matrix
    whose lower triangle is stored, the entries eigvalsh reads; c_l1 reads
    both triangles, and the Hermiticity rule bounds their difference by
    HERMITIAN_TOL. Equality and hashing are by identity: compare `.matrix`
    to compare entries.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = as_complex_matrix(self.matrix).copy()
        eigenvalues = _checked(mat, mat.conj().T, mat.diagonal(), _spectrum)
        mat.setflags(write=False)
        eigenvalues.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def from_pure(amplitudes, *, normalize: bool = False) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi| from a state vector."""
    psi = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if not np.isfinite(psi).all():
        raise ValidationError("matrix entries must be finite")
    # Dividing by the power of two at its largest part, a normal number, is
    # exact: the squares stay in range, and psi / |psi| keeps its bits.
    largest = float(np.abs(np.stack([psi.real, psi.imag])).max(initial=0.0))
    scale = max(math.ldexp(0.5, math.frexp(largest)[1]), np.finfo(float).tiny)
    norm = float(np.linalg.norm(psi / scale))
    if normalize:
        if norm == 0.0:
            raise NotNormalizedError("cannot normalize the zero vector")
        psi = psi / scale / norm
    elif abs(scale * norm - 1.0) > NORM_TOL:
        raise NotNormalizedError(f"vector norm {scale * norm} is not 1")
    mat = np.outer(psi, psi.conj())
    # psi_i * conj(psi_i) is real; the complex product may round it otherwise.
    np.fill_diagonal(mat, mat.diagonal().real)
    return DensityMatrix(mat)


def dephase(rho: DensityMatrix) -> DensityMatrix:
    """Project onto the diagonal, keeping the diagonal entries exactly."""
    return DensityMatrix(np.diag(rho.matrix.diagonal()))


def basis_state(dim: int, index: int) -> DensityMatrix:
    if not 0 <= index < dim:
        raise OutOfRangeError(f"basis index {index} outside 0..{dim - 1}")
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[index, index] = 1.0
    return DensityMatrix(mat)


def _parse_sign(sign) -> int:
    if sign not in ("+", "-"):
        raise ValidationError(f"sign must be + or -, got {sign!r}")
    return 1 if sign == "+" else -1


def phi_spec(bits: str, sign) -> MixedFamilySpec:
    """The pure state (|l> + sign*|l-complement>)/sqrt(2), l starting with 0
    and sign "+" or "-", as the mixed family with the one weight {l: 1} and
    p = 1 or 0."""
    if check_bits(bits)[0] != "0":
        raise InvalidCanonicalFormError(f"bit string must start with 0, got {bits!r}")
    return MixedFamilySpec(p=(1 + _parse_sign(sign)) / 2, weights={bits: 1.0})


def phi_state(bits: str, sign) -> DensityMatrix:
    """The pure state of phi_spec(bits, sign)."""
    return mixed_family(phi_spec(bits, sign))


def _check_weight(bits: str, w: float) -> float:
    """The weight of bit string `bits`, refused unless it is >= 0."""
    if not w >= 0.0:  # NaN fails too
        raise OutOfRangeError(f"weight for {bits!r} must be >= 0, got {w}")
    return w


@dataclass(frozen=True)
class MixedFamilySpec:
    """Mixing weight p for the +/- branches and a distribution over canonical
    bit strings (leading bit 0). Missing strings carry weight zero."""

    p: float
    weights: Mapping[str, float]

    def __post_init__(self):
        check_unit_interval("p", self.p)
        if not self.weights:
            raise ValidationError("weights must not be empty")
        lengths = {len(bits) for bits in self.weights}
        if len(lengths) != 1:
            raise ValidationError("weight keys must share one bit length")
        for bits, w in self.weights.items():
            check_bits(bits)
            if bits[0] != "0":
                raise InvalidCanonicalFormError(
                    f"weight key {bits!r} must start with 0"
                )
            _check_weight(bits, w)
        total = float(sum(self.weights.values()))
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise ValidationError(f"weights sum to {total}, expected 1")
        object.__setattr__(self, "weights", dict(self.weights))

    @property
    def num_qubits(self) -> int:
        return len(next(iter(self.weights)))


def mixed_family(spec: MixedFamilySpec) -> DensityMatrix:
    """sum_l w_l (p |phi_l+><phi_l+| + (1-p) |phi_l-><phi_l-|)."""
    return DensityMatrix(_mixed_family_matrix(spec.p, spec.weights))


def _mixed_family_matrix(p: float, weights: Mapping[str, float]) -> np.ndarray:
    """mixed_family's matrix for p and weights, built without validating it."""
    dim = 2 ** len(next(iter(weights)))
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for bits, w in weights.items():
        i = int(bits, 2)
        j = dim - 1 - i  # the complement's index
        mat[i, i] += 0.5 * w
        mat[j, j] += 0.5 * w
        off = 0.5 * w * (2.0 * p - 1.0)
        # +=, not =: a zero weight at p < 1/2 gives off = -0.0, and adding
        # it keeps the +0.0 that was there.
        mat[i, j] += off
        mat[j, i] += off
    return mat


def _random_weights(num_qubits: int, rng: np.random.Generator) -> dict[str, float]:
    """Uniform draws over the canonical bit strings, normalised to sum 1."""
    raw = rng.random(2 ** (num_qubits - 1))
    raw /= raw.sum()
    return dict(zip(canonical_bitstrings(num_qubits), raw.tolist()))


def bromley_spec(num_qubits: int, c1: float, c3: float) -> MixedFamilySpec:
    """Even-N Bromley-Cianciaruso-Adesso state: p = (1+c1)/2 and weights
    (1 + (-1)^w(l) c3) / 2^(N-1)."""
    if num_qubits < 2 or num_qubits % 2 != 0:
        raise ValidationError("this preset needs an even number of qubits >= 2")
    if not -1.0 <= c1 <= 1.0 or not -1.0 <= c3 <= 1.0:
        raise OutOfRangeError("c1 and c3 must be in [-1, 1]")
    scale = 2.0 ** (num_qubits - 1)
    weights = {
        bits: (1.0 + (-1.0) ** bits.count("1") * c3) / scale
        for bits in canonical_bitstrings(num_qubits)
    }
    return MixedFamilySpec(p=(1.0 + c1) / 2.0, weights=weights)


def random_density(dim: int, rank: int, seed: int) -> DensityMatrix:
    """Normalized G G^dag with complex Gaussian G of shape dim x rank."""
    if not 1 <= rank <= dim:
        raise BadRankError(f"rank must be in 1..{dim}, got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat).real)
