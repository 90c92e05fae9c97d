"""Validated density matrices and the coherent state families.

Basis convention: computational basis |i> for i = 0..dim-1. For N qubits the
label |l1 l2 ... lN> has l1 as the most significant bit, so the basis index of
a bit string l is sum(l_i * 2**(N-i)).
"""

from __future__ import annotations

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
    hermiticity_defect,
    is_exactly_diagonal,
    max_abs,
)

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
# Eigenvalues in [-PSD_TOL, -REPAIR_TRIGGER) are clipped to zero and the state
# renormalized; anything closer to zero is accepted verbatim so that exact
# constructor outputs keep their exact entries.
REPAIR_TRIGGER = 1e-13
WEIGHT_SUM_TOL = 1e-12
NORM_TOL = 1e-10  # |norm - 1| that from_pure accepts without normalize
DIAGONAL_TOL = 1e-12


def check_bits(bits: str) -> str:
    if not bits or any(c not in "01" for c in bits):
        raise ValidationError(f"not a bit string: {bits!r}")
    return bits


def bit_index(bits: str) -> int:
    """Basis index of |bits> with the first bit most significant."""
    return int(check_bits(bits), 2)


def complement(bits: str) -> str:
    return "".join("1" if c == "0" else "0" for c in check_bits(bits))


def hamming_weight(bits: str) -> int:
    return check_bits(bits).count("1")


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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A quantum state: Hermitian, unit-trace, positive semidefinite.

    Marginally negative spectra (down to -PSD_TOL) are repaired by clipping;
    anything worse is rejected. The stored array and its ascending spectrum
    `eigenvalues`, computed once by validation, are immutable. Equality and
    hashing are by identity: compare `.matrix` to compare entries.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = as_complex_matrix(self.matrix).copy()
        defect = hermiticity_defect(mat)
        if defect > HERMITIAN_TOL:
            raise ValidationError(f"not Hermitian: defect {defect:.3e}")
        trace_defect = abs(complex(mat.trace()) - 1.0)
        if trace_defect > TRACE_TOL:
            raise ValidationError(f"trace differs from 1 by {trace_defect:.3e}")
        eigenvalues = _spectrum(mat)
        smallest = float(eigenvalues[0])
        if smallest < -PSD_TOL:
            raise ValidationError(
                f"not positive semidefinite: smallest eigenvalue {smallest:.3e}"
            )
        if smallest < -REPAIR_TRIGGER:
            vals, vecs = np.linalg.eigh(mat)
            vals = np.clip(vals, 0.0, None)
            mat = (vecs * vals) @ vecs.conj().T
            mat /= np.trace(mat).real
            eigenvalues = _spectrum(mat)
        mat.setflags(write=False)
        eigenvalues.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_diagonal(self) -> bool:
        off = self.matrix - np.diag(self.matrix.diagonal())
        return max_abs(off) <= DIAGONAL_TOL


def from_pure(amplitudes, *, normalize: bool = False) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi| from a state vector."""
    psi = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(psi))
    if normalize:
        if norm == 0.0:
            raise NotNormalizedError("cannot normalize the zero vector")
        psi = psi / norm
    elif abs(norm - 1.0) > NORM_TOL:
        raise NotNormalizedError(f"vector norm {norm} is not 1")
    return DensityMatrix(np.outer(psi, psi.conj()))


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
    if sign in (1, +1, "+", "+1"):
        return 1
    if sign in (-1, "-", "-1"):
        return -1
    raise ValidationError(f"sign must be + or -, got {sign!r}")


def phi_state(bits: str, sign) -> DensityMatrix:
    """The pure state (|l> + sign*|l-complement>)/sqrt(2), l starting with 0:
    the mixed family with the one weight {l: 1} and p = (1 + sign)/2."""
    check_bits(bits)
    if bits[0] != "0":
        raise InvalidCanonicalFormError(
            f"bit string must start with 0, got {bits!r}"
        )
    s = _parse_sign(sign)
    return mixed_family(MixedFamilySpec(p=(1 + s) / 2, weights={bits: 1.0}))


@dataclass(frozen=True)
class MixedFamilySpec:
    """Mixing weight p for the +/- branches and a distribution over canonical
    bit strings (leading bit 0). Missing strings carry weight zero."""

    p: float
    weights: Mapping[str, float]

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise OutOfRangeError(f"p must be in [0, 1], got {self.p}")
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
            if w < 0.0:
                raise OutOfRangeError(f"weight for {bits!r} is negative: {w}")
        total = float(sum(self.weights.values()))
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights sum to {total}, expected 1")
        object.__setattr__(self, "weights", dict(self.weights))

    @property
    def num_qubits(self) -> int:
        return len(next(iter(self.weights)))


def mixed_family(spec: MixedFamilySpec) -> DensityMatrix:
    """sum_l w_l (p |phi_l+><phi_l+| + (1-p) |phi_l-><phi_l-|)."""
    return DensityMatrix(_mixed_family_matrix(spec))


def _mixed_family_matrix(spec: MixedFamilySpec) -> np.ndarray:
    """mixed_family(spec)'s matrix, built without validating it."""
    dim = 2**spec.num_qubits
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for bits, w in spec.weights.items():
        if w == 0.0:
            continue
        i, j = bit_index(bits), bit_index(complement(bits))
        mat[i, i] += 0.5 * w
        mat[j, j] += 0.5 * w
        off = 0.5 * w * (2.0 * spec.p - 1.0)
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
        bits: (1.0 + (-1.0) ** hamming_weight(bits) * c3) / scale
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


def random_pure(dim: int, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return from_pure(psi / np.linalg.norm(psi))
