import math

import numpy as np
import pytest

from cohfreeze import (
    DensityMatrix,
    DimensionMismatchError,
    OutOfRangeError,
    binary_entropy,
    bit_flip,
    c_rel_ent,
    from_pure,
    random_density,
    relative_entropy,
    tensor,
    von_neumann_entropy,
)
from cohfreeze.linalg import as_complex_matrix
from cohfreeze.errors import ValidationError

from oracles import brute_apply, jacobi_eigh, shannon_bits

X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestKron:
    def test_two_qubit_channel_agreement(self):
        # tensor-built bit flip pair versus four explicit 4x4 products, with
        # the leftmost factor on the most significant qubit
        q1, q2 = 0.2, 0.7
        pair = tensor([bit_flip(q1), bit_flip(q2)]).operators
        rho = random_density(4, 4, seed=3).matrix
        direct = brute_apply(pair, rho)
        k0 = [np.sqrt(1 - q1) * np.eye(2), np.sqrt(q1) * X]
        k1 = [np.sqrt(1 - q2) * np.eye(2), np.sqrt(q2) * X]
        expected = sum(
            np.kron(a, b) @ rho @ np.kron(a, b).conj().T for a in k0 for b in k1
        )
        np.testing.assert_allclose(direct, expected, atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            as_complex_matrix(np.ones((2, 3)))


class TestVonNeumannEntropy:
    def test_pure_state_is_zero(self):
        assert von_neumann_entropy(from_pure([1.0, 0.0])) == 0.0
        assert von_neumann_entropy(random_density(5, 1, seed=1)) <= 1e-12

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_three_quarter(self):
        value = von_neumann_entropy(np.diag([0.25, 0.75]).astype(complex))
        assert value == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_range(self):
        rho = random_density(8, 8, seed=5)
        s = von_neumann_entropy(rho)
        assert 0.0 <= s <= 3.0

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32, 64])
    def test_matches_jacobi_oracle(self, dim):
        rho = random_density(dim, dim, seed=dim)
        oracle_vals, _ = jacobi_eigh(rho.matrix)
        entropy = shannon_bits(oracle_vals)
        assert von_neumann_entropy(rho) == pytest.approx(entropy, abs=1e-9)
        coherence = shannon_bits(rho.matrix.diagonal().real) - entropy
        assert c_rel_ent(rho) == pytest.approx(coherence, abs=1e-9)


class TestRelativeEntropy:
    def test_identical_arguments(self):
        rho = random_density(4, 4, seed=9)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports(self):
        zero = from_pure([1.0, 0.0])
        one = from_pure([0.0, 1.0])
        assert relative_entropy(zero, one) == math.inf

    def test_plus_versus_maximally_mixed(self):
        plus = from_pure(np.array([1.0, 1.0]) / np.sqrt(2))
        mixed = DensityMatrix(np.eye(2, dtype=complex) / 2)
        assert relative_entropy(plus, mixed) == pytest.approx(1.0, abs=1e-12)

    def test_matches_jacobi_oracle(self):
        # Tr rho log2 rho - sum_i <v_i|rho|v_i> log2 s_i over sigma's Jacobi
        # eigenpairs (s_i, v_i)
        rho = random_density(8, 8, seed=7).matrix
        sigma = random_density(8, 8, seed=8).matrix
        rho_vals, _ = jacobi_eigh(rho)
        sigma_vals, sigma_vecs = jacobi_eigh(sigma)
        weights = np.einsum("ji,jk,ki->i", sigma_vecs.conj(), rho, sigma_vecs).real
        expected = -shannon_bits(rho_vals) - float(np.sum(weights * np.log2(sigma_vals)))
        assert relative_entropy(rho, sigma) == pytest.approx(expected, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            relative_entropy(np.eye(2) / 2, np.eye(4) / 4)


class TestBinaryEntropy:
    @pytest.mark.parametrize("p,expected", [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)])
    def test_endpoints_and_midpoint(self, p, expected):
        assert binary_entropy(p) == pytest.approx(expected, abs=1e-15)

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_out_of_range(self, p):
        with pytest.raises(OutOfRangeError):
            binary_entropy(p)
