import dataclasses

import numpy as np
import pytest

from cohfreeze import (
    BadRankError,
    DensityMatrix,
    InvalidCanonicalFormError,
    MixedFamilySpec,
    NotNormalizedError,
    OutOfRangeError,
    ValidationError,
    basis_state,
    bit_index,
    bromley_report,
    bromley_spec,
    canonical_bitstrings,
    complement,
    dephase,
    from_pure,
    hamming_weight,
    mixed_family,
    phi_state,
    random_density,
    random_pure,
    reproduce_pure_family,
)
from cohfreeze import experiments
from cohfreeze.channels import random_sio_channel, apply_channel
from cohfreeze.linalg import max_abs


class TestBitStrings:
    def test_index_convention_msb_first(self):
        assert bit_index("010") == 2
        assert bit_index("10") == 2
        assert bit_index("0") == 0

    def test_complement_and_weight(self):
        assert complement("010") == "101"
        assert hamming_weight("0110") == 2

    def test_canonical_strings(self):
        assert canonical_bitstrings(2) == ["00", "01"]
        assert len(canonical_bitstrings(4)) == 8

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            bit_index("01a")


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="positive"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_repairs_marginally_negative_spectrum(self):
        eps = 5e-11
        rho = DensityMatrix(np.diag([1.0 + eps, -eps]).astype(complex))
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-15
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-14)

    def test_matrix_is_immutable(self):
        rho = basis_state(2, 0)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0


def _count_calls(monkeypatch, owner, *names):
    """Wrap each owner.<name> so that every call appends its name to the
    returned list."""
    calls = []

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return counted

    for name in names:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    return calls


class TestStoredSpectrum:
    """rho.eigenvalues is validation's ascending spectrum of rho.matrix,
    equal entry for entry to what numpy.linalg.eigvalsh returns for it."""

    @pytest.mark.parametrize("dim", range(1, 65))
    def test_random_densities(self, dim):
        for rank in sorted({1, (dim + 1) // 2, dim}):
            rho = random_density(dim, rank, seed=1000 * dim + rank)
            np.testing.assert_array_equal(
                rho.eigenvalues, np.linalg.eigvalsh(rho.matrix)
            )

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 7, 8, 16, 33, 64])
    def test_exactly_diagonal_matrices_skip_lapack(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        for _ in range(20):
            probs = rng.random(dim) * (rng.random(dim) < 0.6)
            top = int(np.argmax(probs))
            probs[top] += 1.0
            probs /= probs.sum()
            negative = rng.random(dim) < 0.2
            negative[top] = False
            probs[negative] = -1e-14
            probs[top] += 1.0 - probs.sum()
            mat = np.diag(probs).astype(complex)
            expected = np.linalg.eigvalsh(mat)
            calls = _count_calls(monkeypatch, np.linalg, "eigvalsh")
            rho = DensityMatrix(mat)
            monkeypatch.undo()
            assert calls == []
            np.testing.assert_array_equal(rho.eigenvalues, expected)
            np.testing.assert_array_equal(
                rho.eigenvalues, np.linalg.eigvalsh(rho.matrix)
            )

    def test_repaired_matrix(self):
        eps = 5e-11
        raw = np.array([[0.5, 0.5 + eps], [0.5 + eps, 0.5]], dtype=complex)
        assert np.linalg.eigvalsh(raw)[0] < -1e-13  # takes the repair
        rho = DensityMatrix(raw)
        assert not np.array_equal(rho.matrix, raw)
        np.testing.assert_array_equal(
            rho.eigenvalues, np.linalg.eigvalsh(rho.matrix)
        )
        assert rho.eigenvalues[0] >= -1e-15

    def test_every_final_state_of_a_pure_family_sweep(self, monkeypatch):
        certificates = []
        certify = experiments.certify_freezing

        def recording(*args, **kwargs):
            certificates.append(certify(*args, **kwargs))
            return certificates[-1]

        monkeypatch.setattr(experiments, "certify_freezing", recording)
        reproduce_pure_family(3, "010", "-")
        assert len(certificates) == 6**3
        for certificate in certificates:
            rho = certificate.final_state
            np.testing.assert_array_equal(
                rho.eigenvalues, np.linalg.eigvalsh(rho.matrix)
            )

    def test_read_only_and_not_in_repr(self):
        rho = random_density(3, 2, seed=5)
        with pytest.raises(ValueError):
            rho.eigenvalues[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rho.eigenvalues = np.zeros(3)
        with pytest.raises(TypeError):
            DensityMatrix(rho.matrix, eigenvalues=rho.eigenvalues)
        assert "eigenvalues" not in repr(rho)

    def test_bromley_sweep_decomposes_at_most_twice_per_point(self, monkeypatch):
        calls = _count_calls(monkeypatch, np.linalg, "eigvalsh", "eigh")
        report = bromley_report(0.5, 0.2)
        assert len(report.table.rows) == 11
        # Two per point (the evolved and the recovered state) and one for the
        # initial state; every dephased or diagonal state skips LAPACK.
        assert len(calls) <= 2 * len(report.table.rows) + 1


class TestFromPure:
    def test_basis_vector(self):
        rho = from_pure([1.0, 0.0])
        np.testing.assert_array_equal(rho.matrix, np.diag([1.0, 0.0]))

    def test_uniform_superposition(self):
        rho = from_pure(np.array([1.0, 1.0]) / np.sqrt(2))
        np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-15)

    def test_rank_one(self):
        rho = from_pure(np.array([1.0, 1.0, 1.0, 1.0]) / 2.0)
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert purity == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            from_pure([1.0, 1.0])

    def test_normalize_flag(self):
        rho = from_pure([3.0, 4.0], normalize=True)
        np.testing.assert_allclose(np.diag(rho.matrix).real, [0.36, 0.64])


class TestDephase:
    def test_fixed_point_on_diagonal_states(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        np.testing.assert_array_equal(dephase(rho).matrix, rho.matrix)

    def test_plus_becomes_maximally_mixed(self):
        plus = from_pure(np.array([1.0, 1.0]) / np.sqrt(2))
        out = dephase(plus)
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-15)
        # off-diagonals are exact zeros, diagonal is carried over verbatim
        assert out.matrix[0, 1] == 0 and out.matrix[1, 0] == 0
        np.testing.assert_array_equal(
            out.matrix.diagonal(), plus.matrix.diagonal()
        )

    def test_idempotent(self):
        rho = random_density(6, 6, seed=2)
        once = dephase(rho)
        np.testing.assert_array_equal(dephase(once).matrix, once.matrix)

    def test_sio_channels_preserve_diagonality(self):
        # evolved dephased states stay diagonal under strictly incoherent maps
        for seed in range(5):
            rho = random_density(4, 4, seed=seed)
            channel = random_sio_channel(4, 3, seed=seed + 100)
            evolved = apply_channel(channel, dephase(rho))
            assert evolved.is_diagonal()


class TestPhiState:
    def test_bell_state(self):
        rho = phi_state("00", "+")
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = expected[0, 3] = expected[3, 0] = 0.5
        np.testing.assert_array_equal(rho.matrix.real, expected)

    def test_ghz_state(self):
        rho = phi_state("000", "+")
        psi = np.zeros(8)
        psi[0] = psi[7] = 1.0 / np.sqrt(2)
        np.testing.assert_allclose(rho.matrix, np.outer(psi, psi), atol=1e-15)

    def test_minus_sign(self):
        rho = phi_state("01", "-")
        assert rho.matrix[1, 2] == pytest.approx(-0.5)
        assert rho.matrix[1, 1] == pytest.approx(0.5)

    def test_enforces_leading_zero(self):
        with pytest.raises(InvalidCanonicalFormError):
            phi_state("10", "+")

    def test_orthogonality_across_family(self):
        states = [
            phi_state(bits, sign)
            for bits in canonical_bitstrings(3)
            for sign in ("+", "-")
        ]
        for i, a in enumerate(states):
            for b in states[i + 1 :]:
                overlap = abs(np.trace(a.matrix @ b.matrix))
                assert overlap <= 1e-12


class TestMixedFamily:
    def test_degenerate_mixture_is_ghz(self):
        # every canonical string and sign: p = 1 (+) or 0 (-), one weight,
        # equal bit for bit to phi_state and to its four entries set by hand
        for n in range(1, 7):
            dim = 2**n
            for bits in canonical_bitstrings(n):
                i, j = bit_index(bits), bit_index(complement(bits))
                for sign, p in (("+", 1.0), ("-", 0.0)):
                    spec = MixedFamilySpec(p=p, weights={bits: 1.0})
                    expected = np.zeros((dim, dim), dtype=complex)
                    expected[i, i] = expected[j, j] = 0.5
                    expected[i, j] = expected[j, i] = 0.5 if sign == "+" else -0.5
                    np.testing.assert_array_equal(mixed_family(spec).matrix, expected)
                    np.testing.assert_array_equal(
                        phi_state(bits, sign).matrix, expected
                    )

    def test_half_mixture_is_incoherent(self):
        spec = MixedFamilySpec(p=0.5, weights={"00": 0.3, "01": 0.7})
        rho = mixed_family(spec)
        assert not np.any(rho.matrix - np.diag(rho.matrix.diagonal()))

    def test_bromley_parametrization(self):
        # matches (I + c1 XX - c1 c3 YY + c3 ZZ)/4 entrywise
        c1, c3 = 0.6, 0.2
        rho = mixed_family(bromley_spec(2, c1, c3))
        x = np.array([[0, 1], [1, 0]])
        y = np.array([[0, -1j], [1j, 0]])
        z = np.diag([1, -1])
        expected = (
            np.eye(4)
            + c1 * np.kron(x, x)
            - c1 * c3 * np.kron(y, y)
            + c3 * np.kron(z, z)
        ) / 4
        assert max_abs(rho.matrix - expected) <= 1e-15

    def test_bromley_needs_even_qubits(self):
        with pytest.raises(ValidationError):
            bromley_spec(3, 0.5, 0.5)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            MixedFamilySpec(p=0.5, weights={"00": 0.5, "01": 0.4})

    def test_weights_must_be_canonical(self):
        with pytest.raises(InvalidCanonicalFormError):
            MixedFamilySpec(p=0.5, weights={"10": 1.0})

    def test_p_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            MixedFamilySpec(p=1.5, weights={"00": 1.0})


class TestRandomStates:
    def test_rank_one_purity(self):
        rho = random_density(4, 1, seed=0)
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert purity == pytest.approx(1.0, abs=1e-10)

    def test_seed_sensitivity(self):
        a = random_density(4, 4, seed=1)
        b = random_density(4, 4, seed=2)
        assert max_abs(a.matrix - b.matrix) > 1e-3

    def test_determinism(self):
        a = random_density(4, 2, seed=42)
        b = random_density(4, 2, seed=42)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_bad_rank(self):
        with pytest.raises(BadRankError):
            random_density(4, 5, seed=0)
        with pytest.raises(BadRankError):
            random_density(4, 0, seed=0)

    def test_ensemble_mean_near_maximally_mixed(self):
        mean = np.zeros((2, 2), dtype=complex)
        for seed in range(1000):
            mean += random_density(2, 2, seed=seed).matrix
        mean /= 1000
        assert max_abs(mean - np.eye(2) / 2) <= 5e-2

    def test_random_pure_is_pure(self):
        rho = random_pure(8, seed=3)
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_all_constructors_pass_invariants(self):
        # invariants re-checked by reconstructing through the validator
        for rho in [
            phi_state("01", "-"),
            mixed_family(MixedFamilySpec(p=0.3, weights={"00": 0.4, "01": 0.6})),
            random_density(8, 3, seed=11),
            basis_state(4, 2),
        ]:
            DensityMatrix(rho.matrix)
