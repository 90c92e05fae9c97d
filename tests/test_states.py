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
    bromley_report,
    bromley_spec,
    c_l1,
    canonical_bitstrings,
    dephase,
    from_pure,
    measure_panel,
    mixed_family,
    phi_state,
    random_density,
    reproduce_pure_family,
)
from cohfreeze import experiments
from cohfreeze.channels import random_sio_channel, apply_channel
from cohfreeze.cli import main
from cohfreeze.linalg import is_exactly_diagonal, max_abs
from cohfreeze.states import PSD_TOL, check_bits

from oracles import shannon_bits


class TestBitStrings:
    def test_index_convention_msb_first(self):
        # the family matrix places |l1 l2 ...> at index sum(l_i 2^(N-i))
        assert phi_state("010", "+").matrix[2, 2] == 0.5
        assert phi_state("01", "+").matrix[2, 2] == 0.5  # |10> of |01> + |10>
        assert phi_state("0", "+").matrix[0, 0] == 0.5

    def test_complement_and_weight(self):
        # |010> pairs with its complement |101>, index 5 = 8 - 1 - 2
        rho = phi_state("010", "-")
        assert rho.matrix[2, 5] == rho.matrix[5, 2] == -0.5
        assert rho.matrix[5, 5] == 0.5

    def test_canonical_strings(self):
        assert canonical_bitstrings(2) == ["00", "01"]
        assert len(canonical_bitstrings(4)) == 8

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError, match="not a bit string"):
            check_bits("01a")
        with pytest.raises(ValidationError, match="not a bit string"):
            MixedFamilySpec(p=1.0, weights={"01a": 1.0})


BROMLEY_RANGE = "c1 and c3 must be in [-1, 1]"


class TestRefusals:
    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: canonical_bitstrings(0), ValidationError, "need at least one qubit"),
            (lambda: basis_state(4, 4), OutOfRangeError, "basis index 4 outside 0..3"),
            (
                lambda: MixedFamilySpec(p=0.5, weights={}),
                ValidationError,
                "weights must not be empty",
            ),
            (
                lambda: MixedFamilySpec(p=0.5, weights={"00": 0.5, "011": 0.5}),
                ValidationError,
                "weight keys must share one bit length",
            ),
            (lambda: bromley_spec(2, 1.5, 0.0), OutOfRangeError, BROMLEY_RANGE),
            (lambda: bromley_spec(2, 0.0, -1.5), OutOfRangeError, BROMLEY_RANGE),
        ],
        ids=["no-qubits", "basis-index", "no-weights", "mixed-lengths", "c1", "c3"],
    )
    def test_type_and_message(self, build, error, message):
        with pytest.raises(ValidationError) as excinfo:
            build()
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message


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

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([1e308, 1e308, 1e308, 1e308], "trace differs from 1 by inf"),
            ([1, 1e308, -1e308, 0], "not Hermitian: defect inf"),
        ],
        ids=["trace-overflows", "defect-overflows"],
    )
    def test_overflow_is_refused_without_a_warning(self, entries, message, capsys):
        # pyproject's filterwarnings = error turns any numpy warning into a failure
        with pytest.raises(ValidationError) as excinfo:
            DensityMatrix(np.reshape(entries, (2, 2)))
        assert str(excinfo.value) == message
        spec = "raw dim=2 entries=[" + ",".join(map(str, entries)) + "]"
        assert main(["measure", "--state", spec]) == 3
        assert capsys.readouterr().err == f"validation error: {message}\n"

    def test_nan_trace_defect_is_refused(self):
        mat = np.diag([1e308] * 6 + [-1e308] * 6)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(np.trace(mat))  # summed pairwise: inf + -inf
        with pytest.raises(ValidationError, match="^trace differs from 1 by nan$"):
            DensityMatrix(mat)

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

    def test_marginally_negative_matrix_is_kept_as_given(self):
        entries = [[0.5, 0.5 + 5e-11], [0.5 + 5e-11, 0.5]]
        raw = np.array(entries, dtype=complex)
        assert -PSD_TOL <= np.linalg.eigvalsh(raw)[0] < -1e-13
        rho = DensityMatrix(entries)
        np.testing.assert_array_equal(rho.matrix, raw)
        np.testing.assert_array_equal(rho.eigenvalues, np.linalg.eigvalsh(raw))

    def test_every_final_state_of_a_pure_family_sweep(self, monkeypatch):
        certificates = []
        certify = experiments.certify_freezing

        def recording(*args, **kwargs):
            certificates.append(certify(*args, **kwargs))
            return certificates[-1]

        monkeypatch.setattr(experiments, "certify_freezing", recording)
        reproduce_pure_family("010", "-")
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


def _near_psd_matrix(rng: np.random.Generator) -> np.ndarray:
    """A Hermitian unit-trace matrix at d = 2..64 whose smallest eigenvalue
    lies in [-PSD_TOL, -1e-13): a random spectrum with one eigenvalue -eps,
    in an eigenbasis turned away from the computational basis by a scale of
    1e-8..1 (its coherence), half of the draws with populations below 1e-6."""
    while True:
        dim = int(rng.integers(2, 65))
        eps = 10.0 ** rng.uniform(-13, -10)
        vals = rng.random(dim)
        if rng.random() < 0.5:
            vals[rng.random(dim) < 0.3] *= 1e-7
        vals[0] = 0.0
        vals *= (1.0 + eps) / vals.sum()
        vals[0] = -eps
        scale = 10.0 ** rng.uniform(-8, 0)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        basis, _ = np.linalg.qr(np.eye(dim) + scale * g)
        mat = (basis * vals) @ basis.conj().T
        mat = (mat + mat.conj().T) / 2
        if -PSD_TOL <= np.linalg.eigvalsh(mat)[0] < -1e-13:
            return mat


def _repaired_c_rel_ent(mat: np.ndarray) -> float:
    """c_rel_ent of mat with its spectrum clipped at 0 and renormalised."""
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    repaired = (vecs * vals) @ vecs.conj().T / vals.sum()
    return shannon_bits(repaired.diagonal().real) - shannon_bits(vals / vals.sum())


class TestNearPsdStates:
    """A state with a smallest eigenvalue in [-PSD_TOL, 0) is measured as
    given, and its coherence stays near that of its clipped spectrum."""

    def test_measured_as_given_near_the_clipped_state(self):
        # Clipping eigenvalues of total weight E <= PSD_TOL moves the
        # populations by E in all, which moves S(diag) by up to about
        # E log2(d / E), and renormalising moves S(rho) by up to about
        # E (log2 d + 2): 4.7e-9 at E = 1e-10 and d = 64.
        rng = np.random.default_rng(2016)
        for _ in range(300):
            mat = _near_psd_matrix(rng)
            rho = DensityMatrix(mat)
            np.testing.assert_array_equal(rho.matrix, mat)
            report = measure_panel(rho)
            assert abs(report.c_rel_ent - _repaired_c_rel_ent(mat)) <= 5e-9


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

    @pytest.mark.parametrize("magnitude", [1e-170, 1e200, 5e-324, 1e308])
    def test_tiny_or_huge_amplitudes_normalize(self, magnitude):
        # their squared norm under- or overflows; the result is |+>
        rho = from_pure([magnitude, magnitude], normalize=True)
        plus = from_pure([1.0, 1.0], normalize=True)
        np.testing.assert_array_equal(rho.matrix, plus.matrix)
        assert c_l1(rho) == pytest.approx(1.0, abs=1e-15)

    def test_huge_unnormalized_amplitudes_report_a_finite_norm(self):
        with pytest.raises(NotNormalizedError, match=r"vector norm 1\.41421356\d*e\+200 is"):
            from_pure([1e200, 1e200])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1, np.inf)])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_non_finite_amplitudes_refused_first(self, bad, normalize):
        with pytest.raises(ValidationError, match="^matrix entries must be finite$"):
            from_pure([bad, 1.0], normalize=normalize)

    def test_zero_vector_keeps_its_message(self):
        with pytest.raises(NotNormalizedError, match="cannot normalize the zero vector"):
            from_pure([0.0, 0.0], normalize=True)
        with pytest.raises(NotNormalizedError, match="vector norm 0.0 is not 1"):
            from_pure([0.0, 0.0])

    def test_ordinary_vectors_normalize_to_the_same_bits(self):
        # the scale is a power of two, so psi / |psi| is unchanged; only the
        # diagonal's rounded imaginary parts are dropped
        rng = np.random.default_rng(17)
        for dim in (1, 2, 3, 5, 8, 64):
            for spread in (1e-3, 1.0, 1e3):
                psi = spread * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
                unit = psi / np.linalg.norm(psi)
                rho = from_pure(psi, normalize=True)
                outer = np.outer(unit, unit.conj())
                np.testing.assert_array_equal(rho.matrix.real, outer.real)
                off = ~np.eye(dim, dtype=bool)
                np.testing.assert_array_equal(rho.matrix[off], outer[off])
                assert not rho.matrix.diagonal().imag.any()
                assert np.trace(rho.matrix).imag == 0.0


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
            assert is_exactly_diagonal(evolved.matrix)


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

    @pytest.mark.parametrize("sign", [1, -1, "+1", "-1"], ids=repr)
    def test_sign_is_plus_or_minus_only(self, sign):
        # the spelling of the spec grammar, sign=+ or sign=-
        with pytest.raises(ValidationError) as refused:
            phi_state("00", sign)
        assert str(refused.value) == f"sign must be + or -, got {sign!r}"

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
                i = int(bits, 2)
                j = int(bits.translate(str.maketrans("01", "10")), 2)
                for sign, p in (("+", 1.0), ("-", 0.0)):
                    spec = MixedFamilySpec(p=p, weights={bits: 1.0})
                    expected = np.zeros((dim, dim), dtype=complex)
                    expected[i, i] = expected[j, j] = 0.5
                    expected[i, j] = expected[j, i] = 0.5 if sign == "+" else -0.5
                    np.testing.assert_array_equal(mixed_family(spec).matrix, expected)
                    np.testing.assert_array_equal(
                        phi_state(bits, sign).matrix, expected
                    )

    def test_a_zero_weight_stores_no_negative_zero(self):
        # at p < 1/2 a zero weight's coherence is -0.0, which would show in
        # the matrix bytes
        spec = MixedFamilySpec(p=0.2, weights={"000": 0.0, "010": 0.4, "011": 0.6})
        matrix = mixed_family(spec).matrix
        zeros = matrix[matrix == 0]
        assert not np.signbit(zeros.real).any()
        assert not np.signbit(zeros.imag).any()

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

    @pytest.mark.parametrize(
        "weights, named",
        [
            ({"00": float("nan")}, "'00'"),
            ({"00": 1.0, "01": float("nan")}, "'01'"),
            ({"00": -0.5, "01": 1.5}, "'00'"),
        ],
    )
    def test_nan_or_negative_weight_is_named(self, weights, named):
        with pytest.raises(OutOfRangeError, match=f"weight for {named}"):
            MixedFamilySpec(p=0.5, weights=weights)

    @pytest.mark.parametrize("bad", [float("inf"), 1e300])
    def test_weight_sum_check_fails_on_non_finite_sums(self, bad):
        with pytest.raises(ValidationError, match="weights sum to"):
            MixedFamilySpec(p=0.5, weights={"00": 1.0, "01": bad})


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

    def test_all_constructors_pass_invariants(self):
        # invariants re-checked by reconstructing through the validator
        for rho in [
            phi_state("01", "-"),
            mixed_family(MixedFamilySpec(p=0.3, weights={"00": 0.4, "01": 0.6})),
            random_density(8, 3, seed=11),
            basis_state(4, 2),
        ]:
            DensityMatrix(rho.matrix)
