import dataclasses

import numpy as np
import pytest

from cohfreeze import (
    ChannelClass,
    DensityMatrix,
    KrausChannel,
    LocalChannel,
    NotDiagonalError,
    NotIncoherentChannelError,
    NotStrictlyIncoherentError,
    NumericalInconsistencyError,
    ValidationError,
    amplitude_damping,
    apply_channel,
    bit_flip,
    certify_freezing,
    classify,
    depolarizing,
    dephase,
    from_pure,
    identity_channel,
    local_channel,
    petz_recovery,
    phase_flip,
    phi_state,
    random_density,
    random_incoherent_channel,
    random_sio_channel,
    tensor,
)
from cohfreeze import channels, coherence, recovery
from cohfreeze.linalg import _parity_lines, max_abs
from cohfreeze.recovery import _recovery_weights

from oracles import brute_apply


def plus_state():
    return from_pure(np.array([1.0, 1.0]) / np.sqrt(2))


def diagonal_state(probs):
    return DensityMatrix(np.diag(np.asarray(probs, dtype=complex)))


class TestPetzRecovery:
    def test_identity_channel_gives_identity_action(self):
        delta0 = diagonal_state([0.3, 0.2, 0.4, 0.1])
        recovery = petz_recovery(identity_channel(4), delta0)
        for seed in range(20):
            rho = random_density(4, 4, seed=seed)
            out = apply_channel(recovery, rho)
            assert max_abs(out.matrix - rho.matrix) <= 1e-9

    def test_bell_round_trip(self):
        bell = phi_state("00", "+")
        channel = local_channel([("bitflip", 0.3), ("bitflip", 0.5)])
        delta0 = dephase(bell)
        recovery = petz_recovery(channel, delta0)
        rho_t = apply_channel(channel, bell)
        recovered = apply_channel(recovery, rho_t)
        assert max_abs(recovered.matrix - bell.matrix) <= 1e-9

    def test_singular_case_by_hand(self):
        delta0 = diagonal_state([1.0, 0.0])
        recovery = petz_recovery(phase_flip(0.2), delta0)
        # two scaled projectors onto |0>, plus the kernel projector |1><1|
        assert len(recovery.operators) == 3
        np.testing.assert_allclose(
            recovery.operators[0], np.sqrt(0.8) * np.diag([1.0, 0.0]), atol=1e-15
        )
        np.testing.assert_allclose(
            recovery.operators[1], np.sqrt(0.2) * np.diag([1.0, 0.0]), atol=1e-15
        )
        np.testing.assert_allclose(
            recovery.operators[2], np.diag([0.0, 1.0]), atol=1e-15
        )
        total = sum(op.conj().T @ op for op in recovery.operators)
        assert max_abs(total - np.eye(2)) <= 1e-12

    def test_requires_diagonal_reference(self):
        with pytest.raises(NotDiagonalError):
            petz_recovery(bit_flip(0.1), plus_state())

    def test_diagonal_means_exactly_diagonal(self):
        mat = np.diag([0.5, 0.5]).astype(complex)
        mat[0, 1] = 1e-13
        with pytest.raises(NotDiagonalError, match="^reference state must be diagonal$"):
            petz_recovery(bit_flip(0.1), DensityMatrix(mat))

    def test_rejects_non_incoherent_channel(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        with pytest.raises(NotIncoherentChannelError):
            petz_recovery(KrausChannel((h,)), diagonal_state([0.5, 0.5]))

    def test_diagonal_recovery_for_random_incoherent_channels(self):
        # this half of the reversal works for any incoherent channel
        for seed in range(25):
            rng = np.random.default_rng(seed)
            dim = int(rng.choice([2, 3, 4]))
            probs = rng.random(dim)
            probs /= probs.sum()
            delta0 = diagonal_state(probs)
            channel = random_incoherent_channel(dim, dim, seed=seed + 1000)
            recovery = petz_recovery(channel, delta0)
            delta_t = apply_channel(channel, delta0)
            recovered = apply_channel(recovery, delta_t)
            assert max_abs(recovered.matrix - delta0.matrix) <= 1e-9

    def test_completeness_with_kernel_projector(self):
        # amplitude damping at full strength empties the excited level
        delta0 = diagonal_state([0.6, 0.4])
        channel = amplitude_damping(1.0)
        recovery = petz_recovery(channel, delta0)
        total = sum(op.conj().T @ op for op in recovery.operators)
        assert max_abs(total - np.eye(2)) <= 1e-12
        delta_t = apply_channel(channel, delta0)
        recovered = apply_channel(recovery, delta_t)
        assert max_abs(recovered.matrix - delta0.matrix) <= 1e-9

    def test_recovery_of_sio_channel_is_sio(self):
        for seed in range(10):
            channel = random_sio_channel(4, 3, seed=seed)
            delta0 = dephase(random_density(4, 4, seed=seed + 77))
            recovery = petz_recovery(channel, delta0)
            assert (
                classify(recovery).channel_class is ChannelClass.STRICTLY_INCOHERENT
            )

    def test_matches_brute_force_application(self):
        bell = phi_state("01", "+")
        channel = tensor([bit_flip(0.2), bit_flip(0.6)])
        delta0 = dephase(bell)
        recovery = petz_recovery(channel, delta0)
        rho_t = apply_channel(channel, bell)
        via_loop = brute_apply(recovery.operators, rho_t.matrix)
        np.testing.assert_allclose(
            apply_channel(recovery, rho_t).matrix, via_loop, atol=1e-13
        )

    @pytest.mark.parametrize(
        "channel, probs, singular",
        [
            (tensor([bit_flip(0.3), depolarizing(0.2)]), [0.1, 0.2, 0.3, 0.4], False),
            (random_sio_channel(5, 3, seed=4), [0.3, 0.1, 0.2, 0.15, 0.25], False),
            (tensor([amplitude_damping(1.0), bit_flip(0.4)]), [0.1, 0.2, 0.3, 0.4], True),
        ],
        ids=["regular", "regular-sio", "singular"],
    )
    def test_operators_equal_per_operator_expression(self, channel, probs, singular):
        delta0 = diagonal_state(probs)
        sqrt0, inv_sqrt, kernel = _recovery_weights(
            delta0.matrix.diagonal(), apply_channel(channel, delta0).matrix.diagonal()
        )
        expected = [
            sqrt0[:, None] * op.conj().T * inv_sqrt[None, :] for op in channel.operators
        ]
        if kernel.any():
            expected.append(np.diag(kernel.astype(np.complex128)))
        assert bool(kernel.any()) == singular
        np.testing.assert_array_equal(
            petz_recovery(channel, delta0).operators, np.array(expected)
        )


def small_population_state(population, dim):
    """The pure state sqrt(1-p)|0> + sqrt(p)|1> in dimension dim."""
    amplitudes = np.zeros(dim)
    amplitudes[:2] = np.sqrt(1 - population), np.sqrt(population)
    return DensityMatrix(np.outer(amplitudes, amplitudes).astype(complex))


class TestExactKernel:
    """Only a weight that is not a normal float is in the recovery's kernel,
    so a channel that changes nothing keeps the coherence beside a tiny
    population, and no weight overflows on a subnormal one."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("population", [1e-14, 1e-100, 1e-300, 1e-310, 5e-324])
    @pytest.mark.parametrize(
        "channel, dim",
        [
            (identity_channel(2), 2),
            (local_channel([("bitflip", 0.0)]), 2),
            (local_channel([("bitflip", 0.0)] * 2), 4),
        ],
        ids=["identity", "local-x-state", "local-dense"],
    )
    def test_unchanged_state_is_frozen(self, channel, dim, population):
        rho = small_population_state(population, dim)
        if isinstance(channel, LocalChannel):  # an X state is two lines
            masks, _ = _parity_lines(rho.matrix)
            assert masks.tolist() == ([0, 1] if dim == 2 else [0, 1, 3])
        assert certify_freezing(channel, rho).verdict == "Frozen"


class TestCertifyFreezing:
    def test_bell_under_bit_flips_is_frozen(self):
        certificate = certify_freezing(
            local_channel([("bitflip", 0.2), ("bitflip", 0.7)]),
            phi_state("00", "+"),
        )
        assert certificate.verdict == "Frozen"
        assert certificate.failed_checks == ()
        assert certificate.cr_deviation <= 1e-10
        assert certificate.recovery_residual_state <= 1e-10
        assert certificate.recovery_incoherent

    def test_amplitude_damping_on_plus_not_frozen(self):
        certificate = certify_freezing(amplitude_damping(0.5), plus_state())
        assert certificate.verdict == "NotFrozen"
        assert "cr_deviation" in certificate.failed_checks
        assert certificate.cr_final < certificate.cr_initial - 1e-3

    def test_incoherent_initial_state_trivially_frozen(self):
        rho = diagonal_state([0.1, 0.2, 0.3, 0.4])
        channel = random_sio_channel(4, 3, seed=5)
        certificate = certify_freezing(channel, rho)
        assert certificate.verdict == "Frozen"
        assert certificate.cr_initial == 0.0
        assert certificate.cr_final <= 1e-9

    @pytest.mark.xfail(
        strict=True,
        raises=ValidationError,
        reason="the recovery's weights come from the diagonal of channel(d0), "
        "not from the judged stack's own image, so many dropped 1e-12 entries "
        "over a small supported weight fail the recovery's completeness check",
    )
    def test_many_dropped_entries_over_a_small_weight(self):
        ops = np.tile(np.eye(2, dtype=complex) / 20, (400, 1, 1))
        ops[:, 1, 0] = 1e-12
        channel = KrausChannel(ops)
        assert classify(channel).channel_class is ChannelClass.STRICTLY_INCOHERENT
        rho = diagonal_state([1 - 2e-12, 2e-12])
        assert certify_freezing(channel, rho).verdict == "Frozen"

    def test_refuses_non_sio_channel(self):
        k1 = np.array([[1, 1], [0, 0]], dtype=complex) / np.sqrt(2)
        k2 = np.array([[1, -1], [0, 0]], dtype=complex) / np.sqrt(2)
        io_only = KrausChannel((k1, k2))
        with pytest.raises(NotStrictlyIncoherentError):
            certify_freezing(io_only, plus_state())

    def test_override_reports_instead_of_refusing(self):
        k1 = np.array([[1, 1], [0, 0]], dtype=complex) / np.sqrt(2)
        k2 = np.array([[1, -1], [0, 0]], dtype=complex) / np.sqrt(2)
        io_only = KrausChannel((k1, k2))
        certificate = certify_freezing(
            io_only, plus_state(), enforce_hypothesis=False
        )
        assert certificate.verdict in ("Frozen", "NotFrozen")

    def test_dense_certificate_classifies_channel_once(self, monkeypatch):
        calls = []
        original = recovery.classify

        def counted(channel, *args):
            calls.append(channel)
            return original(channel, *args)

        monkeypatch.setattr(recovery, "classify", counted)
        channel = random_sio_channel(4, 3, seed=71)
        certificate = certify_freezing(channel, random_density(4, 3, seed=72))
        # the channel once; its recovery takes the channel's classification
        assert calls == [channel]
        assert certificate.recovery_incoherent
        assert certificate.recovery_witness is None

    @pytest.mark.parametrize("dim", [4, 24])
    def test_strict_dense_certificate_judges_the_stack_once(self, monkeypatch, dim):
        calls = []
        original = channels._judged_entries

        def counted(channel, zero_tol):
            calls.append(channel)
            return original(channel, zero_tol)

        monkeypatch.setattr(channels, "_judged_entries", counted)
        channel = random_sio_channel(dim, 3, seed=73)
        certify_freezing(channel, random_density(dim, 3, seed=74))
        # classify's scan; the recovery is built from the entries it read
        assert calls == [channel]

    def test_factored_certificate_validates_only_rho_t(self, monkeypatch):
        channel = local_channel([("amplitudedamping", 0.3), ("phaseflip", 0.2)] * 2)
        rho0 = random_density(16, 3, seed=75)
        built, spectra = [], []
        original_init = DensityMatrix.__post_init__
        original_eigvalsh = np.linalg.eigvalsh

        def counted_init(state):
            built.append(state)
            original_init(state)

        def counted_eigvalsh(matrix, *args, **kwargs):
            spectra.append(matrix)
            return original_eigvalsh(matrix, *args, **kwargs)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted_init)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        certificate = certify_freezing(channel, rho0)
        # rho_t, which is not an X state; delta0 and channel(delta0) are
        # lines, and the two recovered states are read only through residuals
        assert len(built) == 1
        assert len(spectra) == 1
        np.testing.assert_array_equal(spectra[0], certificate.final_state.matrix)

    def test_incoherent_only_certificate_scans_its_recovery_once(self, monkeypatch):
        calls = []
        original = recovery.classify

        def counted(channel, *args):
            calls.append(channel)
            return original(channel, *args)

        monkeypatch.setattr(recovery, "classify", counted)
        channel = random_incoherent_channel(4, 3, seed=71)
        certificate = certify_freezing(
            channel, random_density(4, 3, seed=72), enforce_hypothesis=False
        )
        assert len(calls) == 2
        assert calls[0] is channel and calls[1] is not channel
        # the scan's witness is the one the certificate reports
        assert certificate.recovery_witness == original(calls[1]).witness
        assert certificate.recovery_witness is not None

    def test_dense_certificate_sums_moduli_twice(self, monkeypatch):
        calls = []
        original = coherence.c_l1

        def counted(rho):
            calls.append(rho)
            return original(rho)

        monkeypatch.setattr(coherence, "c_l1", counted)
        monkeypatch.setattr(recovery, "c_l1", counted)
        channel = random_sio_channel(4, 3, seed=73)
        certify_freezing(channel, random_density(4, 3, seed=74))
        # c_l1_initial and c_l1_final; c_rel_ent needs no sum of moduli
        assert len(calls) == 2

    @pytest.mark.parametrize("path", ["local", "tensor"])
    def test_l1_deviation_within_round_trip_bound_is_frozen(self, path):
        # Delta l1 about 1.008e-8 exceeds tol, but not tol plus the round
        # trip's off-diagonal error (about 2.2e-8).
        channel = local_channel(
            [
                ("amplitudedamping", 1e-9),
                ("bitflip", 1e-9),
                ("bitflip", 1e-9),
                ("amplitudedamping", 1e-9),
            ]
        )
        if path == "tensor":
            channel = tensor(channel.factors)
        certificate = certify_freezing(
            channel, random_density(16, 16, seed=508607136)
        )
        assert certificate.verdict == "Frozen"
        assert certificate.c_l1_deviation > certificate.tol

    def test_l1_deviation_past_round_trip_bound_raises(self, monkeypatch):
        rho0 = random_density(4, 4, seed=75)
        original = coherence.c_l1

        def shifted(rho):
            return original(rho) + (0.0 if rho is rho0 else 0.5)

        monkeypatch.setattr(recovery, "c_l1", shifted)
        with pytest.raises(NumericalInconsistencyError, match="l1 deviation 5.000e-01"):
            certify_freezing(identity_channel(4), rho0)

    def test_not_incoherent_channel_still_refused_without_hypothesis(self):
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        channel = KrausChannel((hadamard,))
        message = "channel is not incoherent: " + classify(channel).witness.describe()
        with pytest.raises(NotIncoherentChannelError) as raised:
            certify_freezing(channel, plus_state(), enforce_hypothesis=False)
        assert str(raised.value) == message
        with pytest.raises(NotIncoherentChannelError) as raised:
            petz_recovery(channel, dephase(plus_state()))
        assert str(raised.value) == message

    def test_certificate_serialization_round_trip_keys(self):
        certificate = certify_freezing(bit_flip(0.4), plus_state())
        text = certificate.to_text()
        lines = dict(
            line.split(" = ", 1) for line in text.strip().splitlines()
        )
        assert lines["verdict"] == certificate.verdict
        assert float(lines["cr_deviation"]) == pytest.approx(
            certificate.cr_deviation, abs=1e-15
        )
        assert lines["recovery_incoherent"] == "true"

    @pytest.mark.parametrize("case", ["sio", "sweep-tensor", "local"])
    def test_final_state_is_the_evolved_state(self, case):
        if case == "sio":
            rho0 = random_density(4, 2, seed=61)
            channel = random_sio_channel(4, 3, seed=62)
        elif case == "sweep-tensor":
            rho0 = phi_state("010", "-")
            channel = tensor([bit_flip(0.2), bit_flip(0.5), bit_flip(0.7)])
        else:
            rho0 = phi_state("01", "+")
            channel = local_channel([("bitflip", 0.3), ("bitflip", 0.85)])
        certificate = certify_freezing(channel, rho0)
        np.testing.assert_array_equal(
            certificate.final_state.matrix, apply_channel(channel, rho0).matrix
        )
        assert "final_state" not in repr(certificate)
        assert "final_state" not in certificate.to_text()
        assert dataclasses.replace(certificate, _final_state=rho0) == certificate

    def test_trace_preservation_of_recovery(self):
        for seed in range(15):
            channel = random_sio_channel(4, 3, seed=seed + 400)
            delta0 = dephase(random_density(4, 4, seed=seed + 500))
            recovery = petz_recovery(channel, delta0)
            total = sum(op.conj().T @ op for op in recovery.operators)
            assert max_abs(total - np.eye(4)) <= 1e-9

    def test_forward_direction(self):
        # essentially zero relative-entropy drift forces a working recovery
        cases = [
            (phi_state("00", "+"), local_channel([("bitflip", 0.15), ("bitflip", 0.4)])),
            (phi_state("01", "-"), local_channel([("bitflip", 0.8), ("bitflip", 0.33)])),
        ]
        for rho0, channel in cases:
            certificate = certify_freezing(channel, rho0)
            assert certificate.cr_deviation <= 1e-10
            assert certificate.recovery_residual_state <= 1e-8

    def test_full_decay_exercises_singular_path(self):
        # both qubits relax completely; the evolved reference is rank one
        bell = phi_state("00", "+")
        channel = tensor([amplitude_damping(1.0), amplitude_damping(1.0)])
        certificate = certify_freezing(channel, bell)
        assert certificate.verdict == "NotFrozen"
        assert certificate.cr_final == 0.0
        # diagonal recovery still works exactly on the evolved reference
        assert certificate.recovery_residual_diag <= 1e-9

    def test_converse_direction(self):
        # a successful round trip pins both panel measures
        for seed in (3, 7):
            rho0 = phi_state("00", "-")
            channel = local_channel(
                [("bitflip", 0.1 * (seed + 1)), ("bitflip", 0.05 * seed)]
            )
            certificate = certify_freezing(channel, rho0)
            if certificate.recovery_residual_state <= 1e-10:
                assert certificate.cr_deviation <= 1e-8
                assert certificate.c_l1_deviation <= 1e-8
