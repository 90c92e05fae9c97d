"""certify_freezing agrees with the reference certificate of
tests/oracles.py, which builds the recovery from its definition with loop
applies and Jacobi spectra and shares no code with the package."""

import numpy as np
import pytest

from cohfreeze import (
    CHANNEL_FACTORIES,
    DensityMatrix,
    KrausChannel,
    certify_freezing,
    identity_channel,
    local_channel,
    random_density,
    random_incoherent_channel,
    random_sio_channel,
    tensor,
)
from cohfreeze.specs import parse_channel_spec

from oracles import reference_certificate

TOL = 1e-8
NUMERIC_FIELDS = (
    "cr_initial",
    "cr_final",
    "cr_deviation",
    "c_l1_initial",
    "c_l1_final",
    "c_l1_deviation",
    "recovery_residual_state",
    "recovery_residual_diag",
)


def assert_agrees(certificate, operators, rho):
    expected = reference_certificate(operators, rho.matrix, TOL)
    assert certificate.failed_checks == expected["failed_checks"]
    assert certificate.recovery_incoherent == expected["recovery_incoherent"]
    witness = certificate.recovery_witness
    if witness is not None:
        witness = (witness.operator_index, witness.axis, witness.index, witness.positions)
    assert witness == expected["recovery_witness"]
    for name in NUMERIC_FIELDS:
        assert abs(getattr(certificate, name) - expected[name]) <= 1e-12, name


def states(dim, seed):
    """A rank-1 and a full-rank random state."""
    return [random_density(dim, rank, seed=seed + rank) for rank in (1, dim)]


@pytest.mark.parametrize("dim", range(2, 9))
def test_random_sio_channels(dim):
    for seed in range(6):
        channel = random_sio_channel(dim, 1 + seed % 3, seed=100 * dim + seed)
        for rho in states(dim, 1000 * dim + 10 * seed):
            certificate = certify_freezing(channel, rho, TOL)
            assert_agrees(certificate, channel.operators, rho)


@pytest.mark.parametrize("dim", range(2, 9))
def test_random_io_channels(dim):
    for seed in range(6):
        channel = random_incoherent_channel(dim, dim + seed % 3, seed=200 * dim + seed)
        for rho in states(dim, 2000 * dim + 10 * seed):
            certificate = certify_freezing(channel, rho, TOL, enforce_hypothesis=False)
            assert_agrees(certificate, channel.operators, rho)


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_local_channels_of_library_kinds(num_qubits):
    rng = np.random.default_rng(300 + num_qubits)
    kinds = sorted(CHANNEL_FACTORIES)
    for seed in range(14):
        channel = local_channel(
            [(str(rng.choice(kinds)), float(rng.uniform())) for _ in range(num_qubits)]
        )
        for rho in states(2**num_qubits, 3000 * num_qubits + 10 * seed):
            certificate = certify_freezing(channel, rho, TOL)
            assert_agrees(certificate, tensor(channel.factors).operators, rho)


@pytest.mark.parametrize(
    "spec",
    [
        "local [identity dim=4]",
        "local [identity dim=3, amplitudedamping g=1]",
        "local [depolarizing q=0.3, identity dim=3]",
        "local [phaseflip q=0.2, identity dim=4]",
    ],
)
def test_local_specs_with_a_factor_that_is_not_a_qubit(spec):
    # such a spec parses to the tensor product's Kraus list
    channel = parse_channel_spec(spec)
    assert type(channel) is KrausChannel
    for rho in states(channel.dim, 4000 + 10 * channel.dim):
        assert_agrees(certify_freezing(channel, rho, TOL), channel.operators, rho)


def test_identity_channel_freezes_a_small_population():
    rho = DensityMatrix(np.array([[1, 1e-7], [1e-7, 1e-14]], dtype=complex))
    channel = identity_channel(2)
    assert reference_certificate(channel.operators, rho.matrix, TOL)["failed_checks"] == ()
    assert_agrees(certify_freezing(channel, rho, TOL), channel.operators, rho)
