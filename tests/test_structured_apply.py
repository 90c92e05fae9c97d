"""The monomial kernels of apply_channel against the batched product.

Incoherent stacks, their recoveries and tensor products of library channels
evolve exactly diagonal inputs without the batched product from
STRUCTURED_MIN_DIM on. Each apply is compared with the loop oracle, and each
certificate with the one the batched product alone gives (the cutoff raised
above every dimension here while the reference runs).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohfreeze import (
    CHANNEL_FACTORIES,
    CohfreezeError,
    DensityMatrix,
    KrausChannel,
    apply_channel,
    bit_flip,
    certify_freezing,
    compose,
    depolarizing,
    petz_recovery,
    random_density,
    random_incoherent_channel,
    random_sio_channel,
    tensor,
)
from cohfreeze import channels

from oracles import brute_apply

CUTOFF = channels.STRUCTURED_MIN_DIM
DIMS = (4, 8, CUTOFF - 1, CUTOFF, CUTOFF + 1, 24, 32)
CERTIFICATE_FIELDS = (
    "cr_initial",
    "cr_final",
    "cr_deviation",
    "c_l1_initial",
    "c_l1_final",
    "c_l1_deviation",
    "recovery_residual_state",
    "recovery_residual_diag",
)


def batched_only():
    """Channels first used inside this context record no structure."""
    return mock.patch.object(channels, "STRUCTURED_MIN_DIM", 65)


def build(kind, dim, count, seed):
    if kind == "sio":
        return random_sio_channel(dim, count, seed)
    if kind == "io":
        return random_incoherent_channel(dim, count, seed)
    first = random_sio_channel(dim, count, seed)
    return compose(random_sio_channel(dim, count, seed + 1), first)


def singular_diagonal(dim, seed, imaginary=0.0):
    """A diagonal state with about 40% of its entries exactly zero; the
    others carry imaginary parts of size at most `imaginary`, which
    validation accepts as rounding noise. The noise sums to zero, so the
    trace stays real."""
    rng = np.random.default_rng(seed)
    p = rng.random(dim) * (rng.random(dim) < 0.6)
    p[rng.integers(dim)] += 0.5
    support = p != 0
    noise = rng.uniform(-0.5, 0.5, dim)[support]
    p = p / p.sum() + 0j
    p[support] += 1j * imaginary * (noise - noise.mean())
    return DensityMatrix(np.diag(p))


def support_state(dim, seed):
    """A random-rank state on a random subset of the basis, so that its
    dephased image has zeros."""
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(dim, int(rng.integers(1, dim + 1)), replace=False))
    inner = random_density(len(support), int(rng.integers(1, len(support) + 1)), seed)
    matrix = np.zeros((dim, dim), dtype=complex)
    matrix[np.ix_(support, support)] = inner.matrix
    return DensityMatrix(matrix)


def certify_or_error(channel, rho0):
    """The certificate, or the type of the package error it raised."""
    try:
        return certify_freezing(channel, rho0, enforce_hypothesis=False)
    except CohfreezeError as exc:
        return type(exc)


def assert_matches_oracle(channel, seed, imaginary=0.0):
    for rho in (
        singular_diagonal(channel.dim, seed),
        singular_diagonal(channel.dim, seed + 1, imaginary),
        support_state(channel.dim, seed),
    ):
        np.testing.assert_allclose(
            apply_channel(channel, rho).matrix,
            brute_apply(channel.operators, rho.matrix),
            rtol=0,
            atol=1e-13,
        )


def assert_same_certificate(channel, seed):
    rho0 = support_state(channel.dim, seed)
    got = certify_or_error(channel, rho0)
    with batched_only():
        reference = certify_or_error(KrausChannel(channel.operators), rho0)
    if isinstance(reference, type):
        assert got is reference
        return
    assert got.verdict == reference.verdict
    assert got.failed_checks == reference.failed_checks
    assert got.recovery_incoherent == reference.recovery_incoherent
    assert got.recovery_witness == reference.recovery_witness
    for name in CERTIFICATE_FIELDS:
        assert getattr(got, name) == pytest.approx(
            getattr(reference, name), abs=1e-12
        ), name


random_channels = st.builds(
    build,
    st.sampled_from(("sio", "io", "sio-compose")),
    st.sampled_from(DIMS),
    st.integers(1, 8),
    st.integers(0, 2**31),
)
library_tensors = st.lists(
    st.tuples(st.sampled_from(sorted(CHANNEL_FACTORIES)), st.floats(0.0, 1.0)),
    min_size=4,
    max_size=5,
).map(lambda factors: tensor([CHANNEL_FACTORIES[k][1](q) for k, q in factors]))


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(random_channels, st.integers(0, 2**31))
    def test_apply(self, channel, seed):
        # An incoherent channel's output of a diagonal state is diagonal, so
        # the imaginary noise stays out of its spectrum. A recovery's dense
        # output would take it in, scaled by up to (d0/dt)^(1/2).
        assert_matches_oracle(channel, seed, imaginary=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(random_channels, st.integers(0, 2**31))
    def test_recovery_apply(self, channel, seed):
        recovery = petz_recovery(channel, singular_diagonal(channel.dim, seed))
        assert_matches_oracle(recovery, seed)

    @settings(max_examples=20, deadline=None)
    @given(library_tensors, st.integers(0, 2**31))
    def test_tensor_apply(self, channel, seed):
        assert_matches_oracle(channel, seed, imaginary=1e-11)
        recovery = petz_recovery(channel, singular_diagonal(channel.dim, seed))
        assert_matches_oracle(recovery, seed)

    @settings(max_examples=60, deadline=None)
    @given(random_channels, st.integers(0, 2**31))
    def test_certificate(self, channel, seed):
        assert_same_certificate(channel, seed)

    @settings(max_examples=30, deadline=None)
    @given(random_channels, st.integers(0, 2**31))
    def test_recovery_certificate(self, channel, seed):
        recovery = petz_recovery(channel, singular_diagonal(channel.dim, seed))
        assert_same_certificate(recovery, seed)

    @settings(max_examples=10, deadline=None)
    @given(library_tensors, st.integers(0, 2**31))
    def test_tensor_certificate(self, channel, seed):
        assert_same_certificate(channel, seed)


class TestEdges:
    def test_tiny_entry_takes_the_batched_product(self):
        ops = np.array(random_sio_channel(CUTOFF, 2, seed=3).operators)
        column = 0
        row = int(np.flatnonzero(ops[0, :, column] == 0)[0])
        ops[0, row, column] = 1e-300
        channel = KrausChannel(ops)
        assert channel._monomial is None
        assert_matches_oracle(channel, 4)

    def test_non_monomial_stack_is_unaffected(self):
        rng = np.random.default_rng(5)
        unitary, _ = np.linalg.qr(
            rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        )
        channel = KrausChannel((unitary,))
        assert channel._monomial is None
        rho = singular_diagonal(16, 6)
        ops = channel.operators
        np.testing.assert_array_equal(
            apply_channel(channel, rho).matrix,
            (ops @ rho.matrix @ ops.conj().transpose(0, 2, 1)).sum(axis=0),
        )

    def test_all_zero_operators(self):
        channel = tensor(
            [bit_flip(0.0), depolarizing(0.3), bit_flip(0.0), bit_flip(0.6)]
        )
        assert not channel.operators[-1].any()
        assert channel._monomial is not None
        assert_matches_oracle(channel, 7)
        assert_same_certificate(channel, 8)


class TestStructureIsRecorded:
    """Guards the fast path: if it switched itself off, the differential
    tests above would still pass."""

    @pytest.mark.parametrize("dim", [CUTOFF, 32])
    def test_monomial_stacks(self, dim):
        reference = singular_diagonal(dim, 9)
        sio = random_sio_channel(dim, 4, seed=10)
        io = random_incoherent_channel(dim, 2, seed=11)
        assert sio._monomial[0] == 1
        assert io._monomial[0] == 1
        assert build("sio-compose", dim, 3, 12)._monomial[0] == 1
        assert petz_recovery(sio, reference)._monomial[0] == 1
        # the recovery of an incoherent-only channel has one dense column
        assert petz_recovery(io, reference)._monomial[0] == 2

    def test_absent_for_other_stacks_and_below_the_cutoff(self):
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        dense = KrausChannel((np.kron(np.eye(CUTOFF // 2), hadamard),))
        assert dense._monomial is None
        assert random_sio_channel(CUTOFF - 1, 4, seed=13)._monomial is None
        assert random_incoherent_channel(CUTOFF - 1, 2, seed=14)._monomial is None

    @pytest.mark.parametrize(
        "kind, forms", [("sio", [1, 1, 1]), ("io", [1, 1, 2, 2])]
    )
    def test_dense_certificate_takes_the_kernel(self, kind, forms):
        calls = []
        original = channels._apply_monomial

        def counted(*args):
            calls.append(args[0])
            return original(*args)

        channel = build(kind, 24, 4, 15)
        with mock.patch.object(channels, "_apply_monomial", counted):
            certify_freezing(channel, support_state(24, 16), enforce_hypothesis=False)
        # Of the five applies, all but the one on the dense rho0 and, for an
        # SIO channel, the recovery's on its dense image: the channel on
        # delta0 twice (column form), then the recovery (column form for
        # SIO, row form for IO) on rho_t and delta_t.
        assert calls == forms
