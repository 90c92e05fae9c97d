"""The monomial form of a Kraus stack against the dense stack.

From STRUCTURED_MIN_DIM on, incoherent stacks, their recoveries and tensor
products of library channels evolve any input, are classified, are checked
for completeness and build their recoveries from their recorded
(axis, index, gain) form. Each apply is compared with the loop oracle and
with the batched product, each classification with the dense scan, each
completeness verdict and recovery with the dense construction, and each
certificate with the one the dense path alone gives (the cutoff raised above
every dimension here while the reference runs).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohfreeze import (
    CHANNEL_FACTORIES,
    ChannelClass,
    ChannelClassification,
    CohfreezeError,
    DensityMatrix,
    KrausChannel,
    ValidationError,
    apply_channel,
    bit_flip,
    certify_freezing,
    classify,
    compose,
    dephase,
    depolarizing,
    petz_recovery,
    random_density,
    random_incoherent_channel,
    random_sio_channel,
    tensor,
)
from cohfreeze import channels, linalg
from cohfreeze.recovery import _recovery_weights

from oracles import brute_apply, classify_loop, random_unitary

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
    """Channels built inside this context record no structure."""
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


def near_strict(kind, dim, count, seed):
    """An SIO or composed SIO stack with extra real entries of modulus in
    (0, ZERO_TOL] at about a third of its zeros: it still classifies
    strictly incoherent, but not entry by entry."""
    ops = np.array(build(kind, dim, count, seed).operators)
    rng = np.random.default_rng(seed)
    extra = (ops == 0) & (rng.random(ops.shape) < 0.3)
    tiny = channels.ZERO_TOL * (1.0 - rng.random(ops.shape))  # (0, ZERO_TOL]
    ops[extra] = (rng.choice([-1.0, 1.0], ops.shape) * tiny)[extra]
    return KrausChannel(ops)


strict_kinds = st.sampled_from(("sio", "sio-compose"))
stack_sizes = (st.sampled_from(DIMS), st.integers(1, 8), st.integers(0, 2**31))
strict_channels = st.one_of(
    st.builds(build, strict_kinds, *stack_sizes),
    library_tensors,
    st.builds(near_strict, strict_kinds, *stack_sizes),
)


class TestRecoveryOfStrictStacks:
    @settings(max_examples=60, deadline=None)
    @given(strict_channels, st.integers(0, 2**31))
    def test_strictly_incoherent_and_complete(self, channel, seed):
        assert classify(channel).channel_class is ChannelClass.STRICTLY_INCOHERENT
        delta0 = singular_diagonal(channel.dim, seed)
        recovered = petz_recovery(channel, delta0)
        assert classify(recovered) == ChannelClassification(
            ChannelClass.STRICTLY_INCOHERENT, None
        )
        ops = recovered.operators
        completeness = np.einsum("nab,nac->bc", ops.conj(), ops)
        off = completeness - np.diag(completeness.diagonal())
        assert not off.any()  # each column of the judged stack has one entry at most
        # Row a is weighted by dt_a on dt's support and by the judged image
        # below it; the kernel is where that weight is not a normal float.
        # A dropped entry leaves a supported row short by at most
        # ZERO_TOL^2 d0_j, so the diagonal misses 1 by n ZERO_TOL^2 / dt_a;
        # a row weighted by its own judged image misses it by rounding only.
        dt = apply_channel(channel, delta0).matrix.diagonal().real
        supported = linalg.support(dt)
        stack = channel.operators
        judged = np.abs(np.where(np.abs(stack) > channels.ZERO_TOL, stack, 0)) ** 2
        judged = np.einsum("naj,j->a", judged, delta0.matrix.diagonal().real)
        kernel = np.where(supported, dt, judged) < np.finfo(float).tiny
        n = len(stack)
        bound = n * channels.ZERO_TOL**2 / dt[supported]
        slack = 4 * n * channel.dim * np.finfo(float).eps
        defect = np.abs(completeness.diagonal() - 1.0)
        assert (defect[kernel] == 0).all()
        assert (defect[supported] <= bound + slack).all()
        assert (defect[~kernel & ~supported] <= slack).all()


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

    def test_no_form_when_columns_and_rows_both_fail(self):
        # 4 entries, no more than n * d: operator 0 holds a full row and
        # operator 1 a full column
        ops = np.array([[[1, 1], [0, 0]], [[1, 0], [1, 0]]], dtype=complex)
        assert channels._monomial_form(ops) is None

    def test_absent_for_other_stacks_and_below_the_cutoff(self):
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        dense = KrausChannel((np.kron(np.eye(CUTOFF // 2), hadamard),))
        assert dense._monomial is None
        assert random_sio_channel(CUTOFF - 1, 4, seed=13)._monomial is None
        assert random_incoherent_channel(CUTOFF - 1, 2, seed=14)._monomial is None

    @pytest.mark.parametrize(
        "kind, forms", [("sio", [1, 1, 1, 1, 1]), ("io", [1, 1, 1, 2, 2])]
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
        # All five applies: the channel on the dense rho0 and on delta0
        # twice (column form), then the recovery (column form for SIO, row
        # form for IO) on the dense rho_t and on delta_t.
        assert calls == forms

    def test_io_certificate_takes_the_rank_one_product(self):
        calls = []
        original = channels._apply_lines

        def counted(axis, index, gain, rho):
            calls.append((axis, len(gain)))
            return original(axis, index, gain, rho)

        channel = build("io", 24, 4, 15)  # 24 operators |t_n><v_n|
        rho0 = support_state(24, 16)
        recovered = petz_recovery(channel, dephase(rho0))
        with mock.patch.object(channels, "_apply_lines", counted):
            certify_freezing(channel, rho0, enforce_hypothesis=False)
        # Every operator of the channel, and of its recovery all but the
        # kernel projector, which holds more than one entry, is rank one and
        # takes the matrix product; only the projector goes line by line.
        one = recovered._monomial[3] >= 0
        assert one[:24].all() and not one[24]
        assert calls == [(2, 1)] * 2


seeds = st.integers(0, 2**31)


def dense_inputs(dim, seed, imaginary=0.0):
    """A full-rank state, and a state on a random subset of the basis whose
    zero entries are written -0.0 + -0.0j and whose diagonal carries
    imaginary parts of size at most `imaginary` (summing to zero), which
    validation accepts as rounding noise."""
    matrix = np.array(support_state(dim, seed).matrix)
    matrix[matrix == 0] = complex(-0.0, -0.0)
    noise = np.random.default_rng(seed).uniform(-0.5, 0.5, dim)
    matrix[np.diag_indices(dim)] += 1j * imaginary * (noise - noise.mean())
    return random_density(dim, dim, seed), DensityMatrix(matrix)


def assert_dense_matches(channel, rho):
    """The apply against the loop oracle and the batched product."""
    if channel.dim >= CUTOFF:
        assert channel._monomial is not None
    got = apply_channel(channel, rho).matrix
    np.testing.assert_allclose(
        got, brute_apply(channel.operators, rho.matrix), rtol=0, atol=1e-13
    )
    with batched_only():
        batched = apply_channel(KrausChannel(channel.operators), rho).matrix
    np.testing.assert_allclose(got, batched, rtol=0, atol=1e-13)


def paired_stack(dim, seed):
    """A column-form stack of two operators for an even dim. Both columns of
    each pair (2i, 2i + 1) land on one row: row i in operator 0, row i or
    dim/2 + i in operator 1, so rows are shared within each operator and
    across the two. Each pair's gains form a random 2 x 2 unitary, so the
    two columns of a pair meet in sum K^dag K and cancel there."""
    rng = np.random.default_rng(seed)
    half = dim // 2
    ops = np.zeros((2, dim, dim), dtype=complex)
    for i in range(half):
        gains = random_unitary(2, int(rng.integers(2**31)))
        ops[0, i, 2 * i : 2 * i + 2] = gains[0]
        ops[1, i + half * int(rng.integers(2)), 2 * i : 2 * i + 2] = gains[1]
    return ops


def partial_permutation(dim, count, seed):
    """An SIO stack whose operators leave about a third of their columns
    empty; every column keeps an entry in some operator."""
    rng = np.random.default_rng(seed)
    ops = np.array(random_sio_channel(dim, count, seed).operators)
    empty = rng.random((count, dim)) < 1 / 3
    empty[rng.integers(count, size=dim), np.arange(dim)] = False
    ops = np.where(empty[:, None, :], 0.0, ops)
    return KrausChannel(ops / np.sqrt((np.abs(ops) ** 2).sum(axis=(0, 1))))


def mixed_rank_one(axis, dim, seed):
    """A stack of dim rank-one operators, two permutations with phases and
    an empty operator. Rank-one operator n holds row u_n of a random unitary
    as its row t_n, a random target (column form, axis 1), or as its column
    n (row form, axis 2), so that sum K^dag K = I."""
    rng = np.random.default_rng(seed)
    weights = np.sqrt(rng.dirichlet(np.ones(3)))
    ops = np.zeros((dim + 3, dim, dim), dtype=complex)
    rows = weights[0] * random_unitary(dim, seed)
    if axis == 1:
        ops[np.arange(dim), rng.integers(dim, size=dim)] = rows
    else:
        ops[np.arange(dim), :, np.arange(dim)] = rows
    for i in (1, 2):
        phases = np.exp(2j * np.pi * rng.random(dim))
        ops[dim + i - 1, rng.permutation(dim), np.arange(dim)] = weights[i] * phases
    return ops


class TestDenseInputs:
    """The kernel on inputs that are not diagonal, within 1e-13 of the loop
    oracle and of the batched product."""

    @settings(max_examples=40, deadline=None)
    @given(random_channels, seeds)
    def test_channel(self, channel, seed):
        for rho in dense_inputs(channel.dim, seed, imaginary=1e-12):
            assert_dense_matches(channel, rho)

    @settings(max_examples=30, deadline=None)
    @given(random_channels, seeds)
    def test_recovery(self, channel, seed):
        # A recovery scales its input by up to (d0/dt)^(1/2), imaginary
        # noise included, so its inputs carry none.
        recovered = petz_recovery(channel, singular_diagonal(channel.dim, seed))
        for rho in dense_inputs(channel.dim, seed):
            assert_dense_matches(recovered, rho)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from((CUTOFF, 24, 32)), seeds)
    @example(dim=24, seed=17122)  # the reference drops a column of every pair
    def test_targets_shared_within_and_across_operators(self, dim, seed):
        channel = KrausChannel(paired_stack(dim, seed))
        assert channel._monomial[0] == 1
        assert classify(channel).channel_class is ChannelClass.INCOHERENT_ONLY
        recovered = petz_recovery(channel, singular_diagonal(dim, seed))
        # Each row of the recovery holds one entry at most. When the zeros of
        # the reference leave each column so too, it is strictly incoherent
        # counting exact zeros, and column form is recorded: it is tried first.
        exact = classify(recovered, 0.0).channel_class
        assert recovered._monomial[0] == (
            1 if exact is ChannelClass.STRICTLY_INCOHERENT else 2
        )
        for rho in dense_inputs(dim, seed, imaginary=1e-12):
            assert_dense_matches(channel, rho)
        for rho in dense_inputs(dim, seed):
            assert_dense_matches(recovered, rho)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from((CUTOFF, CUTOFF + 1, 24, 32)), st.integers(2, 6), seeds)
    def test_partial_permutations(self, dim, count, seed):
        channel = partial_permutation(dim, count, seed)
        assert not channel._monomial[2].all()  # some columns are empty
        recovered = petz_recovery(channel, singular_diagonal(dim, seed))
        for rho in dense_inputs(dim, seed, imaginary=1e-12):
            assert_dense_matches(channel, rho)
        for rho in dense_inputs(dim, seed):
            assert_dense_matches(recovered, rho)

    @pytest.mark.parametrize("axis", [1, 2])
    @pytest.mark.parametrize("dim", [CUTOFF, 24, 64])
    def test_rank_one_operators_among_permutations(self, axis, dim):
        channel = KrausChannel(mixed_rank_one(axis, dim, dim + axis))
        assert channel._monomial[0] == axis
        shared = channel._monomial[3]
        assert (shared[:dim] >= 0).all() and (shared[dim:] == -1).all()
        for rho in (*dense_inputs(dim, dim, 1e-12), singular_diagonal(dim, dim)):
            assert_dense_matches(channel, rho)

    def test_indices_at_d_300(self):
        # index * d reaches 299 * 300, past any 16-bit index.
        dim = 300
        paired = KrausChannel(paired_stack(dim, 18))
        cases = (
            (random_sio_channel(dim, 2, seed=17), 1, 1e-12),
            (paired, 1, 1e-12),
            (petz_recovery(paired, singular_diagonal(dim, 19)), 2, 0.0),
        )
        for channel, axis, imaginary in cases:
            assert channel._monomial[0] == axis
            assert channel._monomial[1].dtype == np.intp
            for rho in dense_inputs(dim, 20, imaginary):
                assert_dense_matches(channel, rho)


ZERO_TOLS = (0.0, channels.ZERO_TOL, 1e-3, 0.5)


def tiny_crowded(kind, dim, count, seed):
    """A stack with one more operator that sends every column to row 0 or 1
    with a gain in (0, ZERO_TOL]: a column-form stack whose class depends on
    whether zero_tol counts those gains."""
    ops = np.array(build(kind, dim, count, seed).operators)
    rng = np.random.default_rng(seed)
    extra = np.zeros((1, dim, dim), dtype=complex)
    tiny = channels.ZERO_TOL * (1.0 - rng.random(dim))  # (0, ZERO_TOL]
    extra[0, rng.integers(2, size=dim), np.arange(dim)] = tiny
    return KrausChannel(np.concatenate([ops, extra]))


def io_recovery(dim, count, seed):
    channel = random_incoherent_channel(dim, count, seed)
    return petz_recovery(channel, singular_diagonal(dim, seed))


classified_channels = st.one_of(
    random_channels,
    st.builds(near_strict, strict_kinds, *stack_sizes),
    st.builds(tiny_crowded, st.sampled_from(("sio", "io")), *stack_sizes),
    st.builds(io_recovery, *stack_sizes),
)


class TestClassifyFromForm:
    @settings(max_examples=80, deadline=None)
    @given(classified_channels, st.sampled_from(ZERO_TOLS))
    def test_matches_dense_scan(self, channel, zero_tol):
        got = classify(channel, zero_tol)
        with batched_only():
            assert got == classify(KrausChannel(channel.operators), zero_tol)
        name, witness = classify_loop(channel.operators, zero_tol)
        assert got.channel_class.value == name
        if witness is None:
            assert got.witness is None
        else:
            w = got.witness
            assert (w.operator_index, w.axis, w.index, w.positions) == witness

    @pytest.mark.parametrize("dim", [CUTOFF, 32])
    def test_io_recovery_reads_its_row_form(self, dim):
        recovered = io_recovery(dim, 2, 21)
        assert recovered._monomial[0] == 2
        got = classify(recovered)
        assert got.channel_class is ChannelClass.NOT_INCOHERENT
        assert got.witness.axis == "column"
        with batched_only():
            assert classify(KrausChannel(recovered.operators)) == got


def refusal(operators):
    """The message KrausChannel refuses the operators with, or None."""
    try:
        KrausChannel(operators)
    except ValidationError as exc:
        return str(exc)
    return None


def listed(ops):
    """The stack as the _Entries of its nonzero entries."""
    ops = np.asarray(ops)
    flat = np.flatnonzero(ops)
    return channels._Entries(ops.shape, *np.unravel_index(flat, ops.shape), ops.ravel()[flat])


MONOMIAL_STACKS = {
    "sio": (1, lambda: random_sio_channel(24, 4, seed=23).operators),
    "io": (1, lambda: random_incoherent_channel(24, 2, seed=24).operators),
    "shared-rows": (1, lambda: paired_stack(24, 25)),
    "io-recovery": (2, lambda: io_recovery(24, 2, 26).operators),
}


class TestCompletenessFromForm:
    @pytest.mark.parametrize("kind", sorted(MONOMIAL_STACKS))
    @pytest.mark.parametrize("excess, refused", [(1e-9, True), (1e-11, False)])
    def test_threshold_and_message(self, kind, excess, refused):
        axis, stack = MONOMIAL_STACKS[kind]
        ops = np.array(stack()) * np.sqrt(1 + excess)
        assert channels._monomial_form(ops)[0] == axis
        message = refusal(ops)
        assert refusal(listed(ops)) == message
        with batched_only():
            assert refusal(ops) == message
            assert refusal(listed(ops)) == message
        if refused:
            assert message == "completeness fails: max |sum K^dag K - I| = 1.000e-09"
        else:
            assert message is None
            assert KrausChannel(ops)._monomial[0] == axis

    def test_columns_that_share_a_row_must_be_orthogonal(self):
        # Each column keeps its norm, so only the off-diagonal of
        # sum K^dag K is wrong: the diagonal alone would pass.
        ops = paired_stack(24, 27)
        ops[1, :, 1] *= 1j
        assert channels._monomial_form(ops)[0] == 1
        message = refusal(ops)
        assert message.startswith("completeness fails: max |sum K^dag K - I| = ")
        with batched_only():
            assert refusal(ops) == message


class TestRefusalsFromEntries:
    @pytest.mark.parametrize("dim", [4, CUTOFF])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_value(self, dim, bad):
        ops = np.array(random_sio_channel(dim, 3, seed=dim).operators)
        entries = listed(ops)
        entries.value[1] = bad
        ops[entries.operator[1], entries.row[1], entries.column[1]] = bad
        assert refusal(entries) == refusal(ops) == "matrix entries must be finite"


def sylvester_hadamard(dim):
    h = np.ones((1, 1))
    while len(h) < dim:
        h = np.block([[h, h], [h, -h]])
    return h


def dyadic_stack(kind, dim, seed):
    """Stacks in which every weight the recovery reads is exact, so that
    Lambda(delta0) has the same bits on either path: four permutations with
    gains +-1/2 or +-i/2 and a fifth with gains 2**-40 (below ZERO_TOL, so
    judged zero), or an incoherent-only stack |t_n><h_n| / sqrt(dim) over the
    rows h_n of a Hadamard matrix."""
    rng = np.random.default_rng(seed)
    if kind == "io":
        ops = np.zeros((dim, dim, dim), dtype=complex)
        ops[np.arange(dim), rng.integers(dim, size=dim)] = (
            sylvester_hadamard(dim) / np.sqrt(dim)
        )
        return KrausChannel(ops)
    gains = np.concatenate(
        [rng.choice([0.5, -0.5, 0.5j, -0.5j], (4, dim)), np.full((1, dim), 2.0**-40)]
    )
    ops = np.zeros((5, dim, dim), dtype=complex)
    targets = np.stack([rng.permutation(dim) for _ in range(5)])
    ops[np.arange(5)[:, None], targets, np.arange(dim)] = gains
    return KrausChannel(ops)


def dyadic_reference(dim, seed):
    """A diagonal state whose weights are multiples of 1/64, some zero."""
    rng = np.random.default_rng(seed)
    support = rng.choice(dim, int(rng.integers(1, dim + 1)), replace=False)
    counts = np.bincount(rng.choice(support, 64), minlength=dim)
    return DensityMatrix(np.diag(counts / 64).astype(complex))


class TestRecoveryFromForm:
    @pytest.mark.parametrize("kind, axis", [("sio", 1), ("io", 2)])
    @pytest.mark.parametrize("dim, seed", [(CUTOFF, 28), (32, 29), (64, 30)])
    def test_same_stack_bit_for_bit(self, kind, axis, dim, seed):
        channel = dyadic_stack(kind, dim, seed)
        assert channel._monomial[0] == 1
        delta0 = dyadic_reference(dim, seed)
        recovered = petz_recovery(channel, delta0)
        assert recovered._monomial[0] == axis
        with batched_only():
            reference = petz_recovery(KrausChannel(channel.operators), delta0)
        np.testing.assert_array_equal(recovered.operators, reference.operators)


def zero_normalised_bits(array):
    """The bytes of the array with every zero written +0."""
    return np.where(array == 0, 0, array).tobytes()


class TestRecoveryFromEntries:
    """The recovery is built from the judged entries classify scanned, with
    no dense rescan: it must equal what a rescan of its stack gives."""

    @pytest.mark.parametrize("kind", ["sio", "io", "sio-compose"])
    @pytest.mark.parametrize("dim", [CUTOFF, 24, 64])
    @pytest.mark.parametrize("singular", [True, False])
    def test_equals_a_rescan_of_itself(self, kind, dim, singular):
        channel = build(kind, dim, 4, dim)
        if singular:
            delta0 = singular_diagonal(dim, dim)
        else:
            delta0 = dephase(random_density(dim, dim, dim))
        recovered = petz_recovery(channel, delta0)
        sqrt0, inv_sqrt, kernel = _recovery_weights(
            delta0.matrix.diagonal(), apply_channel(channel, delta0).matrix.diagonal()
        )
        expected = sqrt0[:, None] * channel.operators.conj().transpose(0, 2, 1)
        expected = expected * inv_sqrt
        if kernel.any():
            projector = np.diag(kernel.astype(complex))
            expected = np.concatenate([expected, projector[None]])
        assert zero_normalised_bits(recovered.operators) == zero_normalised_bits(
            expected
        )
        form = recovered._monomial
        rescan = channels._monomial_form(recovered.operators)
        assert form[0] == rescan[0]
        for got, want in zip(form[1:], rescan[1:]):
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["sio", "io"])
    @pytest.mark.parametrize("dim", [8, 24])
    def test_certificate_does_not_rescan_its_recovery(self, kind, dim):
        channel = build(kind, dim, 4, 31)
        calls = []

        def counting(name):
            original = getattr(channels, name)

            def counted(*args):
                calls.append(name)
                return original(*args)

            return mock.patch.object(channels, name, counted)

        with counting("_monomial_form"), counting("_operator_stack"):
            certify_freezing(channel, support_state(dim, 32), enforce_hypothesis=False)
        assert calls == []


def sorted_entries(channel, zero_tol):
    """_judged_entries as (operator, row, column) keys and their values, in
    (operator, row, column) order."""
    operator, row, column, value = channels._judged_entries(channel, zero_tol)
    order = np.lexsort((column, row, operator))
    keys = np.stack([operator, row, column])[:, order]
    return keys, value[order]


class TestJudgedEntries:
    @pytest.mark.parametrize("kind", sorted(MONOMIAL_STACKS))
    @pytest.mark.parametrize("zero_tol", ZERO_TOLS)
    def test_form_gives_the_dense_entries(self, kind, zero_tol):
        axis, stack = MONOMIAL_STACKS[kind]
        channel = KrausChannel(stack())
        assert channel._monomial[0] == axis
        with batched_only():
            dense = KrausChannel(channel.operators)
        assert dense._monomial is None
        keys, values = sorted_entries(channel, zero_tol)
        dense_keys, dense_values = sorted_entries(dense, zero_tol)
        np.testing.assert_array_equal(keys, dense_keys)
        np.testing.assert_array_equal(values, dense_values)
        kept = np.abs(channel.operators) > zero_tol
        assert keys.shape[1] == np.count_nonzero(kept)


class TestFirstCrowded:
    def test_none_without_a_crowded_key(self):
        assert channels._first_crowded(np.array([], np.intp), 0) is None
        assert channels._first_crowded(np.array([], np.intp), 8) is None
        assert channels._first_crowded(np.array([5, 0, 3, 7]), 8) is None

    def test_smallest_crowded_key(self):
        key = np.array([6, 2, 6, 4, 2, 2, 0])
        assert channels._first_crowded(key, 8) == 2
        assert channels._first_crowded(key[:3], 8) == 6
        assert type(channels._first_crowded(key, 8)) is int
