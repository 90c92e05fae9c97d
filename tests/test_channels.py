import itertools
import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohfreeze import (
    CHANNEL_FACTORIES,
    ChannelClass,
    ClassificationWitness,
    DimensionMismatchError,
    KrausChannel,
    OutOfRangeError,
    ValidationError,
    amplitude_damping,
    apply_channel,
    bit_flip,
    bit_phase_flip,
    classify,
    compose,
    depolarizing,
    dephase,
    from_pure,
    identity_channel,
    local_channel,
    phase_damping,
    phase_flip,
    phi_state,
    random_density,
    random_incoherent_channel,
    random_sio_channel,
    tensor,
)
from cohfreeze.linalg import is_exactly_diagonal, max_abs

from oracles import brute_apply, classify_loop, random_unitary

LIBRARY = {
    "bitflip": bit_flip,
    "phaseflip": phase_flip,
    "bitphaseflip": bit_phase_flip,
    "depolarizing": depolarizing,
    "phasedamping": phase_damping,
    "amplitudedamping": amplitude_damping,
}


def plus_state():
    return from_pure(np.array([1.0, 1.0]) / np.sqrt(2))


NAN_OP = np.array([[1.0, 0.0], [0.0, np.nan]])
INF_OP = np.array([[1.0, 0.0], [0.0, complex(0.0, np.inf)]])
# (bad operators, exception type, message prefix); each list also runs as
# one (n, d, d) array, except the mixed dimensions, which cannot stack
BAD_OPERATORS = {
    "empty": ([], ValidationError, "channel needs at least one Kraus operator"),
    "non-square": (
        [np.ones((2, 3))],
        ValidationError,
        "expected a square matrix, got shape (2, 3)",
    ),
    "mixed-dims": (
        [np.eye(2), np.eye(4)],
        DimensionMismatchError,
        "Kraus operators differ in dimension",
    ),
    "zero-dim": (
        [np.zeros((0, 0))],
        ValidationError,
        "matrix must have positive dimension",
    ),
    "nan": ([np.eye(2), NAN_OP], ValidationError, "matrix entries must be finite"),
    "inf": ([INF_OP], ValidationError, "matrix entries must be finite"),
    "one-dim": (
        [np.ones(2)],
        ValidationError,
        "expected a square matrix, got shape (2,)",
    ),
}


class TestKrausChannel:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            KrausChannel(())

    def test_rejects_incomplete(self):
        with pytest.raises(ValidationError, match="completeness"):
            KrausChannel((np.eye(2, dtype=complex) * 0.5,))

    @pytest.mark.parametrize(
        "operator",
        [
            np.array([[1e200, 1e200], [1e200, 1e200j]]),  # the defect is NaN
            np.diag([1e200, 1.0]),  # the defect overflows to inf
            np.diag([1e200] + [1.0] * 15),  # the same through the monomial form
        ],
        ids=["nan", "overflow-d2", "overflow-d16"],
    )
    def test_rejects_a_defect_past_float_range_without_warning(self, operator):
        with pytest.raises(ValidationError, match="^completeness fails: "):
            KrausChannel([operator])

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimensionMismatchError):
            KrausChannel((np.eye(2, dtype=complex), np.eye(4, dtype=complex)))

    def test_operators_are_immutable(self):
        channel = bit_flip(0.3)
        with pytest.raises(ValueError):
            channel.operators[0][0, 0] = 5.0

    def test_accepts_operator_array(self):
        array = np.stack([np.sqrt(0.3) * np.eye(2), np.sqrt(0.7) * np.eye(2)])
        channel = KrausChannel(array)
        ops = channel.operators
        assert ops.shape == (2, 2, 2) and ops.dtype == np.complex128
        assert ops.flags.c_contiguous and not ops.flags.writeable
        np.testing.assert_array_equal(ops, KrausChannel(list(array)).operators)
        np.testing.assert_array_equal(ops, KrausChannel(op for op in array).operators)
        array[0, 0, 0] = 5.0  # the channel keeps its own copy
        assert ops[0, 0, 0] == np.sqrt(0.3)
        assert KrausChannel(np.stack([np.eye(2)])).dim == 2

    @pytest.mark.parametrize(
        "case, form",
        [
            (case, form)
            for case in sorted(BAD_OPERATORS)
            for form in ("list", "array")
            if (case, form) != ("mixed-dims", "array")
        ],
    )
    def test_rejects_bad_operators(self, case, form):
        operators, error, prefix = BAD_OPERATORS[case]
        if form == "array":
            operators = np.empty((0, 2, 2)) if case == "empty" else np.stack(operators)
        with pytest.raises(error, match="^" + re.escape(prefix)) as excinfo:
            KrausChannel(operators)
        assert excinfo.type is error


class TestNothingToBuild:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: tensor([]), "tensor needs at least one channel"),
            (lambda: random_sio_channel(2, 0, seed=1), "need at least one operator"),
            (
                lambda: random_incoherent_channel(2, 0, seed=1),
                "need at least one operator",
            ),
        ],
    )
    def test_refusal(self, build, message):
        with pytest.raises(ValidationError) as excinfo:
            build()
        assert excinfo.type is ValidationError
        assert str(excinfo.value) == message


class TestApply:
    def test_identity_channel(self):
        rho = random_density(4, 4, seed=0)
        out = apply_channel(identity_channel(4), rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_half_bit_flip_definition(self):
        rho = random_density(2, 2, seed=8)
        out = apply_channel(bit_flip(0.5), rho)
        x = np.array([[0, 1], [1, 0]])
        expected = (rho.matrix + x @ rho.matrix @ x) / 2
        np.testing.assert_allclose(out.matrix, expected, atol=1e-15)

    def test_amplitude_damping_on_plus(self):
        out = apply_channel(amplitude_damping(0.36), plus_state())
        expected = np.array([[0.68, 0.4], [0.4, 0.32]])
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_channel(bit_flip(0.1), random_density(4, 4, seed=0))

    def test_trace_and_psd_preserved(self):
        for name, factory in LIBRARY.items():
            rho = random_density(2, 2, seed=hash(name) % 1000)
            out = apply_channel(factory(0.37), rho)
            assert abs(np.trace(out.matrix) - 1.0) <= 1e-9
            assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-9


def assert_tensor_is_kron(channels):
    expected = [
        reduce(np.kron, combo)
        for combo in itertools.product(*(c.operators for c in channels))
    ]
    np.testing.assert_array_equal(tensor(channels).operators, np.array(expected))


class TestComposeAndTensor:
    def test_tensor_of_identities(self):
        channel = tensor([identity_channel(2)] * 3)
        rho = random_density(8, 8, seed=4)
        np.testing.assert_allclose(
            apply_channel(channel, rho).matrix, rho.matrix, atol=1e-14
        )

    def test_tensor_matches_brute_force_on_bell(self):
        channel = tensor([bit_flip(0.2), bit_flip(0.7)])
        assert len(channel.operators) == 4
        bell = phi_state("00", "+")
        expected = brute_apply(channel.operators, bell.matrix)
        np.testing.assert_allclose(
            apply_channel(channel, bell).matrix, expected, atol=1e-14
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(sorted(LIBRARY)), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=4,
        )
    )
    def test_tensor_bits_equal_kron(self, factors):
        channels = [LIBRARY[kind](param) for kind, param in factors]
        assert_tensor_is_kron(channels)

    @pytest.mark.parametrize(
        "channels",
        [
            [identity_channel(3), bit_flip(0.3)],
            [bit_flip(0.3), identity_channel(3)],
            [identity_channel(4), depolarizing(0.2), identity_channel(3)],
        ],
        ids=["3x2", "2x3", "4x2x3"],
    )
    def test_tensor_bits_equal_kron_mixed_dims(self, channels):
        assert_tensor_is_kron(channels)

    def test_tensor_calls_no_kron(self, monkeypatch):
        def no_kron(*args, **kwargs):
            raise AssertionError("np.kron called")

        monkeypatch.setattr(np, "kron", no_kron)
        channel = tensor([bit_flip(0.1), depolarizing(0.2), amplitude_damping(0.3)])
        assert channel.operators.shape == (16, 8, 8)

    def test_compose_with_identity_is_noop(self):
        channel = depolarizing(0.3)
        composed = compose(channel, identity_channel(2))
        for seed in range(50):
            rho = random_density(2, 2, seed=seed)
            a = apply_channel(composed, rho)
            b = apply_channel(channel, rho)
            assert max_abs(a.matrix - b.matrix) <= 1e-10

    def test_compose_order(self):
        # phase damping then amplitude damping, versus the reverse
        first = amplitude_damping(0.5)
        second = phase_damping(0.5)
        rho = plus_state()
        via_compose = apply_channel(compose(second, first), rho)
        step = apply_channel(first, rho)
        expected = apply_channel(second, step)
        np.testing.assert_allclose(via_compose.matrix, expected.matrix, atol=1e-14)

    def test_compose_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose(bit_flip(0.1), identity_channel(4))


class TestClassify:
    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_standard_channels_strictly_incoherent(self, name):
        result = classify(LIBRARY[name](0.4))
        assert result.channel_class is ChannelClass.STRICTLY_INCOHERENT
        assert result.witness is None

    def test_hadamard_not_incoherent(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        result = classify(KrausChannel((h,), label="hadamard"))
        assert result.channel_class is ChannelClass.NOT_INCOHERENT
        assert result.witness.axis == "column"
        assert result.witness.positions == (0, 1)

    def test_incoherent_only_witness(self):
        k1 = np.array([[1, 1], [0, 0]], dtype=complex) / np.sqrt(2)
        k2 = np.array([[1, -1], [0, 0]], dtype=complex) / np.sqrt(2)
        result = classify(KrausChannel((k1, k2)))
        assert result.channel_class is ChannelClass.INCOHERENT_ONLY
        assert result.witness.axis == "row"
        assert result.witness.index == 0

    def test_tensor_of_sio_is_sio(self):
        combos = itertools.product(
            [bit_flip(0.1), phase_flip(0.9), amplitude_damping(0.5)], repeat=2
        )
        for a, b in combos:
            assert (
                classify(tensor([a, b])).channel_class
                is ChannelClass.STRICTLY_INCOHERENT
            )

    def test_random_sio_channels_classify_sio(self):
        for seed in range(10):
            channel = random_sio_channel(4, 3, seed=seed)
            assert (
                classify(channel).channel_class is ChannelClass.STRICTLY_INCOHERENT
            )

    def test_random_incoherent_channels_are_incoherent(self):
        for seed in range(10):
            channel = random_incoherent_channel(3, 3, seed=seed)
            assert classify(channel).channel_class in (
                ChannelClass.INCOHERENT_ONLY,
                ChannelClass.STRICTLY_INCOHERENT,
            )

    def test_zero_tol_is_configurable(self):
        eps = 1e-9
        rotation = np.array(
            [[np.cos(eps), -np.sin(eps)], [np.sin(eps), np.cos(eps)]],
            dtype=complex,
        )
        channel = KrausChannel((rotation,), label="tiny rotation")
        assert classify(channel).channel_class is ChannelClass.NOT_INCOHERENT
        assert (
            classify(channel, zero_tol=1e-6).channel_class
            is ChannelClass.STRICTLY_INCOHERENT
        )


# Entries of the patterned stacks: mostly zeros, some exactly at zero_tol
# (|x| > zero_tol is False there), the rest small enough that the drawn
# operators keep sum K^dag K below I.
AT_TOL = ("tol", "-tol", "itol")
PATTERN_VALUES = (0.0,) * 5 + AT_TOL + (0.1, -0.05j, 0.07 + 0.02j, 1e-13)


@st.composite
def patterned_channels(draw):
    """A complete channel whose leading operators carry a random sparse
    pattern; the completion operators sqrt(lam) |t><v| have one nonzero row
    each, so they add row violations only."""
    zero_tol = draw(st.sampled_from([0.0, 1e-12, 0.05, 0.1]))
    dim = draw(st.integers(1, 4))
    count = draw(st.integers(1, 4))
    scale = {"tol": zero_tol, "-tol": -zero_tol, "itol": 1j * zero_tol}
    cells = draw(
        st.lists(
            st.sampled_from(PATTERN_VALUES),
            min_size=count * dim * dim,
            max_size=count * dim * dim,
        )
    )
    pattern = np.array(
        [scale.get(c, c) for c in cells], dtype=np.complex128
    ).reshape(count, dim, dim)
    gram = sum(op.conj().T @ op for op in pattern)
    lam, vecs = np.linalg.eigh(np.eye(dim) - gram)
    targets = draw(st.lists(st.integers(0, dim - 1), min_size=dim, max_size=dim))
    completion = np.zeros((dim, dim, dim), dtype=np.complex128)
    for j, t in enumerate(targets):
        completion[j, t, :] = np.sqrt(lam[j]) * vecs[:, j].conj()
    return KrausChannel(list(pattern) + list(completion)), zero_tol


def assert_classify_matches_loop(channel, zero_tol):
    result = classify(channel, zero_tol)
    name, witness = classify_loop(channel.operators, zero_tol)
    assert result.channel_class.value == name
    if witness is None:
        assert result.witness is None
    else:
        w = result.witness
        assert (w.operator_index, w.axis, w.index, w.positions) == witness


class TestClassifyDifferential:
    @settings(max_examples=200, deadline=None)
    @given(patterned_channels())
    def test_matches_loop_oracle(self, drawn):
        assert_classify_matches_loop(*drawn)

    def test_row_violation_before_column_violation(self):
        row_only = np.array([[0.5, 0.5], [0, 0]])  # row 0 twice, columns once
        column = np.array([[0.5, 0], [0.5, 0]])  # column 0 twice
        row_only_too = np.array([[0.5, -0.5], [0, 0]])
        rest = np.diag([0.0, np.sqrt(0.5)])
        channel = KrausChannel([row_only, column, row_only_too, rest])
        result = classify(channel)
        assert result.channel_class is ChannelClass.NOT_INCOHERENT
        assert result.witness == ClassificationWitness(1, "column", 0, (0, 1))
        assert_classify_matches_loop(channel, 0.0)

    def test_first_of_several_violating_operators(self):
        a = np.array([[0, 0.5, 0], [0, 0.5, 0], [0.5, 0, 0]])  # column 1
        b = np.array([[0.5, 0, 0], [0.5, 0, 0], [0, 0, 0]])  # column 0
        gram = a.conj().T @ a + b.conj().T @ b
        rest = np.diag(np.sqrt(1.0 - np.diag(gram)))
        channel = KrausChannel([a, b, rest])
        result = classify(channel)
        assert result.witness == ClassificationWitness(0, "column", 1, (0, 1))
        assert_classify_matches_loop(channel, 0.0)


class TestFactories:
    def test_bit_flip_zero_acts_as_identity(self):
        channel = bit_flip(0.0)
        rho = random_density(2, 2, seed=12)
        np.testing.assert_allclose(
            apply_channel(channel, rho).matrix, rho.matrix, atol=1e-15
        )

    def test_full_phase_damping_dephases(self):
        out = apply_channel(phase_damping(1.0), plus_state())
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-15)

    def test_depolarizing_on_ground_state(self):
        out = apply_channel(depolarizing(0.3), from_pure([1.0, 0.0]))
        np.testing.assert_allclose(out.matrix, np.diag([0.85, 0.15]), atol=1e-12)

    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_parameter_range(self, name):
        # The range error and the label name the kind's spec key.
        key, factory = CHANNEL_FACTORIES[name]
        assert factory is LIBRARY[name]
        for value in (-0.1, 1.1):
            with pytest.raises(OutOfRangeError) as info:
                factory(value)
            assert str(info.value) == f"{key} must be in [0, 1], got {value}"
        assert factory(0.25).label == f"{name}({key}=0.25)"


class TestLocalChannel:
    def test_identity_at_zero_parameters(self):
        channel = local_channel([("bitflip", 0.0), ("bitflip", 0.0)])
        rho = random_density(4, 4, seed=7)
        np.testing.assert_allclose(
            apply_channel(channel, rho).matrix, rho.matrix, atol=1e-14
        )

    def test_bell_coherence_survives_bit_flips(self):
        from cohfreeze import c_rel_ent

        channel = local_channel([("bitflip", 0.2), ("bitflip", 0.7)])
        out = apply_channel(channel, phi_state("00", "+"))
        assert c_rel_ent(out) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_kinds_classify_sio(self):
        channel = local_channel(
            [("bitflip", 0.3), ("phaseflip", 0.6), ("amplitudedamping", 0.4)]
        )
        assert len(channel.operators) == 8
        assert classify(channel).channel_class is ChannelClass.STRICTLY_INCOHERENT

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            local_channel([("squeeze", 0.5)])


class TestIdentityEquality:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: phi_state("01", "-"),
            lambda: bit_flip(0.1),
            lambda: local_channel([("bitflip", 0.1), ("phaseflip", 0.3)]),
        ],
        ids=["DensityMatrix", "KrausChannel", "LocalChannel"],
    )
    def test_eq_and_hash_do_not_raise(self, make):
        a, b = make(), make()
        assert a == a
        assert (a == b) is False  # equal entries, distinct objects
        assert (a != b) is True
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2


class TestMonotonicity:
    def test_sio_channels_keep_diagonal_states_diagonal(self):
        for seed in range(8):
            channel = random_sio_channel(4, 2, seed=seed)
            rho = dephase(random_density(4, 4, seed=seed + 50))
            out = apply_channel(channel, rho)
            assert is_exactly_diagonal(out.matrix)

    def test_dephase_commutes_with_sio(self):
        for seed in range(8):
            channel = random_sio_channel(4, 3, seed=seed + 200)
            rho = random_density(4, 4, seed=seed + 300)
            a = apply_channel(channel, dephase(rho))
            b = dephase(apply_channel(channel, rho))
            assert max_abs(a.matrix - b.matrix) <= 1e-9

    def test_generic_unitary_not_incoherent(self):
        u = random_unitary(4, seed=17)
        result = classify(KrausChannel((u,), label="random unitary"))
        assert result.channel_class is ChannelClass.NOT_INCOHERENT
