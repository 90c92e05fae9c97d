"""The factored LocalChannel against the dense tensor-product channel.

Every factored step of a certificate (apply, adjoint, classify, closed-form
recovery) is compared with tensor(factors) and with the loop oracle, and
certificates of states that are not X states with the Kraus list's and
the reference certificate of tests/oracles.py.
"""

import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohfreeze
from cohfreeze import (
    CHANNEL_FACTORIES,
    ChannelClass,
    CohfreezeError,
    DensityMatrix,
    KrausChannel,
    LocalChannel,
    NotStrictlyIncoherentError,
    OutOfRangeError,
    ValidationError,
    amplitude_damping,
    bit_flip,
    apply_channel,
    certify_freezing,
    classify,
    dephase,
    from_pure,
    identity_channel,
    local_channel,
    petz_recovery,
    random_density,
    tensor,
)
from cohfreeze.channels import channel_factory
from cohfreeze.cli import main
from cohfreeze.linalg import _parity_lines, _parity_matrix
from cohfreeze.recovery import CERTIFICATE_TOL, _closed_form_recovery
from cohfreeze.specs import parse_channel_spec, parse_state_spec

from oracles import brute_apply, reference_certificate

EDGE_PARAMETERS = (0.0, 1e-15, 1e-9, 0.5, 1.0 - 1e-9, 1.0)
H = "0.7071067811865476"
HADAMARD = f"raw dim=2 ops=[[{H},{H},{H},-{H}]]"
IO_ONLY = f"raw dim=2 ops=[[{H},{H},0,0],[{H},-{H},0,0]]"
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

factor_specs = st.tuples(
    st.sampled_from(sorted(CHANNEL_FACTORIES)),
    st.sampled_from(EDGE_PARAMETERS) | st.floats(0.0, 1.0),
)
local_specs = st.lists(factor_specs, min_size=1, max_size=4)


def off_the_pattern(factor, operator, row, column):
    """factor's Kraus list with 1e-300 added at one entry, as a raw channel:
    off its pattern when that entry is zero, otherwise no change at all."""
    ops = factor.operators.copy()
    ops[operator % len(ops), row % factor.dim, column % factor.dim] += 1e-300
    return KrausChannel(ops, label="raw")


library_factors = factor_specs.map(lambda spec: channel_factory(spec[0])(spec[1]))
judged_factors = st.one_of(
    library_factors,
    st.just(identity_channel(3)),
    st.just(identity_channel(16)),
    st.builds(
        off_the_pattern,
        library_factors | st.just(identity_channel(3)),
        st.integers(0, 3),
        st.integers(0, 2),
        st.integers(0, 2),
    ),
)


def random_state(dim, seed):
    rank = int(np.random.default_rng(seed).integers(1, dim + 1))
    return random_density(dim, rank, seed=seed)


def random_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def certify_or_error(channel, rho0):
    """The certificate, or the type of the package error it raised: near
    tol the l1 consistency check can refuse a Frozen verdict."""
    try:
        return certify_freezing(channel, rho0)
    except CohfreezeError as exc:
        return type(exc)


def adjoint_operators(channel):
    return [op.conj().T for op in channel.operators]


def adjoint_contract(local, x):
    """sum_n K_n^dag X K_n through the line kernel."""
    masks, lines = _parity_lines(x)
    return _parity_matrix(masks, local._contract_lines(lines, masks, adjoint=True))


def closed_form(local, delta0, delta_t):
    """_closed_form_recovery as a function of a d x d matrix."""
    d0, dt = delta0.matrix.diagonal(), delta_t.matrix.diagonal()

    def on_matrix(x):
        masks, lines = _parity_lines(x)
        return _parity_matrix(
            masks, _closed_form_recovery(local, d0, dt, masks, lines)
        )

    return on_matrix


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(local_specs, st.integers(0, 2**31))
    def test_apply_and_adjoint(self, factors, seed):
        local = local_channel(factors)
        dense = tensor(local.factors)
        rho = random_state(local.dim, seed)
        got = apply_channel(local, rho).matrix
        np.testing.assert_allclose(got, apply_channel(dense, rho).matrix, atol=1e-13)
        np.testing.assert_allclose(
            got, brute_apply(dense.operators, rho.matrix), atol=1e-13
        )
        x = random_matrix(local.dim, seed)
        np.testing.assert_allclose(
            apply_channel(local, x), brute_apply(dense.operators, x), atol=1e-13
        )
        np.testing.assert_allclose(
            adjoint_contract(local, x),
            brute_apply(adjoint_operators(dense), x),
            atol=1e-13,
        )

    @settings(max_examples=60, deadline=None)
    @given(local_specs, st.integers(0, 2**31))
    def test_closed_form_recovery(self, factors, seed):
        local = local_channel(factors)
        rho0 = random_state(local.dim, seed)
        delta0 = dephase(rho0)
        delta_t = apply_channel(local, delta0)
        recover = closed_form(local, delta0, delta_t)
        kraus = petz_recovery(tensor(local.factors), delta0)
        for state in (apply_channel(local, rho0), delta_t):
            np.testing.assert_allclose(
                recover(state.matrix),
                brute_apply(kraus.operators, state.matrix),
                atol=1e-12,
            )

    def test_closed_form_recovery_on_the_kernel(self):
        # Lambda(delta0) vanishes on basis states 1 and 2, so P_ker X P_ker
        # carries a full-rank state's block there; rho_t and Lambda(delta0)
        # have none to carry.
        local = parse_channel_spec("local [phaseflip q=0.3, bitflip q=0]")
        delta0 = dephase(parse_state_spec("phi N=2 l=00 sign=+"))
        delta_t = apply_channel(local, delta0)
        np.testing.assert_array_equal(np.diag(delta_t.matrix)[[1, 2]], 0)
        state = random_density(4, 4, seed=7)
        recover = closed_form(local, delta0, delta_t)
        kraus = petz_recovery(tensor(local.factors), delta0)
        np.testing.assert_allclose(
            recover(state.matrix), brute_apply(kraus.operators, state.matrix), atol=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(local_specs)
    def test_classify(self, factors):
        local = local_channel(factors)
        assert classify(local) == classify(tensor(local.factors))

    @settings(max_examples=60, deadline=None)
    @given(local_specs, st.integers(0, 2**31))
    def test_certificate(self, factors, seed):
        local = local_channel(factors)
        rho0 = random_state(local.dim, seed)
        factored = certify_or_error(local, rho0)
        dense = certify_or_error(tensor(local.factors), rho0)
        if isinstance(dense, type):
            assert factored is dense
            return
        assert factored.verdict == dense.verdict
        assert factored.failed_checks == dense.failed_checks
        assert factored.recovery_incoherent == dense.recovery_incoherent
        assert factored.recovery_witness == dense.recovery_witness
        for name in CERTIFICATE_FIELDS:
            assert getattr(factored, name) == pytest.approx(
                getattr(dense, name), abs=1e-12
            ), name

    @pytest.mark.parametrize(
        "num_qubits, kind",
        [
            (n, kind)
            for n in (4, 5, 6)
            for kind in sorted(CHANNEL_FACTORIES)
            if (n, kind) != (6, "depolarizing")  # 4,096 dense 64 x 64 operators
        ],
    )
    def test_certificate_at_workload_sizes(self, num_qubits, kind):
        # The hypothesis strategies stop at 4 factors; the certify-local
        # workload runs N = 4..6 with a parameter drawn per qubit.
        rng = np.random.default_rng(num_qubits)
        local = local_channel([(kind, p) for p in rng.uniform(0.05, 0.95, num_qubits)])
        assert isinstance(local, LocalChannel)
        dense = tensor(local.factors)
        bits = "0" + "".join(str(b) for b in rng.integers(0, 2, num_qubits - 1))
        sign = "+-"[rng.integers(0, 2)]
        phi = parse_state_spec(f"phi N={num_qubits} l={bits} sign={sign}")
        for rho0 in (phi, random_density(local.dim, 3, seed=num_qubits)):
            factored = certify_freezing(local, rho0)
            expected = certify_freezing(dense, rho0)
            assert factored.failed_checks == expected.failed_checks
            for name in CERTIFICATE_FIELDS:
                assert getattr(factored, name) == pytest.approx(
                    getattr(expected, name), abs=1e-12
                ), name

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(factor_specs, min_size=1, max_size=6),
        st.integers(1, 4),
        st.integers(0, 2**31),
    )
    def test_stacked_lines_equal_separate_calls(self, factors, k, seed):
        # k groups of lines, each of its own masks (a mask may repeat), in
        # one call give the bytes of k calls
        local = LocalChannel(tuple(channel_factory(kind)(q) for kind, q in factors))
        rng = np.random.default_rng(seed)
        d = local.dim
        groups = [rng.integers(0, d, rng.integers(1, 4)) for _ in range(k)]
        stack = [rng.standard_normal((len(g), d, 2)) @ (1, 1j) for g in groups]
        lines, masks = np.concatenate(stack), np.concatenate(groups)
        for adjoint in (False, True):
            got = local._contract_lines(lines, masks, adjoint=adjoint)
            assert got.shape == lines.shape
            expected = np.concatenate(
                [
                    local._contract_lines(x, g, adjoint=adjoint)
                    for x, g in zip(stack, groups)
                ]
            )
            assert got.tobytes() == expected.tobytes()


MAX_DENSE_OPERATORS = 256


def random_library_local(num_qubits, rng):
    """Library kinds, each parameter 0, 1 or uniform, with at most
    MAX_DENSE_OPERATORS operators in their Kraus list."""
    kinds = sorted(CHANNEL_FACTORIES)
    while True:
        chosen = [str(k) for k in rng.choice(kinds, num_qubits)]
        count = np.prod([len(channel_factory(k)(0.5).operators) for k in chosen])
        if count <= MAX_DENSE_OPERATORS:
            break
    pairs = [(k, float(rng.choice([0.0, 1.0, rng.uniform()]))) for k in chosen]
    local = local_channel(pairs)
    assert isinstance(local, LocalChannel)
    return local


def parity_sparse_state(dim, rng):
    """(|a> + e^(i t)|b>)/sqrt(2) with a ^ b neither 0 nor dim - 1, so one
    parity line besides the diagonal and anti-diagonal holds an entry."""
    a = int(rng.integers(dim))
    b = int(rng.choice([b for b in range(dim) if a ^ b not in (0, dim - 1)]))
    psi = np.zeros(dim, complex)
    psi[a], psi[b] = 1.0, np.exp(2j * np.pi * rng.uniform())
    return from_pure(psi / np.sqrt(2))


class TestStatesThatAreNotXStates:
    """A state with an entry off its diagonal and anti-diagonal runs on its
    parity lines too; its certificate is that of the Kraus list."""

    @pytest.mark.parametrize("num_qubits", range(1, 7))
    def test_against_the_kraus_list_and_the_reference(self, num_qubits):
        rng = np.random.default_rng([33, num_qubits])
        dim = 2**num_qubits
        for draw in range(8 if num_qubits < 6 else 4):
            local = random_library_local(num_qubits, rng)
            states = [random_density(dim, dim, seed=100 * num_qubits + draw)]
            if dim > 2:
                states.append(parity_sparse_state(dim, rng))
                assert len(_parity_lines(states[-1].matrix)[0]) == 3
            for rho0 in states:
                got = certify_or_error(local, rho0)
                dense = certify_or_error(tensor(local.factors), rho0)
                if isinstance(dense, type):
                    assert got is dense
                    continue
                assert got.verdict == dense.verdict
                assert got.failed_checks == dense.failed_checks
                assert got.recovery_witness == dense.recovery_witness
                for name in CERTIFICATE_FIELDS:
                    assert abs(getattr(got, name) - getattr(dense, name)) <= 1e-12, name
                if dim <= 8:
                    expected = reference_certificate(
                        tensor(local.factors).operators, rho0.matrix, CERTIFICATE_TOL
                    )
                    assert got.failed_checks == expected["failed_checks"]
                    assert expected["recovery_witness"] is got.recovery_witness is None
                    for name in CERTIFICATE_FIELDS:
                        assert abs(getattr(got, name) - expected[name]) <= 1e-12, name


class TestEdges:
    @pytest.mark.parametrize(
        "spec, factors, dim, kind",
        [
            ("local [identity dim=4]", lambda: [identity_channel(4)], 4, KrausChannel),
            (
                "local [bitflip q=0.1, local [bitflip q=0.2]]",
                lambda: [bit_flip(0.1), bit_flip(0.2)],
                4,
                LocalChannel,
            ),
            (
                "local [identity dim=3, amplitudedamping g=1]",
                lambda: [identity_channel(3), amplitude_damping(1.0)],
                6,
                KrausChannel,
            ),
        ],
    )
    def test_same_as_dense(self, spec, factors, dim, kind):
        # a factor that is not a qubit gives the tensor product, whose Kraus
        # operators the qubit LocalChannel lists lazily in the same order
        local = parse_channel_spec(spec)
        dense = tensor(factors())
        assert type(local) is kind
        assert local.dim == dense.dim == dim
        assert local.label == dense.label
        assert len(local.operators) == len(dense.operators)
        for got, want in zip(local.operators, dense.operators):
            np.testing.assert_array_equal(got, want)
        assert classify(local) == classify(dense)
        rho0 = random_state(dim, 5)
        np.testing.assert_allclose(
            apply_channel(local, rho0).matrix,
            apply_channel(dense, rho0).matrix,
            atol=1e-15,
        )
        factored = certify_freezing(local, rho0)
        expected = certify_freezing(dense, rho0)
        assert factored.verdict == expected.verdict
        assert factored.failed_checks == expected.failed_checks
        for name in CERTIFICATE_FIELDS:
            assert getattr(factored, name) == pytest.approx(
                getattr(expected, name), abs=1e-12
            ), name

    def test_empty_is_rejected(self):
        with pytest.raises(ValidationError):
            local_channel([])

    def test_operators_are_kronecker_products_bit_for_bit(self):
        local = local_channel(
            [
                ("bitflip", 0.1),
                ("depolarizing", 0.3),
                ("phasedamping", 0.45),
                ("amplitudedamping", 0.7),
            ]
        )
        expected = [
            reduce(np.kron, combo)
            for combo in itertools.product(*(f.operators for f in local.factors))
        ]
        assert len(local.operators) == len(expected) == 48
        for got, want in zip(local.operators, expected):
            np.testing.assert_array_equal(got, want)

    def test_operators_are_lazy_and_read_only(self):
        local = local_channel([("depolarizing", 0.3)] * 3)
        assert isinstance(local, LocalChannel)
        assert len(local.operators) == 64
        dense = tensor(local.factors).operators
        np.testing.assert_array_equal(local.operators[-1], dense[-1])
        with pytest.raises(IndexError):
            local.operators[64]
        with pytest.raises(ValueError):
            local.operators[0][0, 0] = 5.0

    @pytest.mark.parametrize(
        "spec",
        [
            f"local [{HADAMARD}, bitflip q=0.3]",
            f"local [bitflip q=0.3, {IO_ONLY}]",
        ],
    )
    def test_classify_non_strict_factor_prints_dense_witness(self, spec, capsys):
        dense = parse_channel_spec(spec)
        assert isinstance(dense, KrausChannel)
        expected = classify(dense)
        assert expected.channel_class is not ChannelClass.STRICTLY_INCOHERENT
        assert main(["classify", "--channel", spec]) == 0
        assert capsys.readouterr().out == (
            f"class = {expected.channel_class.value}\n"
            f"witness = {expected.witness.describe()}\n"
        )

    def test_certify_allow_non_strict_prints_dense_text(self, capsys):
        state_spec = "phi N=2 l=01 sign=-"
        channel_spec = f"local [{IO_ONLY}, amplitudedamping g=0.3]"
        dense = parse_channel_spec(channel_spec)
        assert isinstance(dense, KrausChannel)
        expected = certify_freezing(
            dense, parse_state_spec(state_spec), enforce_hypothesis=False
        )
        code = main(
            [
                "certify",
                "--state", state_spec,
                "--channel", channel_spec,
                "--allow-non-strict",
            ]
        )
        assert code == (0 if expected.frozen else 1)
        assert capsys.readouterr().out == expected.to_text() + "\n"
        assert main(["certify", "--state", state_spec, "--channel", channel_spec]) == 3

    def test_near_strict_factor_parses_dense_and_certifies_its_recovery(self):
        # A rotation by 1e-13 classifies strictly incoherent at the default
        # zero_tol but not entry by entry, so the local spec parses to the
        # dense channel. The recovery is built from the stack classify
        # judged, without the 1e-13 entries that (d0/dt)^(1/2) ~ 3e5 would
        # scale up, so its Kraus list is complete and the certificate returns.
        raw = "raw dim=2 ops=[[1,-1e-13,1e-13,1]]"
        channel = parse_channel_spec(f"local [{raw}]")
        assert isinstance(channel, KrausChannel)
        np.testing.assert_array_equal(
            channel.operators, parse_channel_spec(raw).operators
        )
        assert classify(channel).channel_class is ChannelClass.STRICTLY_INCOHERENT
        rho0 = DensityMatrix(np.diag([1.0 - 1e-11, 1e-11]).astype(complex))
        assert certify_freezing(channel, rho0).verdict == "Frozen"
        ops = petz_recovery(channel, rho0).operators
        completeness = np.einsum("nab,nac->bc", ops.conj(), ops)
        # exact off the diagonal; on it, off by at most ZERO_TOL^2 / dt + rounding
        assert completeness[0, 1] == completeness[1, 0] == 0
        np.testing.assert_allclose(completeness.diagonal(), 1.0, rtol=0, atol=1e-12)


class TestFactoredOrDense:
    def test_non_strict_factor_builds_the_dense_tensor_product(self):
        factors = [bit_flip(0.3), parse_channel_spec(IO_ONLY), bit_flip(0.6)]
        built = local_channel(factors)
        expected = tensor(factors)
        assert type(built) is KrausChannel
        assert built.label == expected.label
        np.testing.assert_array_equal(built.operators, expected.operators)

    @pytest.mark.parametrize("inner_first", [False, True])
    def test_nested_non_strict_spec_is_one_flat_tensor_product(self, inner_first):
        # kron(C, kron(A, B)) and kron(kron(C, A), B) round differently; a
        # nested local contributes its factors, so the spec builds the flat one.
        inner = f"local [{IO_ONLY}, amplitudedamping g=0.37]"
        items = [inner, "bitflip q=0.3"] if inner_first else ["bitflip q=0.3", inner]
        flat = [parse_channel_spec(IO_ONLY), amplitude_damping(0.37)]
        flat = flat + [bit_flip(0.3)] if inner_first else [bit_flip(0.3), *flat]
        channel = parse_channel_spec(f"local [{', '.join(items)}]")
        np.testing.assert_array_equal(channel.operators, tensor(flat).operators)

    def test_tensor_takes_a_local_channel_as_its_factors(self):
        local = local_channel([bit_flip(0.2), bit_flip(0.3)])
        assert isinstance(local, LocalChannel)
        got = tensor([local, bit_flip(0.1)])
        expected = tensor([bit_flip(0.2), bit_flip(0.3), bit_flip(0.1)])
        assert got.label == expected.label
        np.testing.assert_array_equal(got.operators, expected.operators)

    def test_local_channel_takes_a_local_channel_as_its_factors(self):
        local = local_channel([bit_flip(0.2), bit_flip(0.3)])
        nested = local_channel([local, bit_flip(0.1)])
        assert isinstance(nested, LocalChannel)
        assert len(nested.factors) == 3
        assert nested.factors[:2] == local.factors

    def test_nested_local_with_a_non_strict_factor_is_the_flat_product(self):
        local = local_channel([bit_flip(0.2), bit_flip(0.3)])
        raw = parse_channel_spec(IO_ONLY)
        built = local_channel([raw, local])
        expected = tensor([raw, bit_flip(0.2), bit_flip(0.3)])
        assert type(built) is KrausChannel
        assert built.label == expected.label
        np.testing.assert_array_equal(built.operators, expected.operators)

    @pytest.mark.parametrize("spec", [HADAMARD, IO_ONLY, "identity dim=3"])
    def test_local_channel_refuses_a_non_strict_factor(self, spec):
        with pytest.raises(
            NotStrictlyIncoherentError,
            match=r"^local channel factors must be qubit and strictly incoherent "
            r"entry by entry$",
        ):
            LocalChannel((bit_flip(0.3), parse_channel_spec(spec)))

    @pytest.mark.parametrize("num_factors", [1, 3, 5])
    def test_each_factor_is_judged_once(self, monkeypatch, num_factors):
        # one scan of all the factors' operators stacked, by classify's own
        # rule; classify itself is not called
        scans, classified = [], []
        rule = cohfreeze.channels._crowded_line

        def counted(entries):
            scans.append(entries.shape)
            return rule(entries)

        monkeypatch.setattr(cohfreeze.channels, "_crowded_line", counted)
        monkeypatch.setattr(
            cohfreeze.channels, "classify", lambda *args: classified.append(args)
        )
        factors = [bit_flip(0.1 * (i + 1)) for i in range(num_factors)]
        local = local_channel(factors)
        assert isinstance(local, LocalChannel)
        assert local.factors == tuple(factors)
        assert scans == [(2 * num_factors, 2, 2)]
        # a factor that is not a qubit is refused before any scan
        factors.insert(1, identity_channel(3))
        dense = local_channel(factors)
        assert type(dense) is KrausChannel
        assert dense.operators.tobytes() == tensor(factors).operators.tobytes()
        assert scans == [(2 * num_factors, 2, 2)]
        assert classified == []

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(judged_factors, min_size=1, max_size=3).filter(
            lambda factors: np.prod([f.dim for f in factors]) <= 64
        )
    )
    def test_one_scan_accepts_exactly_what_classify_calls_strict(self, factors):
        strict = all(
            f.dim == 2
            and classify(f, 0.0).channel_class is ChannelClass.STRICTLY_INCOHERENT
            for f in factors
        )
        try:
            local = LocalChannel(tuple(factors))
        except NotStrictlyIncoherentError as exc:
            assert not strict
            assert str(exc) == (
                "local channel factors must be qubit and strictly incoherent "
                "entry by entry"
            )
        else:
            assert strict
            assert local.factors == tuple(factors)
        built = local_channel(factors)
        assert isinstance(built, LocalChannel) is strict
        if not strict:
            expected = tensor(factors)
            assert built.label == expected.label
            assert built.operators.tobytes() == expected.operators.tobytes()

    def test_type_check_comes_first(self):
        with pytest.raises(ValidationError, match="must be KrausChannels"):
            LocalChannel((bit_flip(0.3), "bitflip"))

    @pytest.mark.parametrize("zero_tol", [0.0, 1e-12, 0.3, 1.0, 1e6])
    def test_classify_is_strict_at_every_zero_tol(self, zero_tol):
        local = local_channel([("amplitudedamping", 0.4), ("depolarizing", 1e-15)])
        assert isinstance(local, LocalChannel)
        result = classify(local, zero_tol)
        assert result.channel_class is ChannelClass.STRICTLY_INCOHERENT
        assert result.witness is None

    @pytest.mark.parametrize("zero_tol", [-1e-12, float("nan"), float("inf")])
    def test_classify_still_checks_zero_tol(self, zero_tol):
        with pytest.raises(OutOfRangeError):
            classify(local_channel([("bitflip", 0.2)]), zero_tol)


def test_certify_local_never_builds_the_kraus_list(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("dense Kraus list built")

    dense_tensor = cohfreeze.channels.tensor
    for module in (cohfreeze, *vars(cohfreeze).values()):
        if getattr(module, "tensor", None) is dense_tensor:
            monkeypatch.setattr(module, "tensor", refuse)
    assert cohfreeze.channels.tensor is refuse
    monkeypatch.setattr(np, "kron", refuse)
    factors = ", ".join(f"depolarizing q={0.1 * (i + 1)}" for i in range(6))
    code = main(
        [
            "certify",
            "--state", "phi N=6 l=010011 sign=+",
            "--channel", f"local [{factors}]",
        ]
    )
    assert code == 1
    assert capsys.readouterr().out.startswith("verdict = NotFrozen\n")


def test_petz_recovery_of_a_local_channel_is_that_of_its_tensor_product():
    local = local_channel([("amplitudedamping", 0.3), ("depolarizing", 0.2)] * 2)
    assert isinstance(local, LocalChannel)
    rho0 = random_state(16, seed=31)
    delta0 = dephase(rho0)
    recovery = petz_recovery(local, delta0)
    expected = petz_recovery(tensor(local.factors), delta0)
    assert recovery.label == expected.label
    np.testing.assert_array_equal(recovery.operators, expected.operators)
    delta_t = apply_channel(local, delta0)
    recover = closed_form(local, delta0, delta_t)
    rho = random_state(16, seed=32)
    np.testing.assert_allclose(
        apply_channel(recovery, rho).matrix, recover(rho.matrix), rtol=0, atol=1e-13
    )


def test_nothing_reads_the_kronecker_list(monkeypatch):
    def refuse(self, index):
        raise AssertionError("Kronecker list read")

    monkeypatch.setattr(cohfreeze.channels._KroneckerOperators, "__getitem__", refuse)
    local = local_channel([("bitflip", 0.2), ("phasedamping", 0.4), ("bitflip", 0.7)])
    assert isinstance(local, LocalChannel)
    rho0 = random_state(8, seed=33)
    assert classify(local).channel_class is ChannelClass.STRICTLY_INCOHERENT
    apply_channel(local, rho0)
    assert certify_freezing(local, rho0).verdict in ("Frozen", "NotFrozen")
    assert petz_recovery(local, dephase(rho0)).dim == 8
