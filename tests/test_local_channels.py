"""The factored LocalChannel against the dense tensor-product channel.

Every factored step of a certificate (apply, adjoint, classify, closed-form
recovery) is compared with tensor(factors) and with the loop oracle.
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
    LocalChannel,
    ValidationError,
    apply_channel,
    certify_freezing,
    classify,
    dephase,
    local_channel,
    petz_recovery,
    random_density,
    tensor,
)
from cohfreeze.cli import main
from cohfreeze.recovery import _closed_form_recovery
from cohfreeze.specs import parse_channel_spec, parse_state_spec

from oracles import brute_apply

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
            local.contract(x), brute_apply(dense.operators, x), atol=1e-13
        )
        np.testing.assert_allclose(
            local.contract(x, adjoint=True),
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
        recover = _closed_form_recovery(local, delta0, delta_t)
        kraus = petz_recovery(tensor(local.factors), delta0)
        for state in (apply_channel(local, rho0), delta_t):
            np.testing.assert_allclose(
                recover(state).matrix,
                brute_apply(kraus.operators, state.matrix),
                atol=1e-12,
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


class TestEdges:
    @pytest.mark.parametrize(
        "spec, num_factors, dim",
        [
            ("local [identity dim=4]", 1, 4),
            ("local [bitflip q=0.1, local [bitflip q=0.2]]", 2, 4),
            ("local [identity dim=3, amplitudedamping g=1]", 2, 6),
        ],
    )
    def test_same_as_dense(self, spec, num_factors, dim):
        local = parse_channel_spec(spec)
        dense = tensor(local.factors)
        assert len(local.factors) == num_factors
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
        assert len(local.operators[5:9]) == 4
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
        expected = classify(tensor(parse_channel_spec(spec).factors))
        assert expected.channel_class is not ChannelClass.STRICTLY_INCOHERENT
        assert main(["classify", "--channel", spec]) == 0
        assert capsys.readouterr().out == (
            f"class = {expected.channel_class.value}\n"
            f"witness = {expected.witness.describe()}\n"
        )

    def test_certify_allow_non_strict_prints_dense_text(self, capsys):
        state_spec = "phi N=2 l=01 sign=-"
        channel_spec = f"local [{IO_ONLY}, amplitudedamping g=0.3]"
        dense = tensor(parse_channel_spec(channel_spec).factors)
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

    def test_exactly_strict_factors_only_take_the_closed_form(self):
        # A rotation by 1e-13 classifies strictly incoherent at the default
        # zero_tol, but the recovery scales its small entries up by
        # (d0/dt)^(1/2) ~ 3e5 here; the certificate runs the dense path and
        # refuses that recovery's Kraus list as the dense channel does.
        local = parse_channel_spec("local [raw dim=2 ops=[[1,-1e-13,1e-13,1]]]")
        assert classify(local).channel_class is ChannelClass.STRICTLY_INCOHERENT
        rho0 = DensityMatrix(np.diag([1.0 - 1e-11, 1e-11]).astype(complex))
        for channel in (local, tensor(local.factors)):
            with pytest.raises(ValidationError, match="completeness fails"):
                certify_freezing(channel, rho0)


def test_certify_local_never_builds_the_kraus_list(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("dense Kraus list built")

    dense_tensor = cohfreeze.channels.tensor
    for module in (cohfreeze, *vars(cohfreeze).values()):
        if getattr(module, "tensor", None) is dense_tensor:
            monkeypatch.setattr(module, "tensor", refuse)
    assert cohfreeze.recovery.tensor is refuse
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
