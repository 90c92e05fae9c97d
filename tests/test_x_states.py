"""The freezing certificate of an X state under qubit local noise, which runs
on the diagonal and anti-diagonal lines of the state.

Each line certificate is compared with the dense tensor-product certificate
and, at d <= 8, with the reference certificate of tests/oracles.py; the
metamorphic relations of tests/test_metamorphic.py are restated for X
states at d = 16..64. The block rule is checked against DensityMatrix, and
the inputs that keep the dense closed form against values pinned before the
line path existed.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from cohfreeze import (
    CHANNEL_FACTORIES,
    DensityMatrix,
    DimensionMismatchError,
    FreezingCertificate,
    KrausChannel,
    LocalChannel,
    ValidationError,
    apply_channel,
    bit_flip,
    bitflip_transfer_weights,
    bromley_spec,
    certify_freezing,
    classify,
    identity_channel,
    local_channel,
    mixed_family,
    phi_state,
    random_density,
    tensor,
)
from cohfreeze import recovery, states
from cohfreeze.cli import main
from cohfreeze.experiments import FAMILY_TOL
from cohfreeze.linalg import MAX_DIM, _x_lines, _x_matrix, binary_entropy, max_abs
from cohfreeze.recovery import CERTIFICATE_TOL
from cohfreeze.specs import parse_channel_spec
from cohfreeze.states import MixedFamilySpec, _random_weights

from oracles import brute_apply, reference_certificate

TOL = 1e-8
GAP = 1e-12
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
KINDS = sorted(CHANNEL_FACTORIES)
# Kraus operators per factor kind; the dense comparison builds their product.
OPERATOR_COUNTS = {k: len(CHANNEL_FACTORIES[k][1](0.5).operators) for k in KINDS}
MAX_DENSE_OPERATORS = 256


def takes_the_lines(channel, rho):
    if not isinstance(channel, LocalChannel):
        return False
    return _x_lines(rho.matrix) is not None


def pm_mixture(num_qubits, rng):
    """A random +/- mixture: random p and weights over the bit strings."""
    p = float(rng.choice([0.0, 1.0, rng.uniform()]))
    return mixed_family(MixedFamilySpec(p, _random_weights(num_qubits, rng)))


def bromley(num_qubits, rng):
    c1, c3 = rng.uniform(-1, 1, 2)
    return mixed_family(bromley_spec(num_qubits, c1, c3))


def bell_diagonal(num_qubits, rng):
    """A random mixture of the four Bell states."""
    bells = [phi_state(bits, sign) for bits in ("00", "01") for sign in "+-"]
    weights = rng.dirichlet(np.ones(4))
    return DensityMatrix(sum(w * bell.matrix for w, bell in zip(weights, bells)))


def diagonal(num_qubits, rng):
    populations = rng.dirichlet(np.ones(2**num_qubits))
    zeros = rng.random(len(populations)) < 0.25  # some exact zeros
    zeros[rng.integers(len(populations))] = False
    populations[zeros] = 0.0
    return DensityMatrix(np.diag(populations / populations.sum()))


FAMILIES = {
    "pm-mixture": (pm_mixture, range(1, 7)),
    "bromley": (bromley, (2, 4, 6)),
    "bell-diagonal": (bell_diagonal, (2,)),
    "diagonal": (diagonal, range(1, 7)),
}


def random_local(num_qubits, rng):
    """Random library kinds, each parameter 0, 1 or uniform, with no more
    than MAX_DENSE_OPERATORS operators in the dense product."""
    while True:
        kinds = [str(k) for k in rng.choice(KINDS, num_qubits)]
        if np.prod([OPERATOR_COUNTS[k] for k in kinds]) <= MAX_DENSE_OPERATORS:
            break
    params = [float(rng.choice([0.0, 1.0, rng.uniform()])) for _ in kinds]
    channel = local_channel(list(zip(kinds, params)))
    assert isinstance(channel, LocalChannel)
    return channel


def assert_agrees(got, want):
    """Same verdict and failed checks, every number within GAP."""
    assert got.verdict == want.verdict
    assert got.failed_checks == want.failed_checks
    assert got.recovery_incoherent == want.recovery_incoherent
    assert got.recovery_witness == want.recovery_witness
    for name in NUMERIC_FIELDS:
        assert abs(getattr(got, name) - getattr(want, name)) <= GAP, name


def assert_same_certificate(a, b):
    """Equal field by field: floats by ==, the evolved states entry by entry."""
    for f in dataclasses.fields(FreezingCertificate):
        if f.name == "_final_state":
            assert np.array_equal(a.final_state.matrix, b.final_state.matrix)
        else:
            assert getattr(a, f.name) == getattr(b, f.name), f.name


class TestAgainstTheDenseCertificate:
    @pytest.mark.parametrize(
        "family, num_qubits",
        [(name, n) for name, (_, sizes) in FAMILIES.items() for n in sizes],
    )
    def test_same_certificate(self, family, num_qubits):
        make, _ = FAMILIES[family]
        rng = np.random.default_rng([num_qubits, len(family)])
        for _ in range(6 if num_qubits < 6 else 2):
            rho0 = make(num_qubits, rng)
            local = random_local(num_qubits, rng)
            assert takes_the_lines(local, rho0)
            got = certify_freezing(local, rho0, TOL)
            assert_agrees(got, certify_freezing(tensor(local.factors), rho0, TOL))
            # the prepared record of a sweep takes the same path
            assert_same_certificate(
                certify_freezing(local, recovery._initial(rho0), TOL), got
            )
            if local.dim <= 8:
                expected = reference_certificate(
                    tensor(local.factors).operators, rho0.matrix, TOL
                )
                assert got.failed_checks == expected["failed_checks"]
                for name in NUMERIC_FIELDS:
                    assert abs(getattr(got, name) - expected[name]) <= GAP, name

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("param", [0.0, 1.0])
    def test_every_kind_at_its_ends(self, kind, param):
        # Parameters 0 and 1 leave Lambda(delta0) with an empty or a
        # nonempty kernel; both layouts take the same support.
        rng = np.random.default_rng(len(kind) + int(param))
        for num_qubits in (1, 2, 3):
            local = local_channel([(kind, param)] * num_qubits)
            for rho0 in (pm_mixture(num_qubits, rng), diagonal(num_qubits, rng)):
                got = certify_freezing(local, rho0, TOL)
                assert_agrees(got, certify_freezing(tensor(local.factors), rho0, TOL))


def local_phases(factors, rho, rng):
    """Conjugate each qubit by diag(1, e^(i theta))."""
    phases = [np.diag([1.0, np.exp(2j * np.pi * rng.uniform())]) for _ in factors]
    factors = [
        KrausChannel(u @ f.operators @ u.conj().T) for u, f in zip(phases, factors)
    ]
    u = phases[0]
    for v in phases[1:]:
        u = np.kron(u, v)
    return factors, u @ rho @ u.conj().T


def qubits_permuted(factors, rho, rng):
    order = rng.permutation(len(factors))
    n = len(factors)
    tensor_rho = rho.reshape([2] * (2 * n)).transpose([*order, *(n + order)])
    return [factors[i] for i in order], tensor_rho.reshape(rho.shape)


def qubit_relabelled(factors, rho, rng):
    """Swap |0> and |1> of one qubit."""
    k = rng.integers(len(factors))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    factors = list(factors)
    factors[k] = KrausChannel(x @ factors[k].operators @ x)
    flip = np.eye(1)
    for i in range(len(factors)):
        flip = np.kron(flip, x if i == k else np.eye(2))
    return factors, flip @ rho @ flip


def kraus_reordered(factors, rho, rng):
    k = rng.integers(len(factors))
    ops = factors[k].operators
    factors = list(factors)
    factors[k] = KrausChannel(ops[rng.permutation(len(ops))])
    return factors, rho


def kraus_split(factors, rho, rng):
    k = rng.integers(len(factors))
    ops = factors[k].operators
    j = rng.integers(len(ops))
    theta = rng.uniform(0.2, 1.4)
    pair = np.stack([np.cos(theta) * ops[j], np.sin(theta) * ops[j]])
    factors = list(factors)
    factors[k] = KrausChannel(np.concatenate([ops[:j], pair, ops[j + 1 :]]))
    return factors, rho


def with_ancilla(factors, rho, rng):
    """An idle qubit in |0>: the state is no longer an X state, so the
    changed pair takes the dense closed form."""
    return [*factors, local_channel([("bitflip", 0.0)]).factors[0]], np.kron(
        rho, np.diag([1.0, 0.0])
    )


RELATIONS = (
    local_phases,
    qubits_permuted,
    qubit_relabelled,
    kraus_reordered,
    kraus_split,
    with_ancilla,
)


@pytest.mark.parametrize(
    "family, num_qubits",
    [(name, n) for name, (_, sizes) in FAMILIES.items() for n in sizes if n >= 4],
)
def test_relations_keep_the_x_certificate(family, num_qubits):
    make, _ = FAMILIES[family]
    rng = np.random.default_rng([7919, num_qubits, len(family)])
    for _ in range(3):
        rho = make(num_qubits, rng)
        kinds = rng.choice(KINDS, num_qubits)
        params = rng.uniform(0.05, 0.95, num_qubits)
        factors = local_channel([(str(k), p) for k, p in zip(kinds, params)]).factors
        base = certify_freezing(LocalChannel(factors), rho, TOL)
        for relation in RELATIONS:
            if relation is with_ancilla and num_qubits == 6:
                continue  # past MAX_DIM
            changed, matrix = relation(factors, rho.matrix, rng)
            channel, state = LocalChannel(tuple(changed)), DensityMatrix(matrix)
            if relation is not with_ancilla:
                assert takes_the_lines(channel, state), relation.__name__
            got = certify_freezing(channel, state, TOL)
            assert got.failed_checks == base.failed_checks, relation.__name__
            for name in NUMERIC_FIELDS:
                assert abs(getattr(got, name) - getattr(base, name)) <= GAP, (
                    relation.__name__,
                    name,
                )


class TestMechanism:
    def test_certify_decomposes_only_the_parsed_state(self, monkeypatch, capsys):
        spectra, built = [], []
        original_eigvalsh = np.linalg.eigvalsh
        original_init = DensityMatrix.__post_init__

        def counted_eigvalsh(matrix, *args, **kwargs):
            spectra.append(matrix)
            return original_eigvalsh(matrix, *args, **kwargs)

        def counted_init(state):
            built.append(state)
            original_init(state)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(DensityMatrix, "__post_init__", counted_init)
        factors = ", ".join(f"{k} {CHANNEL_FACTORIES[k][0]}=0.3" for k in KINDS)
        argv = ["certify", "--state", "phi N=6 l=010011 sign=-"]
        assert main([*argv, "--channel", f"local [{factors}]"]) in (0, 1)
        assert capsys.readouterr().out.startswith("verdict = ")
        # rho0's validation at parse; delta0 is rho0's diagonal line, never
        # a DensityMatrix, on the line layout
        assert len(spectra) == 1
        assert spectra[0].shape == (64, 64)
        assert len(built) == 1

    @pytest.mark.parametrize(
        "rho0, spec",
        [
            (phi_state("01", "+"), "local [bitflip q=0.3, bitflip q=0.85]"),
            (
                phi_state("0110", "-"),
                "local [amplitudedamping g=0.4, phasedamping l=1, "
                "depolarizing q=0.2, bitphaseflip q=0]",
            ),
            (phi_state("0", "+"), "local [amplitudedamping g=1]"),
        ],
    )
    def test_final_state_is_built_when_read(self, rho0, spec, monkeypatch):
        channel = parse_channel_spec(spec)
        certificate = certify_freezing(channel, rho0)
        built = []
        original_init = DensityMatrix.__post_init__

        def counted_init(state):
            built.append(state)
            original_init(state)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted_init)
        first, second = certificate.final_state, certificate.final_state
        assert built == [first, second]  # validated at each read, not kept
        monkeypatch.undo()
        expected = apply_channel(channel, rho0).matrix
        pickled = pickle.loads(pickle.dumps(certificate))
        assert pickled == certificate
        for state in (first, second, pickled.final_state):
            assert isinstance(state, DensityMatrix)
            np.testing.assert_array_equal(state.matrix, expected)
            assert state.matrix.tobytes() == expected.tobytes()

    def test_apply_channel_and_contract_take_the_line_kernel(self):
        rng = np.random.default_rng(3)
        local = random_local(5, rng)
        rho = pm_mixture(5, rng)
        lines = _x_lines(rho.matrix)
        for adjoint in (False, True):
            expected = _x_matrix(local._contract_lines(lines, adjoint=adjoint))
            got = local.contract(rho.matrix, adjoint=adjoint)
            assert got.tobytes() == expected.tobytes()
        dense = apply_channel(tensor(local.factors), rho).matrix
        np.testing.assert_allclose(apply_channel(local, rho).matrix, dense, atol=1e-15)
        # any complex X matrix, as the recovery's weighted arguments are
        x = _x_matrix(rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32)))
        operators = tensor(local.factors).operators
        np.testing.assert_allclose(
            local.contract(x), brute_apply(operators, x), atol=1e-13
        )
        np.testing.assert_allclose(
            local.contract(x, adjoint=True),
            brute_apply(operators.conj().transpose(0, 2, 1), x),
            atol=1e-13,
        )


class TestDimensionCheck:
    """A state and a channel of different sizes are refused once, before
    the layout is chosen, with apply_channel's message."""

    @pytest.mark.parametrize(
        "channel, state, lines",
        [
            ("local [bitflip q=0.2, bitflip q=0.2, bitflip q=0.2]", "phi", True),
            ("local [phaseflip q=0.3]", "phi", True),
            ("local [bitflip q=0.2, bitflip q=0.2, bitflip q=0.2]", "dense", False),
            ("local [identity dim=3, bitflip q=0.2]", "phi", False),
            ("raw dim=2 ops=[[1,0,0,1]]", "phi", False),
        ],
    )
    def test_certify_freezing_refuses_a_size_mismatch(self, channel, state, lines):
        channel = parse_channel_spec(channel)
        rho0 = phi_state("01", "-") if state == "phi" else random_density(4, 2, 3)
        # the layout the pair would take without the check
        assert takes_the_lines(channel, rho0) is lines
        with pytest.raises(DimensionMismatchError) as applied:
            apply_channel(channel, rho0)
        message = f"channel dim {channel.dim} does not match state dim 4"
        assert str(applied.value) == message
        for given in (rho0, recovery._initial(rho0)):
            with pytest.raises(DimensionMismatchError) as certified:
                certify_freezing(channel, given)
            assert str(certified.value) == message

    @pytest.mark.parametrize("shape", [(4, 4), (8, 2), (64,)])
    def test_contract_refuses_a_wrong_size_matrix(self, shape):
        local = local_channel([("bitflip", 0.2)] * 3)
        size = 4 if shape == (4, 4) else shape
        message = f"channel dim 8 does not match state dim {size}"
        for adjoint in (False, True):
            with pytest.raises(DimensionMismatchError) as refused:
                local.contract(np.zeros(shape), adjoint=adjoint)
            assert str(refused.value) == message

    @pytest.mark.parametrize(
        "channel, message",
        [
            (
                "local [bitflip q=0.2, bitflip q=0.2, bitflip q=0.2]",
                "channel dim 8 does not match state dim 4",
            ),
            ("local [phaseflip q=0.3]", "channel dim 2 does not match state dim 4"),
        ],
    )
    def test_cli_exits_3(self, channel, message, capsys):
        argv = ["certify", "--state", "phi N=2 l=01 sign=-", "--channel", channel]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"validation error: {message}\n")


def x_matrix(a, b, upper, lower, size=4):
    """The X matrix with diagonal (a, rest..., b) spread over size entries
    and corners upper = m[0, -1], lower = m[-1, 0]; the middle block is
    the identity scaled to the rest of the trace."""
    m = np.zeros((size, size), dtype=complex)
    m[0, 0], m[-1, -1] = a, b
    inner = (1 - a.real - b.real) / (size - 2)
    for i in range(1, size - 1):
        m[i, i] = inner
    m[0, -1], m[-1, 0] = upper, lower
    return m


class TestBlockRule:
    @pytest.mark.parametrize(
        "matrix",
        [
            x_matrix(0.5, 0.25, 0.5, 0.5),  # not positive semidefinite
            x_matrix(0.25, 0.25, 0.1, 0.1j),  # not Hermitian
            x_matrix(0.25, 0.25, 0.1, 0.1, size=6) * 1.5,  # trace 1.5
            x_matrix(0.25 + 1e-9j, 0.25, 0.1, 0.1),  # complex diagonal
            # Hermitian within HERMITIAN_TOL; the lower triangle, which
            # eigvalsh reads, gives -1.2e-10 and the upper -0.3e-10.
            x_matrix(0.25, 0.25, 0.25 + 0.3e-10, 0.25 + 1.2e-10),
        ],
        ids=["psd", "hermitian", "trace", "imaginary-diagonal", "lower-triangle"],
    )
    def test_refused_with_the_density_matrix_message(self, matrix):
        with pytest.raises(ValidationError) as dense:
            DensityMatrix(matrix)
        with pytest.raises(ValidationError) as lines:
            states._x_spectrum(_x_lines(matrix))
        assert str(lines.value) == str(dense.value)

    def test_upper_triangle_alone_is_not_read(self):
        matrix = x_matrix(0.25, 0.25, 0.25 + 1.2e-10, 0.25 + 0.3e-10)
        spectrum = states._x_spectrum(_x_lines(matrix))
        np.testing.assert_allclose(
            np.sort(spectrum), DensityMatrix(matrix).eigenvalues, atol=1e-16
        )

    def test_spectrum_is_that_of_eigvalsh(self):
        rng = np.random.default_rng(17)
        for num_qubits in range(1, 7):
            rho = pm_mixture(num_qubits, rng)
            matrix = rho.matrix.copy()
            matrix[-1, 0] += 1e-11j  # within HERMITIAN_TOL: triangles differ
            spectrum = states._x_spectrum(_x_lines(matrix))
            np.testing.assert_allclose(
                np.sort(spectrum), DensityMatrix(matrix).eigenvalues, atol=1e-15
            )


# Certificates of inputs that keep the dense closed form, as float.hex,
# computed before the line path existed: states that are not X states.
PINNED = {
    "non-x": (
        lambda: local_channel([("amplitudedamping", 0.3), ("phaseflip", 0.2)] * 2),
        lambda: random_density(16, 3, seed=75),
        ("0x1.35ffbce62dab1p+1", "0x1.5ba1092e87210p-1", "0x1.be2ef53517c5ap+0",
         "0x1.edcab16a7cdadp+2", "0x1.b8aef284f9cf4p+1", "0x1.11733827fff33p+2",
         "0x1.2181967936930p-4", "0x1.8000000000000p-55"),
    ),
    "non-x-singular": (
        lambda: parse_channel_spec(
            "local [phaseflip q=0.3, bitflip q=0, amplitudedamping g=1]"
        ),
        lambda: random_density(8, 2, seed=11),
        ("0x1.f87e78be5ccbcp+0", "0x1.715a891b99008p-3", "0x1.ca53279ae9abbp+0",
         "0x1.216b87ab4406ap+2", "0x1.955e6a3727fadp-1", "0x1.dd7f74c8be0e9p+1",
         "0x1.ce8835909c6abp-3", "0x1.0000000000000p-53"),
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_dense_closed_form_is_unchanged(case):
    make_channel, make_state, pinned = PINNED[case]
    channel, rho0 = make_channel(), make_state()
    assert isinstance(channel, LocalChannel)
    assert not takes_the_lines(channel, rho0)
    certificate = certify_freezing(channel, rho0)
    assert certificate.failed_checks == ("cr_deviation", "recovery_residual_state")
    got = tuple(float(getattr(certificate, name)).hex() for name in NUMERIC_FIELDS)
    assert got == pinned
    np.testing.assert_array_equal(
        certificate.final_state.matrix, apply_channel(channel, rho0).matrix
    )


def test_an_x_state_under_a_qutrit_factor_takes_the_kraus_list():
    # A factor that is not a qubit gives the tensor product's Kraus list,
    # whose certificate the reference one checks (d = 6).
    x6 = np.eye(6, dtype=complex) / 6
    x6[0, 5] = x6[5, 0] = 0.1
    x6[2, 3] = x6[3, 2] = -0.05
    rho0 = DensityMatrix(x6)
    channel = parse_channel_spec("local [bitflip q=0.3, identity dim=3]")
    assert type(channel) is KrausChannel
    expected = tensor([bit_flip(0.3), identity_channel(3)])
    assert channel.operators.tobytes() == expected.operators.tobytes()
    certificate = certify_freezing(channel, rho0)
    reference = reference_certificate(channel.operators, x6, TOL)
    assert certificate.failed_checks == reference["failed_checks"]
    assert certificate.failed_checks == ("cr_deviation", "recovery_residual_state")
    assert certificate.recovery_incoherent == reference["recovery_incoherent"]
    assert certificate.recovery_witness is reference["recovery_witness"] is None
    for name in NUMERIC_FIELDS:
        assert abs(getattr(certificate, name) - reference[name]) <= 1e-12, name


def pm_mixture_lines(p, weights):
    """The (2, d) lines (linalg._x_lines) of mixed_family's state, built
    without its d x d matrix, with the same arithmetic."""
    d = 2 ** len(next(iter(weights)))
    index = np.array([int(bits, 2) for bits in weights])
    w = np.array(list(weights.values()))
    lines = np.zeros((2, d), complex)
    for at in (index, d - 1 - index):  # a string and its complement
        lines[0, at] += 0.5 * w
        lines[1, at] += 0.5 * w * (2.0 * p - 1.0)
    return lines


@pytest.mark.parametrize("num_qubits", range(7, 13))
def test_bit_flips_past_the_dense_cap_give_the_transferred_mixture(num_qubits):
    # Past linalg.MAX_DIM no DensityMatrix is built: the round trip runs on
    # the lines alone, against the paper's family in closed form.
    rng = np.random.default_rng(num_qubits)
    p = float(rng.uniform())
    weights = _random_weights(num_qubits, rng)
    qs = rng.uniform(0.05, 0.95, num_qubits).tolist()
    channel = local_channel([("bitflip", q) for q in qs])
    assert isinstance(channel, LocalChannel) and channel.dim > MAX_DIM
    x0 = pm_mixture_lines(p, weights)
    trip = recovery._line_round_trip(channel, classify(channel), x0)
    expected = pm_mixture_lines(p, bitflip_transfer_weights(weights, qs))
    assert max_abs(trip.final_state - expected) <= 1e-14
    assert abs(trip.cr - (1.0 - binary_entropy(p))) <= FAMILY_TOL
    assert max_abs(trip.state_error) <= CERTIFICATE_TOL
    assert max_abs(trip.diag_error) <= CERTIFICATE_TOL
