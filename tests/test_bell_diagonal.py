"""The analytic Bell-diagonal freezing families of Bromley, Cianciaruso and
Adesso (PRL 114, 210401): two-qubit states (I + c1 XX + c2 YY + c3 ZZ) / 4.

Under local bit flips the relative-entropy coherence of the family
(c1, -c1 c3, c3) is frozen at every flip probability, and under local
bit-phase flips so is that of (-c2 c3, c2, c3); the first family is not
frozen under local phase flips. The states are built here from the Pauli
matrices, not by the package. They are X states, whose round trip under
local noise runs on two parity lines, the diagonal and the anti-diagonal;
that round trip is checked on its own against the reference certificate.
"""

import numpy as np
import pytest

from cohfreeze import (
    DensityMatrix,
    c_l1,
    c_rel_ent,
    certify_freezing,
    classify,
    local_channel,
    tensor,
)
from cohfreeze import recovery
from cohfreeze.linalg import max_abs

from oracles import reference_certificate

TOL = 1e-8
# the certificate's numeric checks, in its order; a local channel's
# recovery is strictly incoherent, so the fourth check always passes
ROUND_TRIP_CHECKS = ("cr_deviation", "recovery_residual_state", "recovery_residual_diag")
DRAWS = 40
QS = np.linspace(0.0, 1.0, 11)
PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# The eigenvalues of the state of (c1, c2, c3) are (1 + s . c) / 4 over
# these rows s.
EIGENVALUE_SIGNS = np.array([[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]])


def bell_diagonal(c):
    matrix = np.eye(4, dtype=complex)
    for ci, pauli in zip(c, PAULIS):
        matrix += ci * np.kron(pauli, pauli)
    return DensityMatrix(matrix / 4)


def family_draws(family, seed):
    """DRAWS coefficient triples of the family whose state is positive
    semidefinite: the free pair uniform in [-1, 1]^2, rejected otherwise."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < DRAWS:
        c = family(*rng.uniform(-1, 1, 2))
        if np.all(1 + EIGENVALUE_SIGNS @ c >= 0):
            draws.append(c)
    return draws


def first_family(c1, c3):
    return (c1, -c1 * c3, c3)


def second_family(c2, c3):
    return (-c2 * c3, c2, c3)


def frozen_at(kind, c, q):
    channel = local_channel([(kind, q), (kind, q)])
    return certify_freezing(channel, bell_diagonal(c), TOL).frozen


@pytest.mark.parametrize(
    "family, kind, seed",
    [(first_family, "bitflip", 1), (second_family, "bitphaseflip", 2)],
    ids=["c2=-c1c3 under bit flips", "c1=-c2c3 under bit-phase flips"],
)
def test_family_is_frozen_at_every_q(family, kind, seed):
    for c in family_draws(family, seed):
        assert all(frozen_at(kind, c, q) for q in QS), c


def test_first_family_thaws_under_phase_flips():
    for c in family_draws(first_family, 3):
        assert not all(frozen_at("phaseflip", c, q) for q in QS), c


@pytest.mark.parametrize(
    "family, kind, seed",
    [
        (first_family, "bitflip", 1),
        (second_family, "bitphaseflip", 2),
        (first_family, "phaseflip", 3),
    ],
)
def test_verdict_matches_the_reference_certificate(family, kind, seed):
    channel = local_channel([(kind, 0.3), (kind, 0.3)])
    operators = tensor(channel.factors).operators
    for c in family_draws(family, seed):
        rho = bell_diagonal(c)
        expected = reference_certificate(operators, rho.matrix, TOL)
        assert certify_freezing(channel, rho, TOL).failed_checks == (
            expected["failed_checks"]
        ), c


@pytest.mark.parametrize(
    "family, kind, seed",
    [
        (first_family, "bitflip", 1),
        (second_family, "bitphaseflip", 2),
        (first_family, "phaseflip", 3),
    ],
)
def test_line_round_trip_matches_the_reference_certificate(family, kind, seed):
    # the two parity lines of each state, masks 0 and 3, read off the matrix
    masks, index = np.array([0, 3]), np.arange(4)
    for c in family_draws(family, seed):
        rho = bell_diagonal(c)
        lines = rho.matrix[index, index ^ masks[:, None]]
        for q in QS:
            channel = local_channel([(kind, q), (kind, q)])
            trip = recovery._line_round_trip(channel, classify(channel), masks, lines)
            got = {
                "cr_initial": c_rel_ent(rho),
                "cr_final": trip.cr,
                "c_l1_initial": c_l1(rho),
                "c_l1_final": trip.l1,
                "recovery_residual_state": max_abs(trip.state_error),
                "recovery_residual_diag": max_abs(trip.diag_error),
            }
            got["cr_deviation"] = abs(got["cr_final"] - got["cr_initial"])
            got["c_l1_deviation"] = abs(got["c_l1_final"] - got["c_l1_initial"])
            operators = tensor(channel.factors).operators
            expected = reference_certificate(operators, rho.matrix, TOL)
            failed = tuple(name for name in ROUND_TRIP_CHECKS if got[name] > TOL)
            assert failed == expected["failed_checks"], (c, q)
            for name, value in got.items():
                assert abs(value - expected[name]) <= 1e-12, (c, q, name)
