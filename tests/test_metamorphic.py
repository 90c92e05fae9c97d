"""Metamorphic relations of the freezing certificate.

Each relation changes the (channel, state) pair in a way that leaves every
reported quantity unchanged: relabelling the basis, conjugating by diagonal
phases, reordering or splitting the Kraus list, and adding an incoherent
ancilla that the channel does not touch. The certificate of the changed pair
must report the same failed checks and recovery class as the original, and
every number within 1e-12. Stacks are transformed with stacked matrix
products; a three-operand einsum over (n, d, d) is O(n d^4).
"""

import numpy as np
import pytest

from cohfreeze import (
    DensityMatrix,
    KrausChannel,
    certify_freezing,
    random_density,
    random_incoherent_channel,
    random_sio_channel,
)

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
DIMS = (12, 15, 18, 21, 24, 27, 30, 32, 36, 40, 44, 48, 52, 56, 60, 64)
ANCILLA_MAX_DIM = 32  # the ancilla doubles the dimension, up to 64


def permuted(ops, rho, rng):
    p = np.eye(len(rho))[rng.permutation(len(rho))]
    return p @ ops @ p.T, p @ rho @ p.T


def phased(ops, rho, rng):
    u = np.diag(np.exp(2j * np.pi * rng.uniform(size=len(rho))))
    return u @ ops @ u.conj().T, u @ rho @ u.conj().T


def reordered(ops, rho, rng):
    return ops[rng.permutation(len(ops))], rho


def split(ops, rho, rng):
    j = rng.integers(len(ops))
    theta = rng.uniform(0.2, 1.4)
    pair = np.stack([np.cos(theta) * ops[j], np.sin(theta) * ops[j]])
    return np.concatenate([ops[:j], pair, ops[j + 1 :]]), rho


def with_ancilla(ops, rho, rng):
    ket0 = np.diag([1.0, 0.0])
    return np.stack([np.kron(k, np.eye(2)) for k in ops]), np.kron(rho, ket0)


RELATIONS = (permuted, phased, reordered, split, with_ancilla)


def certify(ops, rho, strict):
    return certify_freezing(
        KrausChannel(ops), DensityMatrix(rho), TOL, enforce_hypothesis=strict
    )


def assert_same_report(got, want, relation):
    assert got.failed_checks == want.failed_checks, relation
    assert got.recovery_incoherent == want.recovery_incoherent, relation
    for name in NUMERIC_FIELDS:
        assert abs(getattr(got, name) - getattr(want, name)) <= GAP, (relation, name)


@pytest.mark.parametrize("strict", [True, False], ids=["sio", "io"])
@pytest.mark.parametrize("dim", DIMS)
def test_relations_keep_the_certificate(dim, strict):
    rng = np.random.default_rng(7919 * dim + strict)
    if strict:
        channel = random_sio_channel(dim, 1 + dim % 3, seed=dim)
    else:
        channel = random_incoherent_channel(dim, dim + dim % 3, seed=dim)
    ops = np.asarray(channel.operators)
    for rank in (1, 2, dim):
        rho = random_density(dim, rank, seed=100 * dim + rank).matrix
        base = certify(ops, rho, strict)
        for relation in RELATIONS:
            if relation is with_ancilla and dim > ANCILLA_MAX_DIM:
                continue
            got = certify(*relation(ops, rho, rng), strict)
            assert_same_report(got, base, relation.__name__)


def phased_permutation_cases(draws):
    """(unitary, pure state) draws at d = 2..64: a phased permutation and a
    state whose amplitude moduli are log-uniform over 1e-8..1."""
    rng = np.random.default_rng(575)
    for _ in range(draws):
        dim = int(rng.integers(2, 65))
        unitary = np.eye(dim)[rng.permutation(dim)] * np.exp(
            2j * np.pi * rng.uniform(size=dim)
        )
        amplitudes = 10 ** rng.uniform(-8, 0, dim) * np.exp(
            2j * np.pi * rng.uniform(size=dim)
        )
        amplitudes /= np.linalg.norm(amplitudes)
        yield unitary, np.outer(amplitudes, amplitudes.conj())


def test_phased_permutation_unitary_freezes_every_state():
    for unitary, rho in phased_permutation_cases(40):
        assert certify(unitary[None], rho, True).failed_checks == ()
