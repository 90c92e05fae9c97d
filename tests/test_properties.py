"""Cross-module invariants: measure postulates, entropy inequalities, and the
behaviour of random strictly incoherent channels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohfreeze import (
    DensityMatrix,
    apply_channel,
    binary_entropy,
    c_l1,
    c_rel_ent,
    canonical_bitstrings,
    dephase,
    phi_state,
    random_density,
    random_sio_channel,
    relative_entropy,
)
from cohfreeze.linalg import entropy_bits, max_abs


def flip_bits(bits):
    return bits.translate(str.maketrans("01", "10"))


def random_full_rank(dim, seed):
    return random_density(dim, dim, seed=seed)


def random_incoherent_state(dim, seed):
    rng = np.random.default_rng(seed)
    probs = rng.random(dim) + 0.05
    probs /= probs.sum()
    return DensityMatrix(np.diag(probs).astype(complex))


class TestEntropyInequalities:
    def test_concavity(self):
        for seed in range(25):
            rho = random_full_rank(4, seed)
            sigma = random_full_rank(4, seed + 1000)
            mix = DensityMatrix((rho.matrix + sigma.matrix) / 2)
            # S(rho) as c_rel_ent subtracts it, from the stored spectrum
            lhs = entropy_bits(mix.eigenvalues)
            rhs = (entropy_bits(rho.eigenvalues) + entropy_bits(sigma.eigenvalues)) / 2
            assert lhs >= rhs - 1e-9

    def test_klein_inequality(self):
        for seed in range(25):
            rho = random_full_rank(3, seed)
            sigma = random_full_rank(3, seed + 2000)
            value = relative_entropy(rho, sigma)
            assert math.isfinite(value)
            assert value >= 0.0

    def test_contractivity_under_sio(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            dim = int(rng.choice([2, 3, 4]))
            rho = random_full_rank(dim, seed + 1)
            sigma = random_full_rank(dim, seed + 3000)
            channel = random_sio_channel(dim, 3, seed=seed + 6000)
            before = relative_entropy(rho, sigma)
            after = relative_entropy(
                apply_channel(channel, rho), apply_channel(channel, sigma)
            )
            if math.isfinite(before) and math.isfinite(after):
                assert after <= before + 1e-8

    def test_dephased_state_minimizes_relative_entropy(self):
        for seed in range(4):
            rho = random_full_rank(4, seed + 4000)
            reference = relative_entropy(rho, dephase(rho))
            for k in range(25):
                delta = random_incoherent_state(4, seed * 100 + k)
                assert reference <= relative_entropy(rho, delta) + 1e-9


class TestMeasurePostulates:
    def test_monotonicity_c2(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            dim = int(rng.choice([2, 4]))
            rho = random_density(dim, int(rng.integers(1, dim + 1)), seed + 1)
            channel = random_sio_channel(dim, 3, seed=seed + 7000)
            out = apply_channel(channel, rho)
            assert c_rel_ent(out) <= c_rel_ent(rho) + 1e-8
            assert c_l1(out) <= c_l1(rho) + 1e-8

    def test_selective_monotonicity_c3(self):
        for seed in range(30):
            dim = 4
            rho = random_density(dim, dim, seed + 8000)
            channel = random_sio_channel(dim, 3, seed=seed + 9000)
            for measure in (c_l1, c_rel_ent):
                total = 0.0
                for op in channel.operators:
                    branch = op @ rho.matrix @ op.conj().T
                    weight = float(np.trace(branch).real)
                    if weight <= 1e-12:
                        continue
                    total += weight * measure(DensityMatrix(branch / weight))
                assert total <= measure(rho) + 1e-8

    def test_convexity_c4(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            lam = float(rng.uniform(0, 1))
            rho = random_density(4, 2, seed + 10000)
            sigma = random_density(4, 4, seed + 11000)
            mix = DensityMatrix(lam * rho.matrix + (1 - lam) * sigma.matrix)
            for measure in (c_l1, c_rel_ent):
                assert measure(mix) <= lam * measure(rho) + (1 - lam) * measure(
                    sigma
                ) + 1e-8

    def test_faithfulness_c1(self):
        for seed in range(20):
            rho = random_density(4, 4, seed + 12000)
            off = max_abs(rho.matrix - np.diag(rho.matrix.diagonal()))
            for measure in (c_l1, c_rel_ent):
                if off <= 1e-10:
                    assert measure(rho) <= 1e-9
                else:
                    assert measure(rho) > 0.0
            incoherent = random_incoherent_state(4, seed)
            assert c_l1(incoherent) == 0.0
            assert c_rel_ent(incoherent) == 0.0


class TestScalarProperties:
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_binary_entropy_bounds_and_symmetry(self, p):
        value = binary_entropy(p)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_bit_complement_involution(self, n):
        # the family matrix pairs |l> at index i with its complement at
        # dim - 1 - i, and complementing twice gives l back
        dim = 2**n
        for i in range(dim):
            bits = format(i, f"0{n}b")
            assert flip_bits(flip_bits(bits)) == bits
            assert int(flip_bits(bits), 2) == dim - 1 - i
        for bits in canonical_bitstrings(n):
            i = int(bits, 2)
            j = dim - 1 - i
            corners = sorted([(i, i), (i, j), (j, i), (j, j)])
            nonzero = np.argwhere(phi_state(bits, "-").matrix)
            assert sorted(map(tuple, nonzero)) == corners

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_dephase_idempotence_on_random_states(self, seed):
        rho = random_density(3, 3, seed=seed)
        once = dephase(rho)
        np.testing.assert_array_equal(dephase(once).matrix, once.matrix)
