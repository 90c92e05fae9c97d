import numpy as np
import pytest

from cohfreeze import (
    DensityMatrix,
    apply_channel,
    basis_state,
    bit_flip,
    c_l1,
    c_rel_ent,
    canonical_bitstrings,
    dephase,
    from_pure,
    local_channel,
    measure_panel,
    mixed_family,
    MixedFamilySpec,
    phi_state,
    random_density,
    relative_entropy,
)

from oracles import alpha_coherences, shannon_bits

ALPHAS = (0.5, 0.8, 1.5, 2.0)


def plus_state():
    return from_pure(np.array([1.0, 1.0]) / np.sqrt(2))


class TestCl1:
    def test_diagonal_states_vanish(self):
        rho = DensityMatrix(np.diag([0.2, 0.3, 0.5]).astype(complex))
        assert c_l1(rho) == 0.0

    def test_plus_state(self):
        assert c_l1(plus_state()) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_along_bit_flip_trajectories(self):
        bell = phi_state("00", "+")
        for q1 in (0.0, 0.3, 0.8):
            for q2 in (0.1, 0.5):
                channel = local_channel([("bitflip", q1), ("bitflip", q2)])
                out = apply_channel(channel, bell)
                assert c_l1(out) == pytest.approx(1.0, abs=1e-12)

    def test_upper_bound(self):
        for dim, seed in [(2, 1), (4, 2), (8, 3)]:
            rho = random_density(dim, dim, seed=seed)
            assert c_l1(rho) <= dim - 1 + 1e-12


class TestCRelEnt:
    def test_incoherent_states_vanish(self):
        rho = DensityMatrix(np.diag([0.4, 0.6]).astype(complex))
        assert c_rel_ent(rho) == 0.0

    @pytest.mark.parametrize("bits", ["0", "00", "01", "000", "011", "0110"])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_phi_family_is_maximal_pairwise(self, bits, sign):
        state = phi_state(bits, sign)
        assert c_rel_ent(state) == pytest.approx(1.0, abs=1e-12)
        assert c_l1(state) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_family_closed_form(self):
        spec = MixedFamilySpec(p=0.8, weights={"00": 0.5, "01": 0.5})
        value = c_rel_ent(mixed_family(spec))
        expected = 1.0 - shannon_bits([0.8, 0.2])
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.2780719051126377, abs=1e-12)

    def test_agrees_with_definitional_minimum(self):
        for seed in range(20):
            rho = random_density(4, 4, seed=seed)
            closed = c_rel_ent(rho)
            definitional = relative_entropy(rho, dephase(rho))
            assert abs(closed - definitional) <= 1e-8

    def test_nonnegative(self):
        for seed in range(10):
            assert c_rel_ent(random_density(6, 3, seed=seed)) >= 0.0

    @pytest.mark.parametrize("off_diagonal", [0.0, -0.0, 1e-300, None])
    def test_same_value_as_the_sum_of_moduli_test(self, off_diagonal):
        """The value the sum-of-moduli test gave: 0 when c_l1 is exactly 0,
        else the clipped entropy difference."""
        if off_diagonal is None:
            rho = random_density(5, 3, seed=17)
        else:
            rho = DensityMatrix(
                np.array([[0.3, off_diagonal], [off_diagonal, 0.7]], dtype=complex)
            )
        expected = 0.0
        if c_l1(rho) != 0.0:
            expected = max(
                shannon_bits(rho.matrix.diagonal().real)
                - shannon_bits(rho.eigenvalues),
                0.0,
            )
        assert c_rel_ent(rho) == pytest.approx(expected, abs=1e-15)


class TestMeasurePanel:
    def test_ground_state(self):
        report = measure_panel(basis_state(2, 0))
        assert report.c_l1 == 0.0
        assert report.c_rel_ent == 0.0

    def test_plus_state(self):
        report = measure_panel(plus_state())
        assert report.c_l1 == pytest.approx(1.0, abs=1e-12)
        assert report.c_rel_ent == pytest.approx(1.0, abs=1e-12)
        assert report.cross_check_residual <= 1e-8

    def test_ghz(self):
        report = measure_panel(phi_state("000", "+"))
        assert report.c_l1 == pytest.approx(1.0, abs=1e-12)
        assert report.c_rel_ent == pytest.approx(1.0, abs=1e-12)

    def test_faithfulness_both_vanish_together(self):
        for seed in range(30):
            rho = random_density(4, 4, seed=seed)
            report = measure_panel(rho)
            incoherent = np.max(np.abs(rho.matrix - np.diag(rho.matrix.diagonal()))) <= 1e-10
            if incoherent:
                assert report.c_l1 <= 1e-9 and report.c_rel_ent <= 1e-9
            else:
                assert report.c_l1 > 1e-9
                assert report.c_rel_ent > 1e-9
            assert (report.c_l1 <= 1e-9) == (report.c_rel_ent <= 1e-9)

    def test_cross_check_on_500_random_states(self):
        count = 0
        for dim in (2, 3, 4, 8, 16):
            for seed in range(100):
                rank = 1 + (seed % dim)
                rho = random_density(dim, rank, seed=1000 * dim + seed)
                report = measure_panel(rho)
                assert report.cross_check_residual <= 1e-8
                count += 1
        assert count == 500

    def test_bit_flip_mixture_keeps_panel(self):
        bell = phi_state("01", "-")
        out = apply_channel(bit_flip(0.25), basis_state(2, 0))
        assert measure_panel(out).c_l1 == 0.0
        report = measure_panel(bell)
        assert (report.c_l1, report.c_rel_ent) == pytest.approx((1.0, 1.0), abs=1e-12)


class TestMeasureIndependence:
    """The paper's headline: under local bit flips a +/- mixture freezes
    every coherence measure, not only the two the panel computes. Checked
    with the Renyi-alpha and Tsallis-alpha coherences of tests/oracles.py."""

    @pytest.mark.parametrize("seed", range(40))
    def test_mixtures_under_bit_flips_freeze_renyi_and_tsallis(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        bits = canonical_bitstrings(n)
        weights = dict(zip(bits, rng.dirichlet(np.ones(len(bits)))))
        rho = mixed_family(MixedFamilySpec(p=float(rng.random()), weights=weights))
        channel = local_channel([("bitflip", float(q)) for q in rng.random(n)])
        evolved = apply_channel(channel, rho)
        for alpha in ALPHAS:
            before = alpha_coherences(rho.matrix, alpha)
            after = alpha_coherences(evolved.matrix, alpha)
            assert after == pytest.approx(before, rel=0, abs=1e-9)

    def test_amplitude_damping_moves_both(self):
        rho = phi_state("00", "+")
        channel = local_channel([("amplitudedamping", 0.3), ("bitflip", 0.2)])
        evolved = apply_channel(channel, rho)
        renyi_2 = [alpha_coherences(r.matrix, 2.0)[0] for r in (rho, evolved)]
        tsallis_half = [alpha_coherences(r.matrix, 0.5)[1] for r in (rho, evolved)]
        assert renyi_2[0] - renyi_2[1] > 0.1
        assert tsallis_half[0] - tsallis_half[1] > 0.1
