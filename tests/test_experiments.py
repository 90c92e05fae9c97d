import dataclasses
import itertools

import numpy as np
import pytest

from cohfreeze import (
    DimensionTooLargeError,
    MixedFamilySpec,
    NumericalInconsistencyError,
    OutOfRangeError,
    SweepSpec,
    TrajectoryRow,
    TrajectoryTable,
    ValidationError,
    apply_channel,
    basis_state,
    bitflip_transfer_weights,
    bromley_report,
    c_l1,
    c_rel_ent,
    canonical_bitstrings,
    default_heterogeneous_grids,
    detect_freezing,
    from_pure,
    local_channel,
    mixed_family,
    phi_state,
    random_density,
    reproduce_mixed_family,
    reproduce_pure_family,
    run_sweep,
    tensor,
)
from cohfreeze import experiments, states
from cohfreeze.channels import CHANNEL_FACTORIES

from oracles import (
    bitflip_weight,
    brute_apply,
    jacobi_eigh,
    phi_vector,
    shannon_bits,
)


def bell():
    return phi_state("00", "+")


def swap_transfer(monkeypatch):
    """Make the reproductions expect the two-qubit transfer with the weights
    of 00 and 01 swapped."""
    transfer = experiments.bitflip_transfer_weights

    def swapped(weights, qs):
        moved = transfer(weights, qs)
        return {"00": moved["01"], "01": moved["00"]}

    monkeypatch.setattr(experiments, "bitflip_transfer_weights", swapped)


def spy_transfer(monkeypatch):
    """Record the (weights, flip probabilities) of every transfer computed."""
    transfer = experiments.bitflip_transfer_weights
    calls = []

    def recorded(weights, qs):
        calls.append((dict(weights), tuple(qs)))
        return transfer(weights, qs)

    monkeypatch.setattr(experiments, "bitflip_transfer_weights", recorded)
    return calls


def make_spec(**overrides):
    defaults = dict(
        state=bell(),
        factors=("bitflip", "bitflip"),
        grids=((0.0, 0.1, 0.2, 0.3, 0.4, 0.5), (0.0, 0.25, 0.5)),
        state_label="phi N=2 l=00 sign=+",
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestSweepSpec:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValidationError):
            make_spec(grids=((), (0.1,)))

    def test_rejects_out_of_range_values(self):
        message = r"^grid value must be in \[0, 1\], got 1.5$"
        with pytest.raises(OutOfRangeError, match=message):
            make_spec(grids=((0.0, 1.5), (0.1,)))

    def test_rejects_oversized_product(self):
        grid = tuple(np.linspace(0, 1, 101))
        with pytest.raises(ValidationError, match="points"):
            make_spec(grids=(grid, grid))

    def test_rejects_dimension_above_max(self):
        with pytest.raises(DimensionTooLargeError):
            SweepSpec(
                state=basis_state(128, 0),
                factors=("bitflip",) * 7,
                grids=((0.0,),) * 7,
            )

    @pytest.mark.parametrize("field", ["freezing_tol", "certificate_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-8])
    def test_rejects_bad_tolerances(self, field, value):
        with pytest.raises(OutOfRangeError):
            make_spec(**{field: value})

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(factors=()), "need at least one channel factor"),
            (dict(factors=("bitflip", "warp")), "unknown channel kind 'warp'"),
            (dict(grids=((0.0, 0.5),)), "expected 2 grid(s), got 1"),
        ],
    )
    def test_refusal_messages(self, overrides, message):
        with pytest.raises(ValidationError) as excinfo:
            make_spec(**overrides)
        assert str(excinfo.value) == message

    def test_rejects_state_channel_mismatch(self):
        with pytest.raises(ValidationError):
            make_spec(state=phi_state("000", "+"))

    def test_tied_parameters_use_single_grid(self):
        spec = make_spec(grids=((0.0, 0.5),), tie_parameters=True)
        assert spec.parameter_names == ("q",)
        points = list(itertools.product(*spec.grids))
        assert points == [(0.0,), (0.5,)]
        channel = dict(spec.channels())[(0.5,)]
        assert channel.dim == 4

    @pytest.mark.parametrize("tie", [False, True])
    def test_channels_are_channel_at_each_grid_point(self, tie):
        spec = make_spec(
            state=phi_state("01", "-"),
            factors=("bitflip", "amplitudedamping"),
            grids=((0.0, 0.3, 1.0),) if tie else ((0.0, 0.3, 1.0), (0.2, 0.6)),
            tie_parameters=tie,
        )
        pairs = list(spec.channels())
        assert [point for point, _ in pairs] == list(itertools.product(*spec.grids))
        for point, channel in pairs:
            qs = point * 2 if tie else point
            expected = tensor(
                [CHANNEL_FACTORIES[k][1](q) for k, q in zip(spec.factors, qs)]
            )
            np.testing.assert_array_equal(channel.operators, expected.operators)
            assert channel.label == expected.label

    def test_channels_build_each_factor_once_per_grid_value(self, monkeypatch):
        built = []
        label, factory = CHANNEL_FACTORIES["bitflip"]

        def counted(q):
            built.append(q)
            return factory(q)

        monkeypatch.setitem(CHANNEL_FACTORIES, "bitflip", (label, counted))
        spec = make_spec()
        assert len(list(spec.channels())) == 6 * 3
        assert sorted(built) == sorted(spec.grids[0] + spec.grids[1])


class TestRunSweep:
    def test_bell_bit_flip_sweep_is_constant_one(self):
        table = run_sweep(make_spec())
        assert len(table.rows) == 18
        for row in table.rows:
            assert row.c_rel_ent == pytest.approx(1.0, abs=1e-12)
            assert row.c_l1 == pytest.approx(1.0, abs=1e-12)
            assert row.verdict == "Frozen"

    def test_mixed_family_sweep_constant(self):
        spec_state = MixedFamilySpec(p=0.75, weights={"00": 0.5, "01": 0.5})
        state = mixed_family(spec_state)
        table = run_sweep(
            SweepSpec(
                state=state,
                factors=("bitflip", "bitflip"),
                grids=((0.0, 0.4, 0.9), (0.2, 0.6)),
            )
        )
        expected = 1.0 - shannon_bits([0.75, 0.25])
        assert expected == pytest.approx(0.18872187554086717, abs=1e-15)
        for row in table.rows:
            assert row.c_rel_ent == pytest.approx(expected, abs=1e-12)

    def test_phase_damping_decreases_coherence(self):
        plus = from_pure(np.array([1.0, 1.0]) / np.sqrt(2))
        grid = (0.0, 0.2, 0.4, 0.6, 0.8)
        table = run_sweep(
            SweepSpec(state=plus, factors=("phasedamping",), grids=(grid,))
        )
        values = [row.c_rel_ent for row in table.rows]
        assert all(b < a - 1e-6 for a, b in zip(values, values[1:]))
        for row in table.rows[1:]:
            assert row.verdict == "NotFrozen"

    def test_rows_follow_grid_order(self):
        table = run_sweep(make_spec())
        points = [row.params for row in table.rows]
        assert points == sorted(points)

    def test_not_frozen_rows_match_brute_force_evolution(self):
        state = random_density(4, 4, seed=21)
        spec = SweepSpec(
            state=state,
            factors=("amplitudedamping", "amplitudedamping"),
            grids=((0.0, 0.3, 0.7, 1.0), (0.2, 0.9)),
        )
        table = run_sweep(spec)
        assert any(row.verdict == "NotFrozen" for row in table.rows)
        for row in table.rows:
            channel = local_channel(list(zip(spec.factors, row.params)))
            rho_t = brute_apply(channel.operators, state.matrix)
            off = np.abs(rho_t - np.diag(np.diag(rho_t)))
            assert row.c_l1 == pytest.approx(off.sum(), abs=1e-12)
            eigenvalues, _ = jacobi_eigh(rho_t)
            expected = shannon_bits(np.diag(rho_t).real) - shannon_bits(eigenvalues)
            assert row.c_rel_ent == pytest.approx(expected, abs=1e-12)

    def test_certificate_panel_consistency(self):
        spec = make_spec()
        base_l1 = c_l1(spec.state)
        table = run_sweep(spec)
        for row in table.rows:
            if row.verdict == "Frozen":
                assert abs(row.c_l1 - base_l1) <= 1e-8
                assert row.cr_deviation <= 1e-8


class TestDetectFreezing:
    def test_constant_column(self):
        table = run_sweep(make_spec())
        summary = detect_freezing(table, tol=1e-8)
        assert summary["c_rel_ent"].frozen
        assert summary["c_rel_ent"].max_deviation <= 1e-10

    def test_single_excursion(self):
        rows = [
            TrajectoryRow((0.0,), 1.0, 1.0, "Frozen", 0.0, 0.0, 0.0),
            TrajectoryRow((0.5,), 1.0, 1.0 + 1e-3, "Frozen", 0.0, 0.0, 0.0),
        ]
        table = TrajectoryTable(("q",), tuple(rows))
        summary = detect_freezing(table, tol=1e-8)
        assert not summary["c_rel_ent"].frozen
        assert summary["c_rel_ent"].max_deviation == pytest.approx(1e-3)
        assert summary["c_l1"].frozen

    def test_empty_table_rejected(self):
        table = TrajectoryTable(("q",), ())
        with pytest.raises(ValidationError):
            detect_freezing(table)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
    def test_rejects_a_tolerance_that_is_not_finite_and_positive(self, tol):
        table = run_sweep(make_spec())
        with pytest.raises(
            OutOfRangeError, match=f"tolerance must be finite and positive, got {tol}"
        ):
            detect_freezing(table, tol=tol)


class TestTransferWeights:
    def test_matches_oracle(self):
        # a mixture transfers as the weighted sum of its one-string transfers
        qs = (0.2, 0.7, 0.4)
        for sources in ({"010": 1.0}, {"000": 0.2, "010": 0.5, "011": 0.3}):
            weights = bitflip_transfer_weights(sources, qs)
            for target in canonical_bitstrings(3):
                expected = sum(
                    w * bitflip_weight(target, bits, qs) for bits, w in sources.items()
                )
                assert weights[target] == pytest.approx(expected, abs=1e-15)

    def test_normalized(self):
        for sources in ({"00": 1.0}, {"00": 0.25, "01": 0.75}):
            weights = bitflip_transfer_weights(sources, (0.3, 0.8))
            assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_a_length_mismatch(self):
        with pytest.raises(ValidationError, match="one flip probability per qubit"):
            bitflip_transfer_weights({"00": 1.0}, (0.3,))
        with pytest.raises(ValidationError, match="one flip probability per qubit"):
            bitflip_transfer_weights({"00": 0.5, "011": 0.5}, (0.3, 0.8))

    @pytest.mark.parametrize("q", [1.5, -0.1, float("nan")])
    def test_rejects_a_flip_probability_outside_the_unit_interval(self, q):
        with pytest.raises(OutOfRangeError, match=rf"q must be in \[0, 1\], got {q}"):
            bitflip_transfer_weights({"00": 1.0}, (q, 0.2))
        with pytest.raises(OutOfRangeError, match=rf"q must be in \[0, 1\], got {q}"):
            bitflip_transfer_weights({"00": 1.0}, (0.2, q))

    def test_rejects_a_key_that_is_not_bits(self):
        with pytest.raises(ValidationError, match="not a bit string: '0a'"):
            bitflip_transfer_weights({"0a": 1.0}, (0.1, 0.2))

    @pytest.mark.parametrize("w", [-1.0, float("nan")])
    def test_rejects_a_weight_mixed_family_spec_refuses(self, w):
        message = f"weight for '00' must be >= 0, got {w}"
        with pytest.raises(OutOfRangeError) as spec_error:
            MixedFamilySpec(p=1.0, weights={"00": w, "01": 1.0 - w})
        assert str(spec_error.value) == message
        with pytest.raises(OutOfRangeError) as transfer_error:
            bitflip_transfer_weights({"00": w}, (0.1, 0.2))
        assert str(transfer_error.value) == message

    def test_analytic_state_matches_brute_force(self):
        qs = (0.15, 0.6)
        weights = bitflip_transfer_weights({"01": 1.0}, qs)
        analytic = np.zeros((4, 4), dtype=complex)
        for bits, w in weights.items():
            psi = phi_vector(bits, -1)
            analytic += w * np.outer(psi, psi.conj())
        channel = local_channel([("bitflip", qs[0]), ("bitflip", qs[1])])
        brute = apply_channel(channel, phi_state("01", "-")).matrix
        np.testing.assert_allclose(brute, analytic, atol=1e-10)


class TestReproducePureFamily:
    @pytest.mark.parametrize("bits", ["00", "01"])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_all_bell_states(self, bits, sign):
        report = reproduce_pure_family(bits, sign)
        assert report.max_cr_deviation <= 1e-9
        assert report.max_cl1_deviation <= 1e-9
        assert report.max_transfer_residual <= 1e-10

    def test_ghz(self):
        report = reproduce_pure_family("000", "+")
        assert report.max_cr_deviation <= 1e-9

    def test_four_qubit_case(self):
        grids = default_heterogeneous_grids(4, points=3)
        report = reproduce_pure_family("0101", "-", grids)

    def test_assertion_failures_name_grid_point(self):
        with pytest.raises(NumericalInconsistencyError, match="grid point"):
            reproduce_pure_family("00", "+", tol=1e-18)

    def test_not_frozen_certificate_names_its_grid_point(self, monkeypatch):
        certify = experiments.certify_freezing

        def failing(*args, **kwargs):
            certificate = certify(*args, **kwargs)
            return dataclasses.replace(certificate, failed_checks=("cr_deviation",))

        monkeypatch.setattr(experiments, "certify_freezing", failing)
        with pytest.raises(NumericalInconsistencyError) as excinfo:
            reproduce_pure_family("00", "+", ((0.0, 0.5), (0.25,)))
        assert excinfo.type is NumericalInconsistencyError
        assert str(excinfo.value) == (
            "phi N=2 l=00 sign=+: certificate NotFrozen at grid point "
            "(0.0, 0.25) (cr_deviation)"
        )

    def test_default_grids_need_two_points(self):
        with pytest.raises(ValidationError) as excinfo:
            default_heterogeneous_grids(2, points=1)
        assert excinfo.type is ValidationError
        assert str(excinfo.value) == "need at least two grid points"

    def test_transfer_check_validates_no_state(self, monkeypatch):
        """The analytic mixture is compared as a raw matrix: the family run
        validates exactly the states its sweep alone does."""
        calls = []
        validate = states.DensityMatrix.__post_init__

        def counted(self):
            calls.append(1)
            validate(self)

        monkeypatch.setattr(states.DensityMatrix, "__post_init__", counted)
        report = reproduce_pure_family("00", "+")
        family_calls = len(calls)
        calls.clear()
        run_sweep(
            SweepSpec(
                state=phi_state("00", "+"),
                factors=("bitflip", "bitflip"),
                grids=default_heterogeneous_grids(2),
            )
        )
        assert len(report.table.rows) == 36
        assert family_calls == len(calls)

    def test_transfer_check_catches_a_wrong_mixture(self, monkeypatch):
        swap_transfer(monkeypatch)
        with pytest.raises(NumericalInconsistencyError, match="analytic mixture"):
            reproduce_pure_family("00", "+")

    def test_rejects_invalid_sign(self):
        with pytest.raises(ValidationError, match="sign"):
            reproduce_pure_family("00", "x")

    def test_rejects_dimension_above_max_before_building(self):
        with pytest.raises(DimensionTooLargeError):
            reproduce_pure_family("0" * 20, "+")


class TestReproduceMixedFamily:
    def test_half_p_trivially_frozen(self):
        report = reproduce_mixed_family(0.5, {"00": 0.4, "01": 0.6})
        assert report.expected_c_rel_ent == 0.0
        assert report.max_cr_deviation <= 1e-12

    def test_random_weights_seed_11(self):
        rng = np.random.default_rng(11)
        raw = rng.random(2)
        raw /= raw.sum()
        weights = dict(zip(canonical_bitstrings(2), raw.tolist()))
        report = reproduce_mixed_family(0.9, weights)
        assert report.expected_c_rel_ent == pytest.approx(
            0.5310044064107189, abs=1e-12
        )

    def test_three_qubits(self):
        weights = {"000": 0.1, "001": 0.2, "010": 0.3, "011": 0.4}
        report = reproduce_mixed_family(0.67, weights)
        expected = 1.0 - shannon_bits([0.67, 0.33])
        assert report.expected_c_rel_ent == pytest.approx(expected, abs=1e-12)

    def test_every_point_checks_the_analytic_transfer(self, monkeypatch):
        calls = spy_transfer(monkeypatch)
        weights = {"000": 0.1, "001": 0.2, "010": 0.3, "011": 0.4}
        report = reproduce_mixed_family(0.67, weights)
        assert len(calls) == len(report.table.rows) == 216
        assert all(sources == weights for sources, _ in calls)
        assert report.max_transfer_residual <= 1e-10

    def test_transfer_check_catches_a_wrong_mixture(self, monkeypatch):
        swap_transfer(monkeypatch)
        with pytest.raises(NumericalInconsistencyError, match="analytic mixture"):
            reproduce_mixed_family(0.9, {"00": 0.3, "01": 0.7})


class TestBromleyPreset:
    @pytest.mark.parametrize("c1", [-0.8, 0.0, 0.6])
    @pytest.mark.parametrize("c3", [-0.5, 0.0, 0.9])
    def test_grid_of_presets(self, c1, c3):
        report = bromley_report(c1, c3)
        assert len(report.table.rows) == 11
        assert report.max_cr_deviation <= 1e-9
        assert report.max_cl1_deviation <= 1e-8

    def test_tied_parameter_column(self):
        report = bromley_report(0.6, 0.2, grid_points=5)
        assert report.table.parameter_names == ("q",)
        assert [row.params for row in report.table.rows] == [
            (0.0,), (0.25,), (0.5,), (0.75,), (1.0,)
        ]

    def test_every_point_checks_the_analytic_transfer(self, monkeypatch):
        # the tied q flips both qubits with the same probability
        calls = spy_transfer(monkeypatch)
        report = bromley_report(0.6, 0.2, grid_points=5)
        assert [qs for _, qs in calls] == [(q, q) for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert report.max_transfer_residual <= 1e-10

    def test_transfer_check_catches_a_wrong_mixture(self, monkeypatch):
        swap_transfer(monkeypatch)
        with pytest.raises(NumericalInconsistencyError, match="analytic mixture"):
            bromley_report(0.6, 0.2)


class TestNegativeControls:
    def test_amplitude_damping_on_plus_strictly_decreases(self):
        plus = from_pure(np.array([1.0, 1.0]) / np.sqrt(2))
        grid = tuple(np.round(np.arange(0.1, 1.0, 0.1), 10))
        table = run_sweep(
            SweepSpec(state=plus, factors=("amplitudedamping",), grids=(grid,))
        )
        values = [row.c_rel_ent for row in table.rows]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier - 1e-6
        summary = detect_freezing(table, tol=1e-8)
        assert not summary["c_rel_ent"].frozen

    def test_phase_rotated_superposition_decays_under_bit_flips(self):
        # (|00> + i|10>)/sqrt(2): the first-qubit coherence sits on the
        # imaginary axis, which local bit flips wash out
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0 / np.sqrt(2)
        psi[2] = 1j / np.sqrt(2)
        state = from_pure(psi)
        table = run_sweep(
            SweepSpec(
                state=state,
                factors=("bitflip", "bitflip"),
                grids=((0.0, 0.1, 0.25, 0.4, 0.5), (0.0, 0.3)),
            )
        )
        summary = detect_freezing(table, tol=1e-8)
        assert not summary["c_rel_ent"].frozen
        assert summary["c_rel_ent"].max_deviation > 0.1
        channel = local_channel([("bitflip", 0.25), ("bitflip", 0.3)])
        evolved = apply_channel(channel, state)
        brute = brute_apply(channel.operators, state.matrix)
        np.testing.assert_allclose(evolved.matrix, brute, atol=1e-14)
        assert c_rel_ent(evolved) < 1.0 - 1e-3

    def test_real_plus_embedding_is_actually_frozen(self):
        # (|00> + |10>)/sqrt(2) is a bit-flip fixed point on the first qubit,
        # so the whole trajectory keeps c_rel_ent = 1
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[2] = 1.0 / np.sqrt(2)
        state = from_pure(psi)
        table = run_sweep(
            SweepSpec(
                state=state,
                factors=("bitflip", "bitflip"),
                grids=((0.0, 0.2, 0.5), (0.1, 0.9)),
            )
        )
        for row in table.rows:
            assert row.c_rel_ent == pytest.approx(1.0, abs=1e-12)
            assert row.verdict == "Frozen"


class TestCsvOutput:
    def test_metadata_header_and_precision(self):
        table = run_sweep(make_spec())
        csv = table.to_csv()
        lines = csv.strip().splitlines()
        comments = [line for line in lines if line.startswith("#")]
        assert "# state = phi N=2 l=00 sign=+" in comments
        assert "# seed = none" in comments
        header = next(line for line in lines if not line.startswith("#"))
        assert header.split(",")[:4] == ["q1", "q2", "c_l1", "c_rel_ent"]
        # 12 significant digits
        assert "0.33333333333" not in csv  # no truncated thirds in this grid
        row = lines[len(comments) + 1]
        assert len(row.split(",")) == len(header.split(","))

    def test_deterministic_serialization(self):
        a = run_sweep(make_spec()).to_csv()
        b = run_sweep(make_spec()).to_csv()
        assert a == b

    def test_twelve_digit_formatting(self):
        row = TrajectoryRow((1 / 3,), 1 / 7, 2 / 3, "Frozen", 0.0, 0.0, 0.0)
        table = TrajectoryTable(("q",), (row,))
        body = table.to_csv().strip().splitlines()[-1]
        assert body.startswith("0.333333333333,0.142857142857,0.666666666667")


def test_unknown_preset_is_refused():
    with pytest.raises(ValidationError, match="unknown preset"):
        next(experiments.preset_files("pure"))
