import dataclasses
import inspect
import itertools

import numpy as np
import pytest

from cohfreeze import (
    DimensionTooLargeError,
    FreezingCertificate,
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
    certify_freezing,
    default_heterogeneous_grids,
    detect_freezing,
    from_pure,
    local_channel,
    mixed_family,
    phi_state,
    random_density,
    random_incoherent_channel,
    random_sio_channel,
    reproduce_mixed_family,
    reproduce_pure_family,
    run_sweep,
    tensor,
)
from cohfreeze import experiments, recovery, states
from cohfreeze.channels import (
    CHANNEL_FACTORIES,
    ChannelClass,
    KrausChannel,
    LocalChannel,
    classify,
)
from cohfreeze.records import format_number

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
    @pytest.mark.parametrize("empty", [(), np.array([])], ids=["tuple", "array"])
    def test_rejects_empty_grid(self, empty):
        with pytest.raises(ValidationError, match="^grids must not be empty$"):
            make_spec(grids=(empty, (0.1,)))

    def test_array_grids_sweep_as_tuple_grids(self):
        arrays = (np.linspace(0, 1, 3), np.linspace(0, 0.5, 2))
        tuples = tuple(tuple(grid.tolist()) for grid in arrays)
        assert (
            run_sweep(make_spec(grids=arrays)).to_csv()
            == run_sweep(make_spec(grids=tuples)).to_csv()
        )
        assert (
            reproduce_pure_family("01", "+", arrays).table.to_csv()
            == reproduce_pure_family("01", "+", tuples).table.to_csv()
        )

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

    @pytest.mark.parametrize("field", ["certificate_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-8])
    def test_rejects_bad_tolerances(self, field, value):
        with pytest.raises(OutOfRangeError):
            make_spec(**{field: value})

    def test_has_one_tolerance_the_certificate_tolerance(self):
        # The certificates decide the sweep; no second threshold exists.
        assert [f.name for f in dataclasses.fields(SweepSpec)] == [
            "state",
            "factors",
            "grids",
            "tie_parameters",
            "certificate_tol",
            "state_label",
        ]
        with pytest.raises(TypeError, match="freezing_tol"):
            make_spec(freezing_tol=1e-8)

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


ERROR_COLUMNS = ("cr_deviation", "recovery_residual_state", "recovery_residual_diag")


def phase_flip_spec():
    """A Bell pair under tied phase flips: every point's certificate fails."""
    return SweepSpec(
        state=bell(),
        factors=("phaseflip", "phaseflip"),
        grids=((0.3, 0.7),),
        tie_parameters=True,
    )


class TestDetectFreezing:
    """A sweep's verdict is the conjunction of its certificates."""

    def test_frozen_sweep(self):
        summary = detect_freezing(run_sweep(make_spec()))
        assert summary.frozen
        assert summary.not_frozen_points == 0

    def test_verdict_column_decides_not_the_measures(self):
        # A measure column that moves does not decide; a NotFrozen row does.
        rows = [
            TrajectoryRow((0.0,), 1.0, 1.0, "Frozen", 0.0, 0.0, 0.0),
            TrajectoryRow((0.5,), 1.0, 1.0 + 1e-3, "Frozen", 0.0, 0.0, 0.0),
        ]
        assert detect_freezing(TrajectoryTable(("q",), tuple(rows))).frozen
        rows.append(TrajectoryRow((0.7,), 1.0, 1.0, "NotFrozen", 2e-8, 0.0, 0.0))
        summary = detect_freezing(TrajectoryTable(("q",), tuple(rows)))
        assert not summary.frozen
        assert summary.not_frozen_points == 1

    def test_empty_table_rejected(self):
        table = TrajectoryTable(("q",), ())
        with pytest.raises(ValidationError):
            detect_freezing(table)

    def test_takes_no_tolerance(self):
        assert list(inspect.signature(detect_freezing).parameters) == ["table"]
        with pytest.raises(TypeError):
            detect_freezing(run_sweep(make_spec()), tol=1e-8)

    def test_a_maximum_names_the_first_row_that_attains_it(self):
        rows = [
            TrajectoryRow((0.1,), 1.0, 1.0, "NotFrozen", 0.5, 0.25, 0.0),
            TrajectoryRow((0.2,), 1.0, 1.0, "NotFrozen", 0.5, 0.75, 0.0),
            TrajectoryRow((0.3,), 1.0, 1.0, "NotFrozen", 0.1, 0.75, 0.0),
        ]
        summary = detect_freezing(TrajectoryTable(("q",), tuple(rows)))
        assert summary.maxima == {
            "cr_deviation": (0.5, (0.1,)),
            "recovery_residual_state": (0.75, (0.2,)),
            "recovery_residual_diag": (0.0, (0.1,)),
        }

    def test_a_last_bit_renames_no_point(self):
        # The maximum is compared at format_number's 12 significant digits:
        # a later row one ulp larger prints the same and names no point.
        low = 0.4872
        ulp_up, digit_up = float(np.nextafter(low, 1.0)), low * (1 + 1e-10)
        rows = [
            TrajectoryRow((0.3,), 1.0, 1.0, "NotFrozen", low, low, 0.0),
            TrajectoryRow((0.7,), 1.0, 1.0, "NotFrozen", ulp_up, digit_up, 0.0),
        ]
        summary = detect_freezing(TrajectoryTable(("q",), tuple(rows)))
        assert format_number(ulp_up) == format_number(low)
        assert summary.maxima["cr_deviation"] == (ulp_up, (0.3,))
        assert summary.maxima["recovery_residual_state"] == (digit_up, (0.7,))

    @pytest.mark.parametrize(
        "spec", [make_spec, phase_flip_spec], ids=["eq16", "phaseflip"]
    )
    def test_maxima_are_those_of_the_rows(self, spec):
        table = run_sweep(spec())
        summary = detect_freezing(table)
        verdicts = [row.verdict for row in table.rows]
        assert summary.not_frozen_points == verdicts.count("NotFrozen")
        assert summary.frozen == ("NotFrozen" not in verdicts)
        assert list(summary.maxima) == list(ERROR_COLUMNS)
        for name in ERROR_COLUMNS:
            worst = table.rows[0]
            for row in table.rows:
                if getattr(row, name) > getattr(worst, name):
                    worst = row
            assert summary.maxima[name] == (getattr(worst, name), worst.params)


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

    @pytest.mark.parametrize("num_qubits", range(1, 8))
    def test_matches_oracle_on_random_mixtures(self, num_qubits):
        # zero weights and flip probabilities 0 and 1 included
        rng = np.random.default_rng([31, num_qubits])
        for _ in range(3):
            sources = states._random_weights(num_qubits, rng)
            for bits in rng.choice(list(sources), len(sources) // 2, replace=False):
                sources[str(bits)] = 0.0
            qs = [
                float(rng.choice([0.0, 1.0, rng.uniform()])) for _ in range(num_qubits)
            ]
            weights = bitflip_transfer_weights(sources, qs)
            assert list(weights) == canonical_bitstrings(num_qubits)
            for target, got in weights.items():
                expected = sum(
                    w * bitflip_weight(target, bits, qs) for bits, w in sources.items()
                )
                assert got == pytest.approx(expected, abs=1e-15)

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

    def test_rejects_empty_weights_as_mixed_family_spec_does(self):
        with pytest.raises(ValidationError) as spec_error:
            MixedFamilySpec(p=1.0, weights={})
        with pytest.raises(ValidationError) as transfer_error:
            bitflip_transfer_weights({}, (0.3, 0.2))
        assert str(transfer_error.value) == str(spec_error.value)
        assert str(transfer_error.value) == "weights must not be empty"

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

    @pytest.mark.parametrize("points", [-1, 2.5, "6"])
    def test_default_grids_refuse_a_point_count_that_is_not_a_count(self, points):
        with pytest.raises(ValidationError) as excinfo:
            default_heterogeneous_grids(2, points=points)
        assert excinfo.type is ValidationError
        assert str(excinfo.value) == (
            f"grid point count must be a non-negative integer, got {points!r}"
        )

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

    @pytest.mark.parametrize("grid_points", [-1, 2.5])
    def test_refuses_a_point_count_that_is_not_a_count(self, grid_points):
        with pytest.raises(ValidationError) as excinfo:
            bromley_report(0.5, 0.2, grid_points=grid_points)
        assert excinfo.type is ValidationError
        assert str(excinfo.value) == (
            f"grid point count must be a non-negative integer, got {grid_points!r}"
        )


def _mixed_preset_case():
    """The first case of the mixed-family preset on two qubits."""
    rng = np.random.default_rng(11)
    p = float(rng.uniform(0.0, 1.0))
    weights = states._random_weights(2, rng)
    return reproduce_mixed_family(p, weights, default_heterogeneous_grids(2, points=4))


def assert_same_certificate(a, b):
    """Equal field by field: floats by ==, the evolved states entry by entry."""
    for f in dataclasses.fields(FreezingCertificate):
        if f.name == "_final_state":
            assert np.array_equal(a.final_state.matrix, b.final_state.matrix)
        else:
            assert getattr(a, f.name) == getattr(b, f.name), f.name


class TestPreparedInitialState:
    """A sweep prepares the initial state's half of its certificates once:
    C_r(rho0) and C_l1(rho0)."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda: run_sweep(make_spec()),
            lambda: reproduce_pure_family("01", "-"),
            _mixed_preset_case,
            lambda: bromley_report(0.6, -0.5),
        ],
        ids=["eq16", "pure-family", "mixed-family", "bromley"],
    )
    def test_each_certificate_equals_a_fresh_one(self, run, monkeypatch):
        specs, yielded = [], []
        evaluate = experiments._evaluate_grid

        def recorded(spec):
            specs.append(spec)
            for item in evaluate(spec):
                yielded.append(item)
                yield item

        monkeypatch.setattr(experiments, "_evaluate_grid", recorded)
        run()
        (spec,) = specs
        assert len(yielded) == len(list(itertools.product(*spec.grids)))
        for (point, channel), (swept_point, certificate, _) in zip(
            spec.channels(), yielded, strict=True
        ):
            assert point == swept_point
            fresh = certify_freezing(channel, spec.state, tol=spec.certificate_tol)
            assert_same_certificate(certificate, fresh)

    def test_a_sweep_prepares_the_initial_state_once(self, monkeypatch):
        counts = {"c_rel_ent": 0, "_initial": 0}
        for module, name in ((recovery, "c_rel_ent"), (experiments, "_initial")):
            original = getattr(module, name)

            def counted(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)
        spec = make_spec()
        points = len(run_sweep(spec).rows)
        assert points == 18
        # one C_r of the evolved state per point, one of rho0 per sweep
        assert counts == {"c_rel_ent": points + 1, "_initial": 1}

    @pytest.mark.parametrize(
        "channel, rho0, representation, channel_class",
        [
            (
                local_channel(
                    [("bitflip", 0.3), ("phaseflip", 0.2), ("bitphaseflip", 0.6)]
                ),
                phi_state("010", "+"),
                LocalChannel,
                ChannelClass.STRICTLY_INCOHERENT,
            ),
            (
                random_sio_channel(5, 3, seed=4),
                random_density(5, 3, seed=8),
                KrausChannel,
                ChannelClass.STRICTLY_INCOHERENT,
            ),
            (
                random_incoherent_channel(4, 4, seed=1004),
                random_density(4, 2, seed=9),
                KrausChannel,
                ChannelClass.INCOHERENT_ONLY,
            ),
        ],
        ids=["local", "dense-strict", "incoherent"],
    )
    def test_the_prepared_record_gives_the_same_certificate(
        self, channel, rho0, representation, channel_class
    ):
        assert type(channel) is representation
        assert classify(channel).channel_class is channel_class
        enforce = channel_class is ChannelClass.STRICTLY_INCOHERENT
        prepared = recovery._initial(rho0)
        assert prepared.state is rho0
        assert_same_certificate(
            certify_freezing(channel, prepared, enforce_hypothesis=enforce),
            certify_freezing(channel, rho0, enforce_hypothesis=enforce),
        )


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
        summary = detect_freezing(table)
        assert not summary.frozen
        assert summary.not_frozen_points == len(grid)
        assert summary.maxima["cr_deviation"] == (
            pytest.approx(c_rel_ent(plus) - values[-1]),
            (grid[-1],),
        )

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
        summary = detect_freezing(table)
        assert not summary.frozen
        assert summary.maxima["cr_deviation"][0] > 0.1
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
        keys = [line[2:].split(" = ")[0] for line in comments]
        assert keys == ["state", "channel", "tie_parameters", "certificate_tol"]
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
