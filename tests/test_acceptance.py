"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Tolerances are fixed here and must not be loosened."""

import itertools
import sys
import time

import numpy as np

from cohfreeze import (
    ChannelClass,
    DensityMatrix,
    KrausChannel,
    MixedFamilySpec,
    amplitude_damping,
    apply_channel,
    bit_flip,
    bit_phase_flip,
    bromley_report,
    c_l1,
    c_rel_ent,
    canonical_bitstrings,
    certify_freezing,
    classify,
    default_heterogeneous_grids,
    depolarizing,
    local_channel,
    mixed_family,
    petz_recovery,
    phase_damping,
    phase_flip,
    phi_state,
    random_density,
    random_incoherent_channel,
    random_sio_channel,
    relative_entropy,
    tensor,
)
from cohfreeze.cli import main as cli_main
from cohfreeze.linalg import max_abs

from oracles import random_unitary, shannon_bits

LIBRARY_FACTORIES = (
    bit_flip,
    phase_flip,
    bit_phase_flip,
    depolarizing,
    phase_damping,
    amplitude_damping,
)


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} {status}: {detail}", file=sys.stderr)
    assert passed, detail


def permutation_phase_channel(dim: int, seed: int) -> KrausChannel:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dim)
    phases = np.exp(2j * np.pi * rng.random(dim))
    op = np.zeros((dim, dim), dtype=complex)
    op[perm, np.arange(dim)] = phases
    return KrausChannel((op,), label=f"perm-unitary(seed={seed})")


def random_full_rank_diagonal(dim: int, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    probs = rng.random(dim) + 0.05
    probs /= probs.sum()
    return DensityMatrix(np.diag(probs).astype(complex))


def test_criterion_1_pure_family_reproduction():
    started = time.monotonic()
    worst_cr = 0.0
    worst_l1 = 0.0
    points_checked = 0
    for n in (2, 3, 4):
        grids = default_heterogeneous_grids(n, points=6)
        states = [
            (bits, sign, phi_state(bits, sign))
            for bits in canonical_bitstrings(n)
            for sign in "+-"
        ]
        for point in itertools.product(*grids):
            channel = local_channel([("bitflip", q) for q in point])
            for bits, sign, state in states:
                rho_t = apply_channel(channel, state)
                worst_cr = max(worst_cr, abs(c_rel_ent(rho_t) - 1.0))
                worst_l1 = max(worst_l1, abs(c_l1(rho_t) - 1.0))
                points_checked += 1
    elapsed = time.monotonic() - started
    report(
        1,
        worst_cr <= 1e-9 and worst_l1 <= 1e-9,
        f"max |c_rel_ent - 1| {worst_cr:.3e}, max |c_l1 - 1| {worst_l1:.3e} "
        f"over {points_checked} evaluations in {elapsed:.1f}s",
    )


def test_criterion_2_mixed_family_reproduction():
    started = time.monotonic()
    worst = 0.0
    draws = 0
    for n in (2, 3):
        grids = default_heterogeneous_grids(n, points=4)
        for k in range(10):
            rng = np.random.default_rng(1000 * n + k)
            p = float(rng.uniform(0.0, 1.0))
            raw = rng.random(2 ** (n - 1))
            raw /= raw.sum()
            weights = dict(zip(canonical_bitstrings(n), raw.tolist()))
            expected = 1.0 - shannon_bits([p, 1.0 - p])
            state = mixed_family(MixedFamilySpec(p=p, weights=weights))
            for point in itertools.product(*grids):
                channel = local_channel([("bitflip", q) for q in point])
                rho_t = apply_channel(channel, state)
                worst = max(worst, abs(c_rel_ent(rho_t) - expected))
            draws += 1
    elapsed = time.monotonic() - started
    report(
        2,
        worst <= 1e-9 and draws == 20,
        f"max |c_rel_ent - (1 - H(p))| {worst:.3e} over {draws} draws "
        f"in {elapsed:.1f}s",
    )


def test_criterion_3_bromley_preset():
    started = time.monotonic()
    all_frozen = True
    worst_panel = 0.0
    for c1 in (-0.8, 0.0, 0.6):
        for c3 in (-0.5, 0.0, 0.9):
            result = bromley_report(c1, c3, grid_points=11, tol=1e-9)
            all_frozen = all_frozen and all(
                row.verdict == "Frozen" for row in result.table.rows
            )
            worst_panel = max(
                worst_panel, result.max_cl1_deviation, result.max_cr_deviation
            )
    elapsed = time.monotonic() - started
    report(
        3,
        all_frozen and worst_panel <= 1e-8,
        f"9 presets x 11 grid points, all Frozen: {all_frozen}, "
        f"max panel deviation {worst_panel:.3e} in {elapsed:.1f}s",
    )


def _biconditional_cases():
    """200 deterministic cases: generic pairs plus structurally frozen ones."""
    cases = []
    counter = itertools.count()
    # 80 generic pairs; coherence generically decays strictly
    for k in range(80):
        seed = 50_000 + k
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        rank = int(rng.integers(1, dim + 1))
        rho0 = random_density(dim, rank, seed=seed)
        channel = random_sio_channel(dim, int(rng.integers(2, 5)), seed=seed + 1)
        cases.append((next(counter), rho0, channel))
    # 40 incoherent initial states: trivially frozen
    for k in range(40):
        seed = 60_000 + k
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        rho0 = random_full_rank_diagonal(dim, seed)
        channel = random_sio_channel(dim, int(rng.integers(2, 5)), seed=seed + 1)
        cases.append((next(counter), rho0, channel))
    # 40 permutation-phase unitaries: reversible, frozen on any state
    for k in range(40):
        seed = 70_000 + k
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        rho0 = random_density(dim, dim, seed=seed)
        cases.append((next(counter), rho0, permutation_phase_channel(dim, seed + 1)))
    # 40 two/three-qubit +/- families under local bit flips: frozen
    for k in range(40):
        seed = 80_000 + k
        rng = np.random.default_rng(seed)
        n = int(rng.choice([2, 3]))
        bits = "0" + "".join(str(int(b)) for b in rng.integers(0, 2, n - 1))
        sign = "+" if rng.random() < 0.5 else "-"
        rho0 = phi_state(bits, sign)
        qs = rng.uniform(0.05, 0.95, n)
        channel = local_channel([("bitflip", float(q)) for q in qs])
        cases.append((next(counter), rho0, channel))
    return cases


def test_criterion_4_theorem_biconditional():
    started = time.monotonic()
    tol = 1e-8
    violations = []
    frozen_count = 0
    cases = _biconditional_cases()
    for index, rho0, channel in cases:
        certificate = certify_freezing(channel, rho0, tol=tol)
        frozen = certificate.verdict == "Frozen"
        if frozen != (certificate.cr_deviation <= tol):
            violations.append(f"case {index}: verdict/deviation mismatch")
        if frozen:
            frozen_count += 1
            if certificate.recovery_residual_state > 1e-8:
                violations.append(f"case {index}: state residual too large")
            if certificate.recovery_residual_diag > 1e-8:
                violations.append(f"case {index}: diagonal residual too large")
            if not certificate.recovery_incoherent:
                violations.append(f"case {index}: recovery not incoherent")
    elapsed = time.monotonic() - started
    report(
        4,
        not violations and len(cases) >= 200 and frozen_count >= 40,
        f"{len(cases)} cases ({frozen_count} frozen), "
        f"{len(violations)} violations in {elapsed:.1f}s"
        + (f"; first: {violations[0]}" if violations else ""),
    )


def test_criterion_5_recovery_construction():
    started = time.monotonic()
    violations = []
    # 100 random (incoherent channel, full-rank diagonal reference) pairs
    for k in range(100):
        seed = 90_000 + k
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        delta0 = random_full_rank_diagonal(dim, seed)
        if k % 2 == 0:
            channel = random_sio_channel(dim, int(rng.integers(2, 5)), seed + 1)
        else:
            channel = random_incoherent_channel(dim, dim, seed + 1)
        recovery = petz_recovery(channel, delta0)
        total = sum(op.conj().T @ op for op in recovery.operators)
        if max_abs(total - np.eye(dim)) > 1e-9:
            violations.append(f"pair {k}: completeness")
        delta_t = apply_channel(channel, delta0)
        recovered = apply_channel(recovery, delta_t)
        if max_abs(recovered.matrix - delta0.matrix) > 1e-9:
            violations.append(f"pair {k}: diagonal recovery")
    # 20 singular cases that must add the kernel projector
    singular = 0
    for k in range(20):
        seed = 95_000 + k
        rng = np.random.default_rng(seed)
        if k < 8:
            channel = tensor([amplitude_damping(1.0), bit_flip(float(rng.uniform(0, 1)))])
            delta0 = random_full_rank_diagonal(4, seed)
        elif k < 16:
            dim = int(rng.integers(2, 7))
            probs = rng.random(dim)
            probs[rng.integers(0, dim)] = 0.0
            probs /= probs.sum()
            delta0 = DensityMatrix(np.diag(probs).astype(complex))
            channel = permutation_phase_channel(dim, seed + 1)
        else:
            delta0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
            channel = phase_flip(float(rng.uniform(0, 1)))
        recovery = petz_recovery(channel, delta0)
        if len(recovery.operators) != len(channel.operators) + 1:
            violations.append(f"singular {k}: projector branch not taken")
            continue
        singular += 1
        total = sum(op.conj().T @ op for op in recovery.operators)
        if max_abs(total - np.eye(channel.dim)) > 1e-9:
            violations.append(f"singular {k}: completeness")
        delta_t = apply_channel(channel, delta0)
        recovered = apply_channel(recovery, delta_t)
        if max_abs(recovered.matrix - delta0.matrix) > 1e-9:
            violations.append(f"singular {k}: diagonal recovery")
    elapsed = time.monotonic() - started
    report(
        5,
        not violations and singular == 20,
        f"100 pairs + {singular} singular cases, {len(violations)} violations "
        f"in {elapsed:.1f}s" + (f"; first: {violations[0]}" if violations else ""),
    )


def test_criterion_6_channel_classifier():
    started = time.monotonic()
    ok = True
    details = []
    singles = [factory(0.3) for factory in LIBRARY_FACTORIES]
    for channel in singles:
        if classify(channel).channel_class is not ChannelClass.STRICTLY_INCOHERENT:
            ok = False
            details.append(f"single {channel.label}")
    for a, b in itertools.product(singles, repeat=2):
        if (
            classify(tensor([a, b])).channel_class
            is not ChannelClass.STRICTLY_INCOHERENT
        ):
            ok = False
            details.append(f"pair {a.label} x {b.label}")
    for combo in itertools.product(singles, repeat=3):
        if (
            classify(tensor(list(combo))).channel_class
            is not ChannelClass.STRICTLY_INCOHERENT
        ):
            ok = False
            details.append("triple " + " x ".join(c.label for c in combo))
            break
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    if (
        classify(KrausChannel((hadamard,))).channel_class
        is not ChannelClass.NOT_INCOHERENT
    ):
        ok = False
        details.append("hadamard")
    generic = KrausChannel((random_unitary(4, seed=123),))
    if classify(generic).channel_class is not ChannelClass.NOT_INCOHERENT:
        ok = False
        details.append("generic unitary")
    k1 = np.array([[1, 1], [0, 0]], dtype=complex) / np.sqrt(2)
    k2 = np.array([[1, -1], [0, 0]], dtype=complex) / np.sqrt(2)
    if (
        classify(KrausChannel((k1, k2))).channel_class
        is not ChannelClass.INCOHERENT_ONLY
    ):
        ok = False
        details.append("one-per-column/two-per-row")
    elapsed = time.monotonic() - started
    report(
        6,
        ok,
        "6 singles, 36 pairs, 216 triples SIO; Hadamard and generic unitary "
        f"NotIncoherent; constructed channel IncoherentOnly in {elapsed:.1f}s"
        + ("" if ok else "; failed: " + ", ".join(details[:3])),
    )


def test_criterion_7_postulate_suite():
    started = time.monotonic()
    violations = []
    for k in range(500):
        seed = 200_000 + k
        rng = np.random.default_rng(seed)
        dim = int(rng.choice([2, 3, 4]))
        rho = random_density(dim, int(rng.integers(1, dim + 1)), seed)
        sigma = random_density(dim, dim, seed + 1)
        channel = random_sio_channel(dim, int(rng.integers(2, 4)), seed + 2)
        rho_out = apply_channel(channel, rho)
        # C2
        for measure, name in ((c_l1, "c_l1"), (c_rel_ent, "c_rel_ent")):
            if measure(rho_out) > measure(rho) + 1e-8:
                violations.append(f"case {k}: C2 {name}")
        # C3
        for measure, name in ((c_l1, "c_l1"), (c_rel_ent, "c_rel_ent")):
            total = 0.0
            for op in channel.operators:
                branch = op @ rho.matrix @ op.conj().T
                weight = float(np.trace(branch).real)
                if weight <= 1e-12:
                    continue
                total += weight * measure(DensityMatrix(branch / weight))
            if total > measure(rho) + 1e-8:
                violations.append(f"case {k}: C3 {name}")
        # C4
        lam = float(rng.uniform(0, 1))
        mix = DensityMatrix(lam * rho.matrix + (1 - lam) * sigma.matrix)
        for measure, name in ((c_l1, "c_l1"), (c_rel_ent, "c_rel_ent")):
            bound = lam * measure(rho) + (1 - lam) * measure(sigma) + 1e-8
            if measure(mix) > bound:
                violations.append(f"case {k}: C4 {name}")
        # contractivity of the relative entropy under the same channel
        before = relative_entropy(rho, sigma)
        after = relative_entropy(rho_out, apply_channel(channel, sigma))
        if np.isfinite(before) and np.isfinite(after) and after > before + 1e-8:
            violations.append(f"case {k}: contractivity")
    elapsed = time.monotonic() - started
    report(
        7,
        not violations,
        f"500 pairs x (C2, C3, C4, contractivity), {len(violations)} violations "
        f"in {elapsed:.1f}s" + (f"; first: {violations[0]}" if violations else ""),
    )


def test_criterion_8_negative_controls(capsys):
    started = time.monotonic()
    plus = phi_state("0", "+")
    values = []
    for gamma in np.round(np.arange(0.1, 1.0, 0.1), 10):
        rho_t = apply_channel(amplitude_damping(float(gamma)), plus)
        values.append(c_rel_ent(rho_t))
    strictly_decreasing = all(
        later <= earlier - 1e-6 for earlier, later in zip(values, values[1:])
    )
    certificate = certify_freezing(amplitude_damping(0.5), plus)
    exit_code = cli_main(
        ["certify", "--state", "phi N=1 l=0 sign=+",
         "--channel", "amplitudedamping g=0.5"]
    )
    capsys.readouterr()
    elapsed = time.monotonic() - started
    report(
        8,
        strictly_decreasing
        and certificate.verdict == "NotFrozen"
        and exit_code == 1,
        f"c_rel_ent strictly decreasing over 9 damping strengths, verdict "
        f"{certificate.verdict}, certify exit code {exit_code} in {elapsed:.1f}s",
    )


def test_criterion_9_reproduce_determinism(tmp_path, capsys):
    started = time.monotonic()
    identical = True
    compared = []
    for preset, filenames in (
        ("bromley", ["bromley.csv"]),
        ("mixed-family", ["mixed-family-N2.csv", "mixed-family-N3.csv"]),
        ("pure-family", ["pure-family-N2.csv", "pure-family-N3.csv"]),
    ):
        for run in ("first", "second"):
            code = cli_main(
                ["reproduce", preset, "--out", str(tmp_path / run),
                 "--no-timestamp"]
            )
            assert code == 0
        capsys.readouterr()
        for filename in filenames:
            a = (tmp_path / "first" / filename).read_bytes()
            b = (tmp_path / "second" / filename).read_bytes()
            compared.append(filename)
            if a != b:
                identical = False
    elapsed = time.monotonic() - started
    report(
        9,
        identical,
        f"{len(compared)} CSV files byte-identical across two runs "
        f"in {elapsed:.1f}s",
    )
