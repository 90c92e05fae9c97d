"""Independent reference implementations used as test oracles.

Nothing here may call back into the code paths it checks: the eigensolver is
a hand-rolled cyclic Jacobi iteration, channel application is a plain loop of
matrix products, and entropies are evaluated directly from probabilities.
"""

from __future__ import annotations

import math

import numpy as np


def jacobi_eigh(matrix, max_sweeps: int = 100, tol: float = 1e-14):
    """Cyclic Jacobi eigensolver for complex Hermitian matrices.

    Returns (eigenvalues ascending, eigenvector columns). Independent of
    numpy.linalg's eigensolvers.
    """
    a = np.array(matrix, dtype=np.complex128)
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diag(a))) ** 2))
        if off <= tol * max(1.0, np.sqrt(np.sum(np.abs(np.diag(a)) ** 2))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = a[p, q]
                if abs(g) < 1e-300:
                    continue
                alpha = a[p, p].real
                beta = a[q, q].real
                phase = np.exp(1j * np.angle(g))
                tau = (alpha - beta) / (2.0 * abs(g))
                if tau >= 0:
                    t = 1.0 / (tau + np.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # a <- R^dag a R and v <- v R for the rotation R that is the
                # identity but for R[p, p] = R[q, q] = c, R[p, q] = -phase s
                # and R[q, p] = conj(phase) s: only lines p and q change.
                for m in (a, v):
                    mp, mq = m[:, p].copy(), m[:, q]
                    m[:, p] = c * mp + np.conj(phase) * s * mq
                    m[:, q] = c * mq - phase * s * mp
                ap = a[p, :].copy()
                a[p, :] = c * ap + phase * s * a[q, :]
                a[q, :] = c * a[q, :] - np.conj(phase) * s * ap
    vals = np.diag(a).real
    order = np.argsort(vals, kind="stable")
    return vals[order], v[:, order]


def alpha_coherences(matrix, alpha: float) -> tuple[float, float]:
    """(Renyi-alpha, Tsallis-alpha) coherence of a density matrix, alpha > 0
    and alpha != 1, from s = sum_i <i|rho^alpha|i>^(1/alpha):
    alpha/(alpha-1) log2 s (Chitambar & Gour, PRA 94, 052336 (2016)) and
    (s^alpha - 1)/(alpha - 1) (Rastegin, PRA 93, 032136 (2016)). rho^alpha
    comes from the Jacobi spectrum, its negative rounding clipped to 0."""
    vals, vecs = jacobi_eigh(matrix)
    powered = np.clip(vals, 0.0, None) ** alpha
    diagonal = np.einsum("ik,k,ik->i", vecs, powered, vecs.conj()).real
    s = float(np.sum(np.clip(diagonal, 0.0, None) ** (1.0 / alpha)))
    return alpha / (alpha - 1.0) * math.log2(s), (s**alpha - 1.0) / (alpha - 1.0)


def brute_apply(operators, rho: np.ndarray) -> np.ndarray:
    """sum_n K_n rho K_n^dag as an explicit loop of matrix products."""
    out = np.zeros_like(np.asarray(rho, dtype=np.complex128))
    for op in operators:
        op = np.asarray(op, dtype=np.complex128)
        out += op @ rho @ op.conj().T
    return out


def shannon_bits(probabilities) -> float:
    """Direct -sum p log2 p over strictly positive entries."""
    total = 0.0
    for p in probabilities:
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def bitflip_weight(target: str, source: str, qs) -> float:
    """Probability that independent bit flips map |source> onto |target> or
    onto the complement of |target>."""
    keep = 1.0
    flip = 1.0
    for ti, si, q in zip(target, source, qs):
        same = 1.0 if ti == si else 0.0
        keep *= q + (1.0 - 2.0 * q) * same
        flip *= 1.0 - q - (1.0 - 2.0 * q) * same
    return keep + flip


def split_top_level_loop(text: str, separator: str | None = None) -> list[str]:
    """The inline specs' tokenizer one character at a time: split at bracket
    depth zero, on separator keeping empty parts, or by default on
    whitespace dropping them. Unbalanced brackets raise ValueError with the
    parser's message."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced brackets in {text!r}")
        if depth == 0 and (ch.isspace() if separator is None else ch == separator):
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced brackets in {text!r}")
    parts.append("".join(current))
    if separator is None:
        return [part for part in parts if part]
    return parts


def phi_vector(bits: str, sign: int) -> np.ndarray:
    """State vector (|l> + sign |l~>)/sqrt(2) built by hand."""
    n = len(bits)
    dim = 2**n
    i = int(bits, 2)
    j = int("".join("1" if c == "0" else "0" for c in bits), 2)
    psi = np.zeros(dim, dtype=np.complex128)
    psi[i] = 1.0 / np.sqrt(2.0)
    psi[j] = sign / np.sqrt(2.0)
    return psi


def random_unitary(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def classify_loop(operators, zero_tol: float):
    """Row/column scan one entry at a time: every operator's columns first,
    then every operator's rows. Returns (class name, witness), the witness
    being (operator index, axis, index, positions) of the first violation,
    or None."""
    ops = [np.asarray(op) for op in operators]
    for n, op in enumerate(ops):
        rows, cols = op.shape
        for j in range(cols):
            hits = tuple(i for i in range(rows) if abs(op[i, j]) > zero_tol)
            if len(hits) > 1:
                return "NotIncoherent", (n, "column", j, hits)
    for n, op in enumerate(ops):
        rows, cols = op.shape
        for i in range(rows):
            hits = tuple(j for j in range(cols) if abs(op[i, j]) > zero_tol)
            if len(hits) > 1:
                return "IncoherentOnly", (n, "row", i, hits)
    return "StrictlyIncoherent", None


def reference_certificate(operators, rho, tol: float) -> dict:
    """The freezing certificate of rho under the channel with Kraus list
    `operators`, from the definition of the round trip alone.

    K~_n is K_n with every entry at or below 1e-12 set to zero. With d0 the
    diagonal of rho and dt_t = sum_n,j |K~_n[t, j]|^2 d0_j, the recovery has
    the operators R_n = d0^(1/2) K~_n^dag dt^(-1/2), with dt^(-1/2) zero
    exactly where dt is zero, and the projector P_ker onto those zeros.
    Channels act by brute_apply, spectra come from jacobi_eigh and
    entropies from shannon_bits. Returns FreezingCertificate's fields by
    name, with recovery_witness as classify_loop reports it.
    """
    ops = [np.asarray(op, dtype=np.complex128) for op in operators]
    rho = np.asarray(rho, dtype=np.complex128)
    judged = [np.where(np.abs(op) > 1e-12, op, 0.0) for op in ops]
    d0 = np.diag(rho).real
    dt = sum(np.abs(op) ** 2 @ d0 for op in judged)
    kernel = dt == 0.0
    inv_sqrt = np.where(kernel, 0.0, 1.0 / np.sqrt(np.where(kernel, 1.0, dt)))
    recovery = [np.sqrt(d0)[:, None] * op.conj().T * inv_sqrt for op in judged]
    if kernel.any():
        recovery.append(np.diag(kernel).astype(np.complex128))

    def c_rel_ent(m):
        value = shannon_bits(np.diag(m).real) - shannon_bits(jacobi_eigh(m)[0])
        return max(value, 0.0)

    def c_l1(m):
        return float(np.abs(m[~np.eye(len(m), dtype=bool)]).sum())

    delta0 = np.diag(np.diag(rho))
    rho_t = brute_apply(ops, rho)
    delta_t = brute_apply(ops, delta0)
    recovery_class, witness = classify_loop(recovery, 1e-12)
    fields = {
        "cr_initial": c_rel_ent(rho),
        "cr_final": c_rel_ent(rho_t),
        "c_l1_initial": c_l1(rho),
        "c_l1_final": c_l1(rho_t),
        "recovery_residual_state": np.abs(brute_apply(recovery, rho_t) - rho).max(),
        "recovery_residual_diag": np.abs(brute_apply(recovery, delta_t) - delta0).max(),
        "recovery_incoherent": recovery_class != "NotIncoherent",
        "recovery_witness": witness,
    }
    fields["cr_deviation"] = abs(fields["cr_final"] - fields["cr_initial"])
    fields["c_l1_deviation"] = abs(fields["c_l1_final"] - fields["c_l1_initial"])
    checks = (
        ("cr_deviation", fields["cr_deviation"] <= tol),
        ("recovery_residual_state", fields["recovery_residual_state"] <= tol),
        ("recovery_residual_diag", fields["recovery_residual_diag"] <= tol),
        ("recovery_incoherent", fields["recovery_incoherent"]),
    )
    fields["failed_checks"] = tuple(name for name, ok in checks if not ok)
    return fields
