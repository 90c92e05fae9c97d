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
