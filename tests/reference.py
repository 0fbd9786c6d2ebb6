"""Scalar references shared by several test modules: each states by index
arithmetic or by definition what the code under test computes faster."""

from typing import NamedTuple

import numpy as np


class Stabilizer(NamedTuple):
    """One super-Pauli, sign untracked: bit i-1 of `x_mask` is its X-type
    exponent at site i, of `z_mask` its Z-type exponent."""

    n_qubits: int
    x_mask: int
    z_mask: int


def stabilizers(tab):
    """The tableau's stabilizers as rows, read off its columns one bit at a
    time: bit i of `x[j]` is bit j of stabilizer i's `x_mask`."""
    n = tab.n_qubits
    return [
        Stabilizer(
            n,
            sum((tab.x[j] >> i & 1) << j for j in range(n)),
            sum((tab.z[j] >> i & 1) << j for j in range(n)),
        )
        for i in range(n)
    ]


def apply_super_pauli_reference(amps, stabilizer):
    """A `Stabilizer`'s action by index arithmetic: X-type factors flip basis
    bits, Z-type factors give (-1)^bit phases."""
    idx = np.arange(len(amps))
    zpar = np.zeros(len(idx), dtype=np.int64)
    for p in range(stabilizer.n_qubits):
        if (stabilizer.z_mask >> p) & 1:
            zpar ^= (idx >> p) & 1
    phase = np.where(zpar == 1, -1.0, 1.0)
    out = np.empty_like(amps)
    out[idx ^ stabilizer.x_mask] = phase * amps
    return out


def check_stabilized_reference(psi, stabilizer):
    """"plus", "minus" or "not_stabilized": whether `stabilizer` fixes the
    oracle state `psi` up to its untracked global sign, by index arithmetic."""
    out = apply_super_pauli_reference(psi.amplitudes, stabilizer)
    if np.allclose(out, psi.amplitudes, atol=1e-9):
        return "plus"
    if np.allclose(out, -psi.amplitudes, atol=1e-9):
        return "minus"
    return "not_stabilized"


def svd_entropy_reference(psi, region):
    """The Schmidt-spectrum `entropy`, kept as the reference: the von Neumann
    entropy of the squared singular values of the amplitudes reshaped across
    the cut, for any state, flat spectrum or not."""
    n = psi.n_qubits
    sites = sorted(set(region))
    axes_a = [n - s for s in sites]
    axes_b = [j for j in range(n) if j not in axes_a]
    m = psi.amplitudes.reshape((2,) * n).transpose(axes_a + axes_b)
    sv = np.linalg.svd(m.reshape(1 << len(sites), -1), compute_uv=False)
    probs = sv**2
    probs = probs[probs > 1e-15]
    return float(-np.sum(probs * np.log2(probs)))


def expected_gate_error(sites, n, distinct_message, error):
    """The rejection a gate on `sites` must raise, as (exception class,
    message), or None: a bool or non-integral site is a TypeError first, as
    in `validate_gate`; then, as `error`, the first site outside 1..n in
    argument order, then a coincident pair."""
    if any(type(s) is bool or not isinstance(s, (int, np.integer)) for s in sites):
        return TypeError, f"gate sites must be integers, got {tuple(sites)!r}"
    for s in sites:
        if not 1 <= s <= n:
            return error, f"site {s} out of range 1..{n}"
    if len(set(sites)) != len(sites):
        return error, distinct_message
    return None
