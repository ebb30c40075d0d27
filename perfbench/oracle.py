"""Independent evaluation of the quantities xsteer reports.

Nothing here calls xsteer's measure or process code. X states are evaluated
from closed forms on their six parameters: the x and y joint outcomes of an X
state are ((1 +- t)/4, twice each) with t = 2(c14 + c23) and u = 2(c23 - c14)
for y, qubit A's x and y marginals are uniform, and z reads the populations.
Non-X states and swap outputs are evaluated with a batched numpy projection
written here. Every function works on arrays, one row per state, and returns
rows of (s, z, e_x, e_y, i_ab) in the order of xsteer's CSV columns.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)

_S = 1.0 / math.sqrt(2.0)
# Columns are the +1 and -1 eigenvectors of sigma_x, sigma_y, sigma_z.
_PAULI_BASES = (
    np.array([[_S, _S], [_S, -_S]], dtype=complex),
    np.array([[_S, _S], [1j * _S, -1j * _S]], dtype=complex),
    np.eye(2, dtype=complex),
)
# Bell kets by the CLI's outcome name, in the |00>, |01>, |10>, |11> basis.
BELL_KETS = {
    "psi": np.array([_S, 0.0, 0.0, _S]),
    "psi-minus": np.array([_S, 0.0, 0.0, -_S]),
    "phi": np.array([0.0, _S, _S, 0.0]),
    "phi-minus": np.array([0.0, _S, -_S, 0.0]),
}


def _entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats over the last axis, with 0 ln 0 = 0."""
    p = np.clip(p, 0.0, None)
    safe = np.where(p > 0.0, p, 1.0)
    return -np.sum(p * np.log(safe), axis=-1)


def _from_entropies(hx, hy, hz) -> np.ndarray:
    i_ab = 6.0 * LN2 - 2.0 * (hx + hy + hz)
    s = np.maximum(0.0, (i_ab - 2.0 * LN2) / (4.0 * LN2))
    ref = 2.0 / np.sqrt(np.exp(hz))
    e_x = np.maximum(0.0, ref - np.exp(hx))
    e_y = np.maximum(0.0, ref - np.exp(hy))
    z = np.maximum(0.0, 0.5 * (e_x + e_y))
    return np.stack([s, z, e_x, e_y, i_ab], axis=-1)


def x_report(d: np.ndarray, c14: np.ndarray, c23: np.ndarray) -> np.ndarray:
    """Report rows for X states with populations d[..., 4] and coherences."""
    d = np.asarray(d, dtype=float)
    t = 2.0 * (np.asarray(c14) + np.asarray(c23))
    u = 2.0 * (np.asarray(c23) - np.asarray(c14))
    hx = _entropy(np.stack([1 + t, 1 + t, 1 - t, 1 - t], axis=-1) / 4.0) - LN2
    hy = _entropy(np.stack([1 + u, 1 + u, 1 - u, 1 - u], axis=-1) / 4.0) - LN2
    marginal_z = np.stack([d[..., 0] + d[..., 1], d[..., 2] + d[..., 3]], axis=-1)
    hz = _entropy(d) - _entropy(marginal_z)
    return _from_entropies(hx, hy, hz)


def density_report(rho: np.ndarray) -> np.ndarray:
    """Report rows for any two-qubit density matrices rho[..., 4, 4]."""
    h = []
    for basis in _PAULI_BASES:
        vecs = np.kron(basis, basis)  # column 2a + b is |a>_A |b>_B
        joint = np.real(np.einsum("ji,...jk,ki->...i", vecs.conj(), rho, vecs))
        marginal = joint.reshape(joint.shape[:-1] + (2, 2)).sum(axis=-1)
        h.append(_entropy(joint) - _entropy(marginal))
    return _from_entropies(*h)


def x_matrix(d: np.ndarray, c14: np.ndarray, c23: np.ndarray) -> np.ndarray:
    """Batched 4x4 X-state density matrices."""
    d = np.asarray(d, dtype=float)
    rho = np.zeros(d.shape[:-1] + (4, 4), dtype=complex)
    for k in range(4):
        rho[..., k, k] = d[..., k]
    rho[..., 0, 3] = rho[..., 3, 0] = c14
    rho[..., 1, 2] = rho[..., 2, 1] = c23
    return rho


def x_parts(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Populations and real coherences read off X-state matrices."""
    d = np.real(np.stack([rho[..., k, k] for k in range(4)], axis=-1))
    return d, np.real(rho[..., 0, 3]), np.real(rho[..., 1, 2])


def mixture(nu: np.ndarray):
    """nu * phi+ + (1 - nu) * psi+ as (d, c14, c23)."""
    nu = np.asarray(nu, dtype=float)
    w, v = (1.0 - nu) / 2.0, nu / 2.0
    return np.stack([w, v, v, w], axis=-1), w, v


def ad_survival(r, tau) -> np.ndarray:
    """Excited-state survival of the oscillatory amplitude-damping channel."""
    lam = np.sqrt(r * (2.0 - r))
    amp = np.cos(0.5 * lam * tau) + (r / lam) * np.sin(0.5 * lam * tau)
    return np.minimum(1.0, np.exp(-r * tau) * amp * amp)


def dephasing_factor(r, tau) -> np.ndarray:
    """Single-qubit coherence retention of the pure-dephasing channel."""
    return np.exp(-0.5 * (tau + np.expm1(-r * tau) / r))


def damp_both(d, c14, c23, p):
    """Amplitude damping with survival p on both qubits of an X state."""
    q = 1.0 - p
    d1, d2, d3, d4 = (d[..., k] for k in range(4))
    out = np.stack(
        [
            d1 + q * d2 + q * d3 + q * q * d4,
            p * d2 + p * q * d4,
            p * d3 + p * q * d4,
            p * p * d4,
        ],
        axis=-1,
    )
    return out, p * c14, p * c23


def damp_a_dephase_b(d, c14, c23, p, f):
    """Amplitude damping (survival p) on A, dephasing (factor f) on B."""
    q = 1.0 - p
    d1, d2, d3, d4 = (d[..., k] for k in range(4))
    out = np.stack([d1 + q * d3, d2 + q * d4, p * d3, p * d4], axis=-1)
    scale = np.sqrt(p) * f
    return out, scale * c14, scale * c23


def swap(rho12: np.ndarray, rho34: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """State of qubits 1 and 4 after projecting qubits 2 and 3 onto `ket`.

    `ket` is one Bell ket of shape (4,) or one per state, shape (..., 4).
    """
    ket = np.asarray(ket, dtype=complex)
    b = ket.reshape(ket.shape[:-1] + (2, 2))
    r12 = rho12.reshape(rho12.shape[:-2] + (2, 2, 2, 2))
    r34 = rho34.reshape(rho34.shape[:-2] + (2, 2, 2, 2))
    out = np.einsum("...bc,...BC,...abAB,...cdCD->...adAD", b.conj(), b, r12, r34)
    out = out.reshape(out.shape[:-4] + (4, 4))
    trace = np.real(np.einsum("...ii->...", out))
    return out / trace[..., None, None]


def local_rotation_a(theta: float) -> np.ndarray:
    """exp(-i theta sigma_y / 2) on qubit A, identity on B."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.kron(np.array([[c, -s], [s, c]], dtype=complex), np.eye(2))
