"""Steering and entropy-squeezing measures for two-qubit states.

The quantities computed here are built from the outcome statistics of the
three Pauli measurements applied to both qubits:

* conditional Shannon entropies H(sigma_i^B | sigma_i^A) per axis,
* the steering functional I_AB with its closed form for X states,
* the normalized one-way steering degree S in [0, 1],
* the exponentiated conditional entropies Xi_i = exp(H_i) and the
  squeezing quadratures E_x, E_y with their average Z.

All entropies are in nats.  The steering threshold for a qubit pair is
2 ln 2 and the maximum of the functional, reached on Bell states, is 6 ln 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import (
    XStateParams,
    check_density,
    is_x_structured,
    x_params_from_density,
)

LN2 = math.log(2.0)
TWO_LN2 = 2.0 * LN2
SIX_LN2 = 6.0 * LN2

# Raw measurement probabilities this far below zero indicate a broken input,
# not rounding noise.
NEGATIVE_PROBABILITY_TOL = -1e-10
# Allowed disagreement between the closed-form functional and the entropy
# identity before full_report treats it as a formula bug.
PATH_AGREEMENT_TOL = 1e-9

_SQ2 = 1.0 / math.sqrt(2.0)
# Product eigenbases of x, y and z: column 2n + m of PRODUCT_BASES[i] is
# |n>_A |m>_B, with |0>, |1> the +1, -1 eigenvectors of sigma_i:
# (|0> +- |1>)/sqrt(2) for x, (|0> +- i|1>)/sqrt(2) for y, |0>, |1> for z.
# Probabilities are phase independent, so any consistent phase choice works.
PRODUCT_BASES = np.stack([np.kron(b, b) for b in (
    np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    np.array([[_SQ2, _SQ2], [1j * _SQ2, -1j * _SQ2]], dtype=complex),
    np.eye(2, dtype=complex),
)])


class NegativeProbabilityError(ValueError):
    """A raw measurement probability fell below the rounding-noise floor."""


class PathDisagreementError(RuntimeError):
    """Closed-form and entropy-identity evaluations of I_AB disagree."""


def _clean_probabilities(p: np.ndarray) -> np.ndarray:
    if float(np.min(p)) < NEGATIVE_PROBABILITY_TOL:
        raise NegativeProbabilityError(
            f"raw probability {float(np.min(p)):.3e} below {NEGATIVE_PROBABILITY_TOL:.0e}"
        )
    p = np.clip(p, 0.0, 1.0)
    return p / p.sum(axis=-1, keepdims=True)


def joint_distribution(rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities of measuring x, y and z on both qubits.

    Rows are the axes x, y, z.  Column 2n + m holds outcome n of qubit A
    and m of qubit B, with 0 for +1 and 1 for -1: (+,+), (+,-), (-,+), (-,-).
    """
    p = np.einsum(
        "aji,jk,aki->ai", PRODUCT_BASES.conj(), np.asarray(rho, dtype=complex), PRODUCT_BASES
    )
    return _clean_probabilities(p.real)


def shannon_entropy(p) -> np.ndarray | float:
    """- sum p ln p over the last axis in nats, with the 0 ln 0 = 0 convention."""
    p = np.asarray(p, dtype=float)
    return -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)


def conditional_entropy(rho: np.ndarray) -> np.ndarray:
    """H(sigma_i^B | sigma_i^A) for i = x, y, z, in nats.

    Each is the entropy of the joint outcomes minus that of qubit A's
    outcomes, which are the joint row summed over B's outcomes.
    """
    joint = joint_distribution(rho)
    return shannon_entropy(joint) - shannon_entropy(joint.reshape(3, 2, 2).sum(axis=-1))


@dataclass(frozen=True)
class XCoefficients:
    """Probability offsets of an X state.

    x[i][j] shifts the j-th joint outcome of axis i: the joint probabilities
    along x and y are (1 + x_ij)/4 and along z they are the populations
    (1 + x_3j)/4.  a[k] shifts the z marginal of qubit A.
    """

    x: np.ndarray  # shape (3, 4)
    a: np.ndarray  # shape (2,)


def x_coefficients(p: XStateParams) -> XCoefficients:
    p.validate()
    t = 2.0 * (p.c14 + p.c23)
    u = 2.0 * (p.c23 - p.c14)
    x = np.array(
        [
            [t, t, -t, -t],
            [u, u, -u, -u],
            [4.0 * p.d1 - 1.0, 4.0 * p.d2 - 1.0, 4.0 * p.d3 - 1.0, 4.0 * p.d4 - 1.0],
        ]
    )
    az = p.d1 + p.d2 - p.d3 - p.d4
    return XCoefficients(x=x, a=np.array([-az, az]))


def _u_ln_u(u: float) -> float:
    return u * math.log(u) if u > 0.0 else 0.0


def steering_functional(p: XStateParams) -> float:
    """Closed-form steering functional I_AB of an X state, in nats.

    I_AB = sum_ij (1 + x_ij)/2 ln(1 + x_ij) - sum_k (1 + a_k) ln(1 + a_k),
    where terms with 1 + x = 0 contribute nothing.  For every valid state it
    equals 6 ln 2 - 2 (H_x + H_y + H_z); values above 2 ln 2 certify
    steering from A to B.
    """
    coeff = x_coefficients(p)
    total = 0.0
    for row in coeff.x:
        for xij in row:
            total += 0.5 * _u_ln_u(1.0 + xij)
    for ak in coeff.a:
        total -= _u_ln_u(1.0 + ak)
    return total


def neur_bound(n: int) -> float:
    """Entropic uncertainty bound (N/2) ln(N/2) + (1 + N/2) ln(1 + N/2).

    Defined for an even number N >= 2 of measurement outcomes; N = 2 gives
    the qubit threshold 2 ln 2.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"bound is defined for even n >= 2, got {n}")
    half = n / 2.0
    return half * math.log(half) + (1.0 + half) * math.log(1.0 + half)


@dataclass(frozen=True)
class SteeringReport:
    """Every derived quantity for one state.

    h_cond and xi are ordered (x, y, z); entropies are in nats.  With
    Xi_i = exp(H_i): S = max{0, (I_AB - 2 ln 2) / (4 ln 2)}, the squeezing
    quadratures are E_i = max{0, 2/sqrt(Xi_z) - Xi_i} for i in {x, y}, and
    Z is their average.  Positive E_i certifies squeezing of quadrature i
    relative to the z reference; S, E_x, E_y and Z all reach 1 on Bell states.
    """

    h_cond: tuple[float, float, float]
    i_ab: float
    s: float
    xi: tuple[float, float, float]
    e_x: float
    e_y: float
    z: float


def full_report(rho: np.ndarray) -> SteeringReport:
    """Compute all steering and squeezing quantities for one state.

    For X-structured inputs I_AB is evaluated both through the closed form
    and through the entropy identity 6 ln 2 - 2 sum H_i; a disagreement
    beyond 1e-9 raises PathDisagreementError since it signals a formula
    transcription bug rather than bad input.
    """
    rho = check_density(rho)
    h = tuple(conditional_entropy(rho).tolist())
    identity_value = SIX_LN2 - 2.0 * (h[0] + h[1] + h[2])
    if is_x_structured(rho):
        # The x and y statistics read only the real parts of the coherences.
        closed = steering_functional(x_params_from_density(rho.real))
        if abs(closed - identity_value) > PATH_AGREEMENT_TOL:
            raise PathDisagreementError(
                f"I_AB closed form {closed!r} vs entropy identity {identity_value!r}"
            )
        i_ab = closed
    else:
        i_ab = identity_value
    s = max(0.0, (i_ab - TWO_LN2) / (SIX_LN2 - TWO_LN2))
    xis = tuple(math.exp(v) for v in h)
    reference = 2.0 / math.sqrt(xis[2])
    e_x = max(0.0, reference - xis[0])
    e_y = max(0.0, reference - xis[1])
    z = max(0.0, 0.5 * (e_x + e_y))
    return SteeringReport(h_cond=h, i_ab=i_ab, s=s, xi=xis, e_x=e_x, e_y=e_y, z=z)
