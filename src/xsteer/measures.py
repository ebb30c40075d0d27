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

`full_report` projects a density matrix and is the library path; `x_report`
evaluates a batch of X states from their six parameters in closed form and
is what sweeps run.  `x_report` derives S, Xi, E and Z through `_derive`,
on arrays; `full_report` applies the same formulas to Python floats with
`math`, since numpy's call overhead on one state's scalars costs more than
the rest of its tail.

`full_report` reads its matrix once into Python numbers: `check_density`'s
checks run on those rows (for an X matrix, with the smallest eigenvalue
from its two 2x2 blocks in closed form), and the X structure and the six
real X entries come off the same rows.  It then evaluates the state in a
single x ln x pass: the joint probabilities, qubit A's marginals and, for an
X input, the closed form's offsets 1 + x_ij and 1 + a_k go into one vector,
and fixed weight arrays read H_x, H_y, H_z and the closed-form I_AB off its
x ln x terms.
`conditional_entropy` and `steering_functional` compute the same
quantities one at a time and stay the reference for that pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import (
    XStateParams,
    _checked_rows,
    _x_entries,
    _x_structured,
    as_square,
    failing_row,
    row_value,
    tensor,
)


def neur_bound(n: int) -> float:
    """Entropic uncertainty bound (N/2) ln(N/2) + (1 + N/2) ln(1 + N/2).

    Defined for an even number N >= 2 of measurement outcomes; N = 2 gives
    the qubit threshold 2 ln 2.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"bound is defined for even n >= 2, got {n}")
    half = n / 2.0
    return half * math.log(half) + (1.0 + half) * math.log(1.0 + half)


LN2 = math.log(2.0)
TWO_LN2 = neur_bound(2)  # the steering threshold; bit-identical to 2 ln 2
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
PRODUCT_BASES = np.stack([tensor(b, b) for b in (
    np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    np.array([[_SQ2, _SQ2], [1j * _SQ2, -1j * _SQ2]], dtype=complex),
    np.eye(2, dtype=complex),
)])
# The same measurement as one linear map on the flattened matrix: row
# 4a + i of _PROJECTION times rho.reshape(16) is <b_ai| rho |b_ai>, with
# b_ai column i of PRODUCT_BASES[a].
_PROJECTION = np.einsum("aji,aki->aijk", PRODUCT_BASES.conj(), PRODUCT_BASES).reshape(12, 16)
# Weights of full_report's single x ln x pass.  Its vector holds the 12 joint
# probabilities p_ij, then qubit A's 6 marginals m_in (both axis by axis),
# then for an X input the 12 offsets 1 + x_ij and the 2 offsets 1 + a_k.
# Row i < 3 gives H_i = -sum_j p_ij ln p_ij + sum_n m_in ln m_in; row 3 gives
# the closed form of `steering_functional`.
_ENTROPY_WEIGHTS = np.hstack([-np.repeat(np.eye(3), 4, axis=1), np.repeat(np.eye(3), 2, axis=1)])
_REPORT_WEIGHTS = np.vstack([
    np.hstack([_ENTROPY_WEIGHTS, np.zeros((3, 14))]),
    np.concatenate([np.zeros(18), np.full(12, 0.5), [-1.0, -1.0]]),
])


class NegativeProbabilityError(ValueError):
    """A raw measurement probability fell below the rounding-noise floor."""


class PathDisagreementError(RuntimeError):
    """Closed-form and entropy-identity evaluations of I_AB disagree."""


def _clean_probabilities(p: np.ndarray) -> np.ndarray:
    lowest = float(p.min())
    if lowest < NEGATIVE_PROBABILITY_TOL:
        raise NegativeProbabilityError(
            f"raw probability {lowest:.3e} below {NEGATIVE_PROBABILITY_TOL:.0e}"
        )
    p = np.minimum(np.maximum(p, 0.0), 1.0)  # np.clip, at a third of its call cost
    return p / p.sum(axis=-1, keepdims=True)


def joint_distribution(rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities of measuring x, y and z on both qubits.

    Rows are the axes x, y, z.  Column 2n + m holds outcome n of qubit A
    and m of qubit B, with 0 for +1 and 1 for -1: (+,+), (+,-), (-,+), (-,-).
    """
    p = _PROJECTION @ as_square(rho, "state", 4).reshape(16)
    return _clean_probabilities(p.real.reshape(3, 4))


def _x_ln_x(x: np.ndarray) -> np.ndarray:
    """x ln x elementwise, with 0 ln 0 = 0 and 0 for every x < 0.

    An offset 1 + x_ij of a state that passes `check_density` can round to
    about -2e-12; clamping x at the smallest positive double instead would
    turn that term into +1.4e-9, past the 1e-9 path check.
    """
    return x * np.log(np.where(x > 0.0, x, 1.0))


def shannon_entropy(p) -> np.ndarray | float:
    """- sum p ln p over the last axis in nats, with the 0 ln 0 = 0 convention."""
    return -_x_ln_x(np.asarray(p, dtype=float)).sum(axis=-1)


def _x_joint_distribution(p: XStateParams) -> np.ndarray:
    """`joint_distribution` of a batch of X states in closed form, shape (n, 3, 4).

    With t = 2(c14 + c23) = <sigma_x sigma_x> and u = 2(c23 - c14) =
    <sigma_y sigma_y>, the x row is (1 + t, 1 - t, 1 - t, 1 + t)/4 and the
    y row the same in u; the z row is the populations.
    """
    t = 2.0 * (p.c14 + p.c23)
    u = 2.0 * (p.c23 - p.c14)
    x_same, x_differ = (1.0 + t) / 4.0, (1.0 - t) / 4.0
    y_same, y_differ = (1.0 + u) / 4.0, (1.0 - u) / 4.0
    table = np.stack(
        [x_same, x_differ, x_differ, x_same, y_same, y_differ, y_differ, y_same,
         p.d1, p.d2, p.d3, p.d4],
        axis=-1,
    )
    return _clean_probabilities(table.reshape(-1, 3, 4))


def _conditional_entropies(joint: np.ndarray) -> np.ndarray:
    # Entropy of each joint row minus that of qubit A's outcomes, which are
    # the row summed over B's outcomes.
    marginal = joint.reshape(joint.shape[:-1] + (2, 2)).sum(axis=-1)
    return shannon_entropy(joint) - shannon_entropy(marginal)


def conditional_entropy(rho: np.ndarray) -> np.ndarray:
    """H(sigma_i^B | sigma_i^A) for i = x, y, z, in nats.

    Each is the entropy of the joint outcomes minus that of qubit A's
    outcomes, which are the joint row summed over B's outcomes.
    """
    return _conditional_entropies(joint_distribution(rho))


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
    """The offsets of one X state, or of a batch along a trailing axis."""
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


def steering_functional(p: XStateParams):
    """Closed-form steering functional I_AB of an X state, in nats.

    I_AB = sum_ij (1 + x_ij)/2 ln(1 + x_ij) - sum_k (1 + a_k) ln(1 + a_k),
    where terms with 1 + x = 0 contribute nothing.  For every valid state it
    equals 6 ln 2 - 2 (H_x + H_y + H_z); values above 2 ln 2 certify
    steering from A to B.  A batch gives one value per row.
    """
    coeff = x_coefficients(p)
    return 0.5 * _x_ln_x(1.0 + coeff.x).sum(axis=(0, 1)) - _x_ln_x(1.0 + coeff.a).sum(axis=0)


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


def _checked_i_ab(closed, h: np.ndarray):
    """The closed-form I_AB `closed`, checked against the entropy identity.

    A disagreement beyond 1e-9 raises PathDisagreementError (for the first
    failing row of a batch) since it signals a formula transcription bug
    rather than bad input.
    """
    identity = SIX_LN2 - 2.0 * h.sum(axis=-1)
    row = failing_row(abs(closed - identity) <= PATH_AGREEMENT_TOL)
    if row is not None:
        raise PathDisagreementError(
            f"I_AB closed form {row_value(closed, row)} "
            f"vs entropy identity {row_value(identity, row)}"
        )
    return closed


def _derive(h: np.ndarray, i_ab):
    """S, Xi, E_x, E_y and Z from H_i (last axis x, y, z) and I_AB."""
    s = np.maximum(0.0, (i_ab - TWO_LN2) / (SIX_LN2 - TWO_LN2))
    xi = np.exp(h)
    reference = 2.0 / np.sqrt(xi[..., 2])
    e_x = np.maximum(0.0, reference - xi[..., 0])
    e_y = np.maximum(0.0, reference - xi[..., 1])
    z = np.maximum(0.0, 0.5 * (e_x + e_y))
    return s, xi, e_x, e_y, z


def full_report(rho: np.ndarray) -> SteeringReport:
    """Compute all steering and squeezing quantities for one state.

    For X-structured inputs I_AB is evaluated both through the closed form
    and through the entropy identity 6 ln 2 - 2 sum H_i; a disagreement
    beyond 1e-9 raises PathDisagreementError since it signals a formula
    transcription bug rather than bad input.

    Both come from one x ln x pass over a single vector: the joint
    probabilities and qubit A's marginals give the H_i, and for an X input
    the offsets of `x_coefficients` give the closed form.  The results equal
    `conditional_entropy` and `steering_functional` up to summation order.
    The input gets `check_density`'s checks, and its X structure (within
    X_STRUCTURE_TOL, as `is_x_structured`) and X entries are read off the
    rows those checks read.
    """
    rho, rows = _checked_rows(rho, "state", 4)
    p = joint_distribution(rho).reshape(12)
    terms = [p, p[0::2] + p[1::2]]  # A's outcome n sums B's outcomes of 2n + m
    if not _x_structured(rows):  # the entropy identity alone
        h = _ENTROPY_WEIGHTS @ _x_ln_x(np.concatenate(terms))
        i_ab = SIX_LN2 - 2.0 * h.sum()
    else:
        # The x and y statistics read only the real parts of the coherences.
        coeff = x_coefficients(XStateParams(*(z.real for z in _x_entries(rows))))
        terms += [1.0 + coeff.x.reshape(12), 1.0 + coeff.a]
        sums = _REPORT_WEIGHTS @ _x_ln_x(np.concatenate(terms))
        h = sums[:3]
        i_ab = _checked_i_ab(sums[3], h)
    # _derive's formulas on floats; max(value, 0.0) lets a nan through, as
    # np.maximum does.
    h_cond = tuple(h.tolist())
    i_ab = float(i_ab)
    xi = tuple(map(math.exp, h_cond))
    reference = 2.0 / math.sqrt(xi[2])
    e_x = max(reference - xi[0], 0.0)
    e_y = max(reference - xi[1], 0.0)
    return SteeringReport(
        h_cond=h_cond, i_ab=i_ab, s=max((i_ab - TWO_LN2) / (SIX_LN2 - TWO_LN2), 0.0), xi=xi,
        e_x=e_x, e_y=e_y, z=max(0.5 * (e_x + e_y), 0.0),
    )


def x_report(p: XStateParams) -> np.ndarray:
    """The `full_report` quantities of a batch of X states, from their parameters.

    Returns one row (s, z, e_x, e_y, i_ab) per state, the column order of
    a sweep record.  Applies `XStateParams.validate`, the negative-probability
    floor and the dual-path I_AB check to every row, raising for the first
    failing one.  Fields of `p` may be scalars shared by every row.
    """
    p = XStateParams(*np.broadcast_arrays(p.d1, p.d2, p.d3, p.d4, p.c14, p.c23))
    closed = steering_functional(p)  # validates p, before anything else reads it
    h = _conditional_entropies(_x_joint_distribution(p))
    i_ab = _checked_i_ab(closed, h)
    s, _, e_x, e_y, z = _derive(h, i_ab)
    return np.column_stack([s, z, e_x, e_y, i_ab])
