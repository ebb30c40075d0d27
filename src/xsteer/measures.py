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

For an X state qubit A's x and y outcomes are uniform, so H_x = ln 2 - D_x
and H_y = ln 2 - D_y, with the entropy deficits D_x = g(t), D_y = g(u) of
t = 2(c14 + c23), u = 2(c23 - c14), g(t) = [(1 + t) ln(1 + t) +
(1 - t) ln(1 - t)]/2.  With H_z from the populations, I_AB - 2 ln 2 =
2 (D_x + D_y - H_z) and E_i = 2 e^(-D_i) expm1(D_i - H_z/2): S > 0 exactly
when D_x + D_y > H_z, E_i > 0 exactly when D_i > H_z/2, so S > 0 forces
Z > 0.  S and E are read off the deficits, never as differences of nearly
equal numbers, so their signs stay exact at the threshold.  The dual-path
check compares this closed form with the entropy identity
I_AB = 6 ln 2 - 2 (H_x + H_y + H_z) of the cleaned joint probabilities.

`full_report` projects a density matrix and is the library path; `x_report`
evaluates a batch of X states from their six parameters and is what sweeps
run.  `full_report` reads its matrix once, runs `check_density`'s checks
on those rows and takes the X structure and entries off them; after one
matrix product for the projection everything runs on Python floats, where
numpy's call overhead would outweigh the arithmetic.  `x_report` runs one
stacked pass: `_x_terms` fills a (24, n) array with the cleaned joint
probabilities, the raw populations and A's outcomes, one x ln x pass and
row sums give the identity's H_i and the closed form's H_z, `_g` gives the
deficits and `_derive` the rest; `steering_functional` reads the same pass.
`joint_distribution` and `conditional_entropy` project a density matrix on
arrays and are, with `steering_functional`, the reference for both.
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
PRODUCT_BASES = np.stack([np.kron(b, b) for b in (
    np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    np.array([[_SQ2, _SQ2], [1j * _SQ2, -1j * _SQ2]], dtype=complex),
    np.eye(2, dtype=complex),
)])
# The same measurement as one linear map on the flattened matrix: row
# 4a + i of _PROJECTION times rho.reshape(16) is <b_ai| rho |b_ai>, with
# b_ai column i of PRODUCT_BASES[a].
_PROJECTION = np.einsum("aji,aki->aijk", PRODUCT_BASES.conj(), PRODUCT_BASES).reshape(12, 16)

class NegativeProbabilityError(ValueError):
    """A raw measurement probability fell below the rounding-noise floor."""


class PathDisagreementError(RuntimeError):
    """Closed-form and entropy-identity evaluations of I_AB disagree."""


def _check_floor(lowest: float) -> None:
    """Raise NegativeProbabilityError when the smallest raw probability is below the floor."""
    if lowest < NEGATIVE_PROBABILITY_TOL:
        raise NegativeProbabilityError(
            f"raw probability {lowest:.3e} below {NEGATIVE_PROBABILITY_TOL:.0e}"
        )


def _clean_probabilities(p: np.ndarray) -> np.ndarray:
    _check_floor(float(p.min()))
    p = np.minimum(np.maximum(p, 0.0), 1.0)  # np.clip, at a third of its call cost
    return p / p.sum(axis=-1, keepdims=True)


def joint_distribution(rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities of measuring x, y and z on both qubits.

    Rows are the axes x, y, z.  Column 2n + m holds outcome n of qubit A
    and m of qubit B, with 0 for +1 and 1 for -1: (+,+), (+,-), (-,+), (-,-).
    """
    p = _PROJECTION @ as_square(rho, "state").reshape(16)
    return _clean_probabilities(p.real.reshape(3, 4))


def _x_ln_x(x: np.ndarray) -> np.ndarray:
    """x ln x elementwise, with 0 ln 0 = 0 and 0 for every x < 0.

    Only `shannon_entropy`'s caller can pass an x < 0: the package clips its
    joint rows and clamps |t| to 1 first.
    """
    return x * np.log(np.where(x > 0.0, x, 1.0))


def shannon_entropy(p) -> np.ndarray | float:
    """- sum p ln p over the last axis in nats, with the 0 ln 0 = 0 convention."""
    return -_x_ln_x(np.asarray(p, dtype=float)).sum(axis=-1)


def conditional_entropy(rho: np.ndarray) -> np.ndarray:
    """H(sigma_i^B | sigma_i^A) for i = x, y, z, in nats.

    Each is the entropy of the joint outcomes minus that of qubit A's
    outcomes, which are the joint row summed over B's outcomes.
    """
    joint = joint_distribution(rho)
    marginal = joint.reshape(3, 2, 2).sum(axis=-1)
    return shannon_entropy(joint) - shannon_entropy(marginal)


def _g(t):
    """The entropy deficit g(t) = [(1 + t) ln(1 + t) + (1 - t) ln(1 - t)]/2 of each entry of `t`.

    |t| is clamped to 1, where g = ln 2.  Below |t| = 1/2 it is
    |t| atanh|t| + log1p(-t^2)/2, since the pair form's two terms, each
    about t, cancel to t^2 there; from 1/2 on it is the pair form, with
    log1p(-|t|) as the log of the exact 1 - |t|, since t^2 rounds badly as
    |t| -> 1.  `_g_float` is the same on one float.
    """
    a = np.minimum(np.abs(t), 1.0)
    s = np.minimum(a, 0.5)  # the atanh form everywhere, then the pair form from 1/2 on
    g = s * np.arctanh(s)
    g += 0.5 * np.log1p(-s * s)
    large = a >= 0.5
    a = a[large]
    g[large] = 0.5 * ((1.0 + a) * np.log1p(a) + _x_ln_x(1.0 - a))
    return g


def _g_float(t: float) -> float:
    """`_g` on one float, with `math`."""
    a = min(abs(t), 1.0)
    if a < 0.5:
        return a * math.atanh(a) + 0.5 * math.log1p(-a * a)
    c = 1.0 - a
    return 0.5 * ((1.0 + a) * math.log1p(a) + (c * math.log(c) if c > 0.0 else 0.0))


# Rows of the stack `_x_terms` builds: four tables of four entries, the
# cleaned joint x, y and z rows of `joint_distribution`, then the raw
# populations; then A's two outcomes per table, each a pair of its entries.
_JOINT_ROWS, _TABLE_ROWS, _MARGINAL_ROWS = slice(0, 12), slice(0, 16), slice(16, 24)


def _x_terms(p: XStateParams) -> tuple[np.ndarray, np.ndarray]:
    """t and u along the first axis, and the 24 rows above, for the X states `p`.

    Validates `p` once.  With t = 2(c14 + c23) and u = 2(c23 - c14), the raw
    joint x row is (1 + t, 1 - t, 1 - t, 1 + t)/4, the y row the same in u,
    and the z row the populations; these get `_clean_probabilities`' floor
    check, clip and renormalisation in place, while rows 12-15 keep the
    populations raw for the closed form's H_z.  A batch keeps its rows along
    the trailing axis; fields may be scalars shared by every row.
    """
    p.validate()
    shape = np.broadcast(p.d1, p.d2, p.d3, p.d4, p.c14, p.c23).shape
    tu = np.empty((2,) + shape)
    np.add(p.c14, p.c23, out=tu[0, ...])  # a view even for one state
    np.subtract(p.c23, p.c14, out=tu[1, ...])
    tu *= 2.0
    terms = np.empty((24,) + shape)
    # (1 + t, 1 - t, 1 - t, 1 + t)/4 into the x row and the same in u into
    # the y row, each ufunc writing two entries of both
    xy = terms[:8].reshape((2, 4) + shape)
    np.add(1.0, tu[:, None], out=xy[:, 0::3])
    np.subtract(1.0, tu[:, None], out=xy[:, 1:3])
    xy *= 0.25
    # Each population into its joint z entry and its raw row at once; row by
    # row, since a field may be a scalar: broadcast_arrays costs more.
    z = terms[8:16].reshape((2, 4) + shape)
    for column, population in enumerate(p.diagonal):
        z[:, column] = population
    joint = terms[_JOINT_ROWS]
    # initial=inf lets an empty batch through: it has no probability to check
    lowest = float(np.minimum.reduce(joint, axis=None, initial=np.inf))
    _check_floor(lowest)
    # `_clean_probabilities`' clip to [0, 1]: validate keeps every population
    # in [0, 1] and |t|, |u| below 1 + 1e-5, so no raw probability exceeds 1.
    if lowest < 0.0:
        np.maximum(joint, 0.0, out=joint)
    axes = joint.reshape((3, 4) + shape)
    axes /= np.add.reduce(axes, axis=1, keepdims=True)
    np.add(terms[0:16:2], terms[1:16:2], out=terms[_MARGINAL_ROWS])
    return tu, terms


def _x_sides(p: XStateParams):
    """Both sides of the I_AB check for the X states `p`, from one x ln x pass.

    Returns the closed form's deficits D_x, D_y (along the first axis of an
    array) and its H_z from the raw populations, then the entropy
    identity's H_x, H_y and H_z from the cleaned joint rows.  Each H is
    -sum p ln p of its table minus that of A's outcomes.
    """
    tu, terms = _x_terms(p)
    xlnx = _x_ln_x(terms)
    batch = xlnx.shape[1:]
    tables = np.add.reduce(xlnx[_TABLE_ROWS].reshape((4, 4) + batch), axis=1)
    outcomes = np.add.reduce(xlnx[_MARGINAL_ROWS].reshape((4, 2) + batch), axis=1)
    h = outcomes - tables
    return _g(tu), h[3], h[:3]


def steering_functional(p: XStateParams):
    """Closed-form steering functional I_AB = 2 ln 2 + 2 (D_x + D_y - H_z) of an X state, in nats.

    It equals 6 ln 2 - 2 (H_x + H_y + H_z); values above 2 ln 2 certify
    steering from A to B.  A batch gives one value per row.  This is
    `x_report`'s closed form, from the same pass, validation and
    negative-probability floor.
    """
    d, hz, _ = _x_sides(p)
    return _derive(d, hz)[0]


@dataclass(frozen=True)
class SteeringReport:
    """Every derived quantity for one state.

    h_cond and xi are ordered (x, y, z); entropies are in nats.  With
    D_i = ln 2 - H_i: S = max{0, (D_x + D_y - H_z) / (2 ln 2)}, which is
    (I_AB - 2 ln 2) / (4 ln 2); Xi_i = exp(H_i), 2 e^(-D_i) for i in {x, y};
    E_i = max{0, 2/sqrt(Xi_z) - Xi_i} = max{0, 2 e^(-D_i) expm1(D_i - H_z/2)}
    and Z their average.  Positive E_i certifies squeezing of quadrature i
    relative to the z reference; S, E_x, E_y and Z all reach 1 on Bell
    states.  For an X state every field comes from the closed form.
    """

    h_cond: tuple[float, float, float]
    i_ab: float
    s: float
    xi: tuple[float, float, float]
    e_x: float
    e_y: float
    z: float


def _checked_i_ab(closed, h):
    """The closed-form I_AB `closed`, checked against the entropy identity.

    `h` holds H_x, H_y and H_z along its first axis: three floats for one
    state, or three rows of a batch's values.  A disagreement beyond 1e-9
    raises PathDisagreementError (for the first failing row of a batch)
    since it signals a formula transcription bug rather than bad input.
    """
    identity = SIX_LN2 - 2.0 * (h[0] + h[1] + h[2])
    row = failing_row(abs(closed - identity) <= PATH_AGREEMENT_TOL)
    if row is not None:
        raise PathDisagreementError(
            f"I_AB closed form {row_value(closed, row)} "
            f"vs entropy identity {row_value(identity, row)}"
        )
    return closed


def _derive(d: np.ndarray, hz):
    """I_AB, S, (E_x, E_y) and Z from D_x, D_y (first axis of `d`) and H_z, on arrays.

    `full_report` computes the same formulas on floats.  Here half of each
    E is formed first: doubling is exact, so E = 2 w and Z = w_x + w_y are
    the bits that E = max{0, 2 e^(-D) expm1(D - H_z/2)} and their average give.
    """
    delta = np.add.reduce(d) - hz
    w = np.exp(-d)
    w *= np.expm1(d - 0.5 * hz)
    np.maximum(0.0, w, out=w)
    return TWO_LN2 + 2.0 * delta, np.maximum(0.0, delta / TWO_LN2), 2.0 * w, np.add.reduce(w)


def _given_outcome(a: float, b: float) -> float:
    """a ln(a/m) + b ln(b/m) with m = a + b, the joint terms of one outcome of qubit A.

    A zero probability contributes nothing.  With m at most 1, a/m never
    underflows to 0 for a > 0.
    """
    m = a + b
    return (a * math.log(a / m) if a > 0.0 else 0.0) + (b * math.log(b / m) if b > 0.0 else 0.0)


def _axis_entropy(p00: float, p01: float, p10: float, p11: float) -> float:
    """H(sigma^B | sigma^A) of one axis from its four joint probabilities in [0, 1], on floats.

    `_clean_probabilities`' renormalisation, then the conditional form
    -sum_nm p_nm ln(p_nm / m_n), summed per outcome n of qubit A.  Exact
    inputs keep exact outputs: on |00><00| the x outcomes are 1/4 each,
    every term is -ln(2)/4 and the two pairs add up to ln 2 without
    rounding, where -sum p ln p + sum m ln m lands an ulp below.
    """
    total = ((p00 + p01) + p10) + p11  # numpy's order for four entries
    return -(_given_outcome(p00 / total, p01 / total) + _given_outcome(p10 / total, p11 / total))


def full_report(rho: np.ndarray) -> SteeringReport:
    """Compute all steering and squeezing quantities for one state.

    The input gets `check_density`'s checks, and its X structure (within
    X_STRUCTURE_TOL, as `is_x_structured`) and X entries are read off the
    rows those checks read.  One matrix product gives the 12 joint
    probabilities; from there the pass runs on Python floats.  The
    negative-probability floor, clip and renormalisation are
    `joint_distribution`'s, and the H_i are `conditional_entropy`'s in their
    conditional form.

    For an X input the closed form reads D_x = g(t), D_y = g(u) off the
    real parts of the coherences and H_z off the populations, and its I_AB
    is checked against the entropy identity 6 ln 2 - 2 sum H_i: a
    disagreement beyond 1e-9 raises PathDisagreementError, since it signals
    a formula transcription bug rather than bad input.  Any other input
    takes D_i = ln 2 - H_i, and the same tail derives S, Xi, E and Z.
    """
    rho, rows = _checked_rows(rho, "state")
    p = (_PROJECTION @ rho.reshape(16)).real.tolist()
    lowest = min(p)
    _check_floor(lowest)
    if lowest < 0.0 or max(p) > 1.0:  # else the clip to [0, 1] changes nothing
        p = [min(max(v, 0.0), 1.0) for v in p]
    h = (_axis_entropy(*p[0:4]), _axis_entropy(*p[4:8]), _axis_entropy(*p[8:12]))
    if _x_structured(rows):
        # The x and y statistics read only the real parts of the coherences.
        d1, d2, d3, d4, c14, c23 = (v.real for v in _x_entries(rows))
        XStateParams(d1, d2, d3, d4, c14, c23).validate()
        dx, dy = _g_float(2.0 * (c14 + c23)), _g_float(2.0 * (c23 - c14))
        hz = -(_given_outcome(d1, d2) + _given_outcome(d3, d4))
        h_cond = (LN2 - dx, LN2 - dy, hz)
    else:
        h_cond = h
        dx, dy, hz = LN2 - h[0], LN2 - h[1], h[2]
    # _derive's formulas on floats; max(value, 0.0) lets a nan through, as
    # np.maximum does.  For a non-X input both sides of the check are the
    # entropy identity.
    delta = (dx + dy) - hz
    i_ab = _checked_i_ab(TWO_LN2 + 2.0 * delta, h)
    xi = (2.0 * math.exp(-dx), 2.0 * math.exp(-dy), math.exp(hz))
    e_x = max(xi[0] * math.expm1(dx - 0.5 * hz), 0.0)
    e_y = max(xi[1] * math.expm1(dy - 0.5 * hz), 0.0)
    # Positional arguments: a frozen dataclass's __init__ binds keywords slower.
    return SteeringReport(
        h_cond, i_ab, max(delta / TWO_LN2, 0.0), xi, e_x, e_y, 0.5 * (e_x + e_y)
    )


def x_report(p: XStateParams) -> np.ndarray:
    """The `full_report` quantities of a batch of X states, from their parameters.

    Returns one row (s, z, e_x, e_y, i_ab) per state, the column order of
    a sweep record.  Applies `XStateParams.validate`, the negative-probability
    floor and the dual-path I_AB check to every row, raising for the first
    failing one.  Fields of `p` may be scalars shared by every row.

    One stacked pass: `_x_sides` gives the closed form's deficits and H_z
    and the entropy identity's H_i, `_derive` reads I_AB, S, E and Z off the
    closed side, and that I_AB is checked against the identity.
    """
    d, hz, h = _x_sides(p)
    i_ab, s, e, z = _derive(d, hz)
    _checked_i_ab(i_ab, h)
    rows = np.empty((i_ab.size, 5))
    for column, value in enumerate((s, z, e[0], e[1], i_ab)):  # np.column_stack costs more
        rows[:, column] = value
    return rows
