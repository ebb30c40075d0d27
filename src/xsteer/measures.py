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
equal numbers, so their signs stay exact at the threshold wherever
D_x + D_y and H_z are not both near ln 2.  A state is refused only by
`check_density` or `XStateParams.validate`, one positivity rule; the
matrix path's cleaning sets negatives, rounding noise of a checked state,
to 0 and renormalises each joint table, after which no entry exceeds 1.

`full_report` reads a density matrix and is the library path; `x_report`
evaluates a batch of X states from their six parameters and is what sweeps
run.  Both compute only what they report.  `full_report` reads its matrix
once, through `check_density`'s checks, which decide whether it is X
structured and hand back the X entries they read, then runs on Python
floats, where numpy's call overhead would outweigh the arithmetic: an X
input takes the closed form from those entries, and only any other input
is projected, with one matrix product, for its three conditional
entropies.  `x_report`'s `_x_sides` gives the deficits from `_g` and H_z
from the populations, and `_derive` the rest; `steering_functional` reads the same pass.  No report
compares I_AB with the entropy identity I_AB = 6 ln 2 - 2 (H_x + H_y + H_z)
at run time; the tests hold both paths to it.  `joint_distribution` and
`conditional_entropy` project a density matrix on arrays and are, with
`steering_functional`, the array reference for `full_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import XStateParams, _checked_rows, check_density


LN2 = math.log(2.0)
# The steering threshold: the NEUR bound (N/2) ln(N/2) + (1 + N/2) ln(1 + N/2)
# at N = 2 measurement outcomes.
TWO_LN2 = 2.0 * LN2
SIX_LN2 = 6.0 * LN2

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


def _clean_probabilities(p: np.ndarray) -> np.ndarray:
    """Set negatives to 0 and renormalise `joint_distribution`'s (3, 4) table in place; returns `p`.

    The table comes from a checked state, so a negative entry is rounding
    noise and no entry is refused here; the smallest entry decides whether
    any is set to 0.  After the renormalisation every entry lies in [0, 1],
    since no entry exceeds its non-negative row's sum.
    """
    if p.min() < 0.0:
        np.maximum(p, 0.0, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def joint_distribution(rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities of measuring x, y and z on both qubits.

    Rows are the axes x, y, z.  Column 2n + m holds outcome n of qubit A
    and m of qubit B, with 0 for +1 and 1 for -1: (+,+), (+,-), (-,+), (-,-).
    `rho` gets `check_density`'s checks first, so a matrix that is not a
    state raises InvalidStateError.
    """
    p = _PROJECTION @ check_density(rho).reshape(16)
    return _clean_probabilities(p.real.reshape(3, 4))


def _x_ln_x(x: np.ndarray) -> np.ndarray:
    """x ln x elementwise, with 0 ln 0 = 0 and 0 for every x < 0.

    The package passes no x < 0: it sets its joint tables' negatives to 0,
    `_x_sides` its populations' (`validate` admits them down to
    EIGENVALUE_TOL), and `_g` clamps |t| to 1 first.
    """
    y = np.where(x > 0.0, x, 1.0)
    np.log(y, out=y)  # in place: two temporaries fewer, measurable at sweep sizes
    y *= x
    return y


def _conditional_entropies(tables: np.ndarray) -> np.ndarray:
    """H(B|A) in nats of each joint table, its four entries along axis 1.

    Entries 2n and 2n + 1 share qubit A's outcome n.  H(B|A) is the sum of
    x ln x over A's two outcome probabilities minus that over the table's
    four entries.  A (k, 4) stack gives k values, a (k, 4, n) batch (k, n).
    """
    outcomes = tables[:, 0::2] + tables[:, 1::2]
    return np.add.reduce(_x_ln_x(outcomes), axis=1) - np.add.reduce(_x_ln_x(tables), axis=1)


def conditional_entropy(rho: np.ndarray) -> np.ndarray:
    """H(sigma_i^B | sigma_i^A) for i = x, y, z, in nats.

    Each is the entropy of the joint outcomes minus that of qubit A's
    outcomes, which are the joint row summed over B's outcomes.
    """
    return _conditional_entropies(joint_distribution(rho))


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


def _x_sides(p: XStateParams):
    """The closed form's deficits D_x, D_y and its H_z for the X states `p`.

    Validates `p` once.  D_x = g(t) and D_y = g(u) of t = 2(c14 + c23) and
    u = 2(c23 - c14) lie along the first axis of an array; H_z is H(B|A) of
    the populations, each raised to at least 0.  A batch keeps its rows
    along the trailing axis; fields may be scalars shared by every row.
    """
    d1, d2, d3, d4, c14, c23 = p.validate()
    shape = np.broadcast(d1, d2, d3, d4, c14, c23).shape
    tu = np.empty((2,) + shape)
    np.add(c14, c23, out=tu[0, ...])  # a view even for one state
    np.subtract(c23, c14, out=tu[1, ...])
    tu *= 2.0
    # Each population into the table, entry by entry, since a field may be
    # a scalar: broadcast_arrays costs more.
    populations = np.empty((1, 4) + shape)
    for column, population in enumerate((d1, d2, d3, d4)):
        populations[0, column] = population
    np.maximum(populations, 0.0, out=populations)
    return _g(tu), _conditional_entropies(populations)[0]


def steering_functional(p: XStateParams):
    """Closed-form steering functional I_AB = 2 ln 2 + 2 (D_x + D_y - H_z) of an X state, in nats.

    It equals 6 ln 2 - 2 (H_x + H_y + H_z); values above 2 ln 2 certify
    steering from A to B.  A batch gives one value per row.  This is
    `x_report`'s closed form, from the same pass and validation.
    """
    return _derive(*_x_sides(p))[0]


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

    The input gets `check_density`'s checks, which decide whether it is X
    structured (every entry off both diagonals exactly 0) and hand back the
    X entries their block rule read.  From there the pass runs on Python
    floats, and no rule but `check_density`'s refuses the input.

    For an X input the closed form reads D_x = g(t), D_y = g(u) off the
    real parts of the coherences and H_z off the populations, each raised
    to at least 0 as in `x_report`; the X entries need no `validate`, since
    each X block is a principal submatrix of the checked matrix and so
    passes its floor whenever the matrix does.  Only any other input is
    projected: one matrix product gives its 12 joint probabilities, with
    `joint_distribution`'s cleaning (negatives set to 0, each table
    renormalised), and it takes D_i = ln 2 - H_i with the H_i
    `conditional_entropy`'s in their conditional form.  The same tail
    derives I_AB, S, Xi, E and Z.
    """
    rho, entries = _checked_rows(rho, "state")
    if entries is not None:
        # The x and y statistics read only the real parts of the coherences.
        d1, d2, d3, d4, c14, c23 = (v.real for v in entries)
        dx, dy = _g_float(2.0 * (c14 + c23)), _g_float(2.0 * (c23 - c14))
        d1, d2, d3, d4 = max(d1, 0.0), max(d2, 0.0), max(d3, 0.0), max(d4, 0.0)
        hz = -(_given_outcome(d1, d2) + _given_outcome(d3, d4))
        h_cond = (LN2 - dx, LN2 - dy, hz)
    else:
        p = (_PROJECTION @ rho.reshape(16)).real.tolist()
        if min(p) < 0.0:
            p = [max(v, 0.0) for v in p]
        h_cond = (_axis_entropy(*p[0:4]), _axis_entropy(*p[4:8]), _axis_entropy(*p[8:12]))
        dx, dy, hz = LN2 - h_cond[0], LN2 - h_cond[1], h_cond[2]
    # _derive's formulas on floats; max(value, 0.0) lets a nan through, as
    # np.maximum does.
    delta = (dx + dy) - hz
    xi = (2.0 * math.exp(-dx), 2.0 * math.exp(-dy), math.exp(hz))
    e_x = max(xi[0] * math.expm1(dx - 0.5 * hz), 0.0)
    e_y = max(xi[1] * math.expm1(dy - 0.5 * hz), 0.0)
    # Positional arguments: a frozen dataclass's __init__ binds keywords slower.
    return SteeringReport(
        h_cond, TWO_LN2 + 2.0 * delta, max(delta / TWO_LN2, 0.0), xi, e_x, e_y, 0.5 * (e_x + e_y)
    )


def x_report(p: XStateParams) -> np.ndarray:
    """The `full_report` quantities of a batch of X states, from their parameters.

    Returns one row (s, z, e_x, e_y, i_ab) per state, the column order of
    a sweep record.  Applies `XStateParams.validate`, the one rule that
    refuses a state here, raising for the first failing row.  Fields of `p`
    may be scalars shared by every row.

    One stacked pass: `_x_sides` gives the deficits and H_z, one conditional
    entropy per state, and `_derive` reads I_AB, S, E and Z off them.  As in
    `full_report`, no runtime check compares I_AB with the entropy identity:
    the x and y tables would be built from the same t and u that `_g` reads,
    so `tests/test_measures.py` compares `_g` with those tables' entropies
    once, on every t and u of the bundled presets and a dense set over
    [-1, 1].
    """
    i_ab, s, e, z = _derive(*_x_sides(p))
    rows = np.empty((i_ab.size, 5))
    for column, value in enumerate((s, z, e[0], e[1], i_ab)):  # np.column_stack costs more
        rows[:, column] = value
    return rows
