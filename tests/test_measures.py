import math
from dataclasses import astuple
from enum import Enum
from itertools import cycle

import numpy as np
import pytest
from conftest import _batch, _projector, partial_trace

from xsteer.measures import (
    LN2,
    SIX_LN2,
    TWO_LN2,
    _PROJECTION,
    _clean_probabilities,
    _conditional_entropies,
    _derive,
    _g,
    _g_float,
    _x_sides,
    conditional_entropy,
    full_report,
    joint_distribution,
    neur_bound,
    steering_functional,
    x_report,
)
from xsteer.processes import (
    amplitude_damping_kraus,
    apply_local_channel,
    bell_project_swap,
    dephasing_kraus,
)
from xsteer.qstate import (
    BellIndex,
    InvalidStateError,
    XStateParams,
    _block_ok,
    bell_mixture,
    check_density,
    from_x_params,
    is_x_structured,
    random_x_state,
    x_params_from_density,
)
from xsteer.sweep import _x_params, figure_presets

SQ2 = math.sqrt(2.0)


class PauliAxis(Enum):
    """Labels for the rows of the joint table: the value is the row index."""

    X = 0
    Y = 1
    Z = 2

BELL_PSI = _projector(BellIndex.PSI_PLUS)
MAX_MIXED = np.eye(4, dtype=complex) / 4
NU_HALF = from_x_params(bell_mixture(0.5))
PURE_00 = np.diag([1.0, 0, 0, 0]).astype(complex)


# ---------------------------------------------------------------------------
# independent brute-force oracles (kept free of the implementation's linalg)
# ---------------------------------------------------------------------------

def _axis_kets(axis):
    """+1 and -1 eigenvectors of the Pauli axis 0, 1, 2 = x, y, z (the table rows)."""
    if axis == 2:
        return [np.array([1.0, 0.0], complex), np.array([0.0, 1.0], complex)]
    if axis == 0:
        return [np.array([1, 1], complex) / SQ2, np.array([1, -1], complex) / SQ2]
    return [np.array([1, 1j], complex) / SQ2, np.array([1, -1j], complex) / SQ2]


def _oracle_joint(rho, axis):
    kets = _axis_kets(axis)
    return [
        float(np.real(np.vdot(np.kron(a, b), rho @ np.kron(a, b))))
        for a in kets
        for b in kets
    ]


def _oracle_marginal(rho_a, axis):
    return [float(np.real(np.vdot(k, rho_a @ k))) for k in _axis_kets(axis)]


def _oracle_entropy(probs):
    return -sum(p * math.log(p) for p in probs if p > 0.0)


def _oracle_conditional_entropy(rho, axis):
    rho_a = partial_trace(rho, keep=(0,))
    joint, marginal = _oracle_joint(rho, axis), _oracle_marginal(rho_a, axis)
    return _oracle_entropy(joint) - _oracle_entropy(marginal)


def _marginal_table(rho):
    """Qubit A's outcome probabilities: each joint row summed over B's outcomes."""
    return joint_distribution(rho).reshape(3, 2, 2).sum(axis=-1)


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

def test_joint_distribution_bell_z():
    np.testing.assert_allclose(joint_distribution(BELL_PSI)[2], [0.5, 0, 0, 0.5], atol=1e-14)


@pytest.mark.parametrize("axis", list(PauliAxis))
def test_joint_distribution_maximally_mixed(axis):
    np.testing.assert_allclose(joint_distribution(MAX_MIXED)[axis.value], [0.25] * 4, atol=1e-14)


def test_joint_distribution_bell_y_anticorrelated():
    np.testing.assert_allclose(joint_distribution(BELL_PSI)[1], [0, 0.5, 0.5, 0], atol=1e-14)


@pytest.mark.parametrize("axis", list(PauliAxis))
def test_joint_distribution_matches_oracle(axis):
    for seed in range(30):
        rho = from_x_params(random_x_state(seed))
        np.testing.assert_allclose(
            joint_distribution(rho)[axis.value], _oracle_joint(rho, axis.value), atol=1e-12
        )


def test_joint_distribution_negative_probability():
    # a matrix with negative outcome probabilities is not a state: the one
    # positivity rule, check_density's, refuses it on every report entry point
    indefinite = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    for entry_point in (joint_distribution, conditional_entropy, full_report):
        with pytest.raises(InvalidStateError, match="not positive semidefinite"):
            entry_point(indefinite)


def test_joint_distribution_renormalises_an_entry_above_1():
    # the z row (1.2, 0.6, 0.2, 0) of the trace-2 diagonal is divided by its
    # sum, not clipped to 1 first, which would give (1, 0.6, 0.2, 0)/1.8;
    # joint_distribution itself refuses that matrix for its trace
    double = np.diag([1.2, 0.6, 0.2, 0.0]).astype(complex)
    with pytest.raises(InvalidStateError, match="unit trace"):
        joint_distribution(double)
    raw = (_PROJECTION @ double.reshape(16)).real.reshape(3, 4)
    table = _clean_probabilities(raw)
    assert table is raw
    np.testing.assert_allclose(table[2], [0.6, 0.3, 0.1, 0.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(table[:2], 0.25, rtol=0, atol=1e-15)
    assert table.max() <= 1.0


def test_marginal_distribution_cases():
    half = np.eye(2, dtype=complex) / 2
    ground = np.diag([1.0, 0.0]).astype(complex)
    np.testing.assert_allclose(_marginal_table(np.kron(half, ground)), 0.5, atol=1e-14)
    np.testing.assert_allclose(
        _marginal_table(np.kron(ground, half)), [[0.5, 0.5], [0.5, 0.5], [1, 0]], atol=1e-14
    )
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        rho_a = partial_trace(rho, keep=(0,))
        np.testing.assert_allclose(
            _marginal_table(rho), [_oracle_marginal(rho_a, axis) for axis in range(3)], atol=1e-12
        )


def test_conditional_entropies():
    # H(B|A) of each joint table, entries 2n and 2n + 1 sharing A's outcome n
    cases = [[1.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.5], [0.5, 0.5, 0.0, 0.0], [0.25] * 4]
    np.testing.assert_allclose(
        _conditional_entropies(np.array(cases)), [0, 0, LN2, LN2], rtol=0, atol=1e-15
    )
    assert _conditional_entropies(np.array(cases[:1]))[0] == 0.0
    rng = np.random.default_rng(7)
    table = rng.dirichlet(np.ones(4), size=50)
    table[rng.random(table.shape) < 0.3] = 0.0
    expected = [
        _oracle_entropy(row) - _oracle_entropy([row[0] + row[1], row[2] + row[3]]) for row in table
    ]
    np.testing.assert_allclose(_conditional_entropies(table), expected, rtol=0, atol=1e-15)
    # a (k, 4, n) batch gives the same values, one row per table
    batch = _conditional_entropies(table.reshape(2, 25, 4).transpose(0, 2, 1))
    np.testing.assert_allclose(batch.reshape(50), expected, rtol=0, atol=1e-15)


def test_conditional_entropy_cases():
    assert abs(conditional_entropy(BELL_PSI)[2]) < 1e-12
    assert abs(conditional_entropy(MAX_MIXED)[2] - LN2) < 1e-12
    assert abs(conditional_entropy(NU_HALF)[1] - LN2) < 1e-12


def test_conditional_entropy_range():
    for seed in range(100):
        rho = from_x_params(random_x_state(seed))
        for h in conditional_entropy(rho):
            assert -LN2 - 1e-12 <= h <= LN2 + 1e-12


# ---------------------------------------------------------------------------
# the closed form: t, u, the populations and the deficits g
# ---------------------------------------------------------------------------

def _t_u(p):
    """The x and y correlations t = 2(c14 + c23) and u = 2(c23 - c14) of an X state."""
    return 2.0 * (p.c14 + p.c23), 2.0 * (p.c23 - p.c14)


def _x_table(p):
    """The joint table of an X state from its correlations t, u and its populations.

    The x row is (1 + t, 1 - t, 1 - t, 1 + t)/4 in the columns (+,+), (+,-),
    (-,+), (-,-), the y row the same in u, the z row the populations.
    """
    rows = [np.array([1 + c, 1 - c, 1 - c, 1 + c]) / 4 for c in _t_u(p)]
    return np.array(rows + [astuple(p)[:4]])


def test_deficits_bell_values():
    p = bell_mixture(0.0)
    d, hz = _x_sides(p)
    np.testing.assert_allclose(_t_u(p), [1, -1], atol=1e-15)
    np.testing.assert_allclose(astuple(p)[:4], [0.5, 0, 0, 0.5], atol=1e-15)
    np.testing.assert_allclose(d, [LN2, LN2], atol=1e-15)
    assert abs(hz) < 1e-15


def test_deficits_maximally_mixed_and_nu_half():
    mixed = XStateParams(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
    d, hz = _x_sides(mixed)
    np.testing.assert_allclose(_t_u(mixed), [0, 0], atol=1e-15)
    np.testing.assert_allclose([*d, hz], [0, 0, LN2], atol=1e-15)
    # the nu = 0.5 state keeps only the x correlation
    d, hz = _x_sides(bell_mixture(0.5))
    np.testing.assert_allclose(_t_u(bell_mixture(0.5)), [1, 0], atol=1e-15)
    np.testing.assert_allclose([*d, hz], [LN2, 0, LN2], atol=1e-15)


def test_deficits_sign_structure_and_bounds():
    states = [random_x_state(seed) for seed in range(200)]
    d, hz = _x_sides(_batch(states))
    # one state at a time gives the batch's columns
    for i in (0, 99, 199):
        one_d, one_hz = _x_sides(states[i])
        np.testing.assert_allclose([*one_d, one_hz], [*d[:, i], hz[i]], rtol=0, atol=1e-15)
    # the deficits are g of t = 2(c14 + c23) and u = 2(c23 - c14)
    tu = np.array([_t_u(p) for p in states]).T
    np.testing.assert_array_equal(d, _g(tu))
    assert np.max(np.abs(tu)) <= 1 + 1e-12
    # the raw populations and A's raw z outcomes are probabilities
    populations = np.array([astuple(p)[:4] for p in states]).T
    outcomes = np.array([populations[0] + populations[1], populations[2:].sum(0)])
    assert np.all(populations >= 0.0) and np.all(populations <= 1.0)
    np.testing.assert_allclose(outcomes.sum(axis=0), 1.0, atol=1e-12)
    # deficits and entropies stay in [0, ln 2]
    for values in (d, hz):
        assert np.all(values >= -1e-15) and np.all(values <= LN2 + 1e-15)


def test_joint_probabilities_from_coefficients():
    # joint_distribution of the matrix is the table built from t, u and the
    # populations, and x_report's deficits are ln 2 - H_x and ln 2 - H_y of it
    for seed in range(50):
        p = random_x_state(seed)
        table = joint_distribution(from_x_params(p))
        np.testing.assert_allclose(table, _x_table(p), atol=1e-12)
        np.testing.assert_allclose(
            _x_sides(p)[0], LN2 - _conditional_entropies(table[:2]), rtol=0, atol=1e-12
        )


def test_marginals_from_coefficients():
    # A's x and y outcomes are uniform whatever t and u; its z outcomes are
    # d1 + d2 and d3 + d4
    for seed in range(50):
        p = random_x_state(seed)
        rho = from_x_params(p)
        rho_a = partial_trace(rho, keep=(0,))
        marginals = _marginal_table(rho)
        for axis in (0, 1):
            np.testing.assert_allclose(marginals[axis], [0.5, 0.5], atol=1e-12)
            np.testing.assert_allclose(marginals[axis], _oracle_marginal(rho_a, axis), atol=1e-12)
        np.testing.assert_allclose(marginals[2], [p.d1 + p.d2, p.d3 + p.d4], atol=1e-12)
        np.testing.assert_allclose(
            _x_table(p).reshape(3, 2, 2).sum(axis=-1), marginals, atol=1e-12
        )


def _both_g(t):
    """g at every entry of `t` through the array function and through its float twin."""
    t = np.asarray(t, dtype=float)
    return _g(t), np.array([_g_float(v) for v in t.tolist()])


def test_g_series_at_small_t():
    # g(t) = t^2/2 + t^4/12 + t^6/30 + ...; the next term is below 1e-16 relative here
    t = np.concatenate([np.logspace(-15, -2.5, 60), -np.logspace(-12, -3, 10)])
    series = t**2 / 2 + t**4 / 12 + t**6 / 30
    for got in _both_g(t):
        np.testing.assert_allclose(got, series, rtol=1e-15, atol=0)


def test_g_exact_values():
    half = 0.75 * math.log(1.5) - 0.25 * LN2
    for got in _both_g([0.0, -0.0, 1.0, -1.0, 1.0 + 1e-12, -1.0 - 1e-12, 0.5, -0.5]):
        assert got[0] == got[1] == 0.0
        assert np.all(got[2:6] == LN2)  # |t| is clamped to 1
        np.testing.assert_allclose(got[6:], half, rtol=1e-15, atol=0)


def test_g_both_sides_of_the_branch_switch():
    # atanh form below 1/2, pair form from 1/2 on; g'(t) = atanh(t) across the switch
    half = 0.75 * math.log(1.5) - 0.25 * LN2
    below, above = np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)
    t = np.array([below - 1e-12, below, 0.5, above, 0.5 + 1e-12])
    t = np.concatenate([t, -t])
    for got in _both_g(t):
        expected = half + math.atanh(0.5) * (np.abs(t) - 0.5)
        np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0)


def test_g_float_and_array_twins_agree():
    rng = np.random.default_rng(18)
    t = np.concatenate([
        rng.uniform(-1.0, 1.0, 2000), 1.0 - np.logspace(-16, -1, 60), np.logspace(-300, 0, 60),
        [0.0, 0.5, 1.0, 1.0 + 1e-9],
    ])
    array, floats = _both_g(t)
    np.testing.assert_allclose(floats, array, rtol=1e-15, atol=0)
    assert np.all(array >= 0.0) and np.all(array <= LN2)


def _table_deficit(t: np.ndarray) -> np.ndarray:
    """ln 2 - H(B|A) of the joint table (1 + t, 1 - t, 1 - t, 1 + t)/4 of each entry of `t`.

    The table is an X state's x table, or its y table in u, cleaned by
    `_clean_probabilities`: a negative 1 - |t| of a t just past 1 is set to 0
    and the table renormalised.
    """
    tables = np.empty((1, 4, t.size))
    np.add(1.0, t, out=tables[0, 0::3])
    np.subtract(1.0, t, out=tables[0, 1:3])
    tables *= 0.25
    return LN2 - _conditional_entropies(_clean_probabilities(tables))[0]


def test_g_matches_the_entropy_of_its_joint_table(tmp_path):
    # x_report reads D_x = g(t) and D_y = g(u) with no runtime check; the
    # joint table's entropy is the independent formula, held to 2e-15 per
    # deficit on every preset's t and u and on a dense set over [-1, 1]
    presets = []
    for cfg in figure_presets(tmp_path).values():
        t, u = _t_u(_x_params(cfg, cfg.grid()))
        presets += [np.broadcast_to(t, cfg.grid().shape), np.broadcast_to(u, cfg.grid().shape)]
    rng = np.random.default_rng(31)
    tiny = np.logspace(-300, 0, 20_000)
    dense = np.concatenate([
        rng.uniform(-1.0, 1.0, 200_000), tiny, 1.0 - tiny[tiny < 1.0],
        0.5 + rng.uniform(-1e-6, 1e-6, 2_000), [0.0, 0.5, 1.0, 1.0 - 1e-16],
    ])
    dense = np.concatenate([dense, -dense])
    for name, t in (("presets", np.concatenate(presets)), ("dense", dense)):
        gap = np.abs(_g(t) - _table_deficit(t))
        assert gap.max() <= 2e-15, (name, t[gap.argmax()], gap.max())


def test_steering_functional_values():
    assert abs(steering_functional(bell_mixture(0.0)) - SIX_LN2) < 1e-12
    assert abs(steering_functional(bell_mixture(0.5)) - TWO_LN2) < 1e-12
    assert abs(steering_functional(XStateParams(0.25, 0.25, 0.25, 0.25, 0, 0))) < 1e-12


def test_steering_functional_entropy_identity():
    for seed in range(500):
        p = random_x_state(seed)
        rho = from_x_params(p)
        total_h = conditional_entropy(rho).sum()
        assert abs(steering_functional(p) - (SIX_LN2 - 2.0 * total_h)) < 1e-9


def test_empty_batch_gives_empty_results():
    empty = XStateParams(*[np.empty(0)] * 6)
    assert x_report(empty).shape == (0, 5)
    assert steering_functional(empty).shape == (0,)


def test_neur_bound():
    # the threshold the code runs is the paper's bound, bit for bit 2 ln 2
    assert TWO_LN2 == neur_bound(2) == 2.0 * LN2
    assert abs(neur_bound(4) - (2 * LN2 + 3 * math.log(3))) < 1e-12
    assert abs(neur_bound(4) - 4.682131) < 1e-6
    assert abs(neur_bound(6) - (3 * math.log(3) + 4 * math.log(4))) < 1e-12
    assert abs(neur_bound(6) - 8.841014) < 1e-6
    for bad in (0, 1, 3, -2):
        with pytest.raises(ValueError):
            neur_bound(bad)


def _report(p):
    return full_report(from_x_params(p))


def test_one_way_steering_values():
    assert abs(_report(bell_mixture(0.0)).s - 1.0) < 1e-12
    assert abs(_report(bell_mixture(1.0)).s - 1.0) < 1e-12
    assert _report(bell_mixture(0.5)).s == 0.0
    assert _report(XStateParams(0.25, 0.25, 0.25, 0.25, 0, 0)).s == 0.0


def test_s_symmetric_in_nu():
    for nu in np.linspace(0.0, 1.0, 201):
        s1 = _report(bell_mixture(nu)).s
        s2 = _report(bell_mixture(1.0 - nu)).s
        assert abs(s1 - s2) < 1e-10


def test_base2_rescaling_leaves_s_invariant():
    # same formulas in bits: threshold 2, maximum 6
    def x_log2_x(values):
        return sum(v * math.log2(v) for v in values if v > 0)

    def s_base2(p):
        t, u = _t_u(p)
        deficits = 0.5 * x_log2_x([1.0 + t, 1.0 - t, 1.0 + u, 1.0 - u])
        h_z = x_log2_x([p.d1 + p.d2, p.d3 + p.d4]) - x_log2_x(astuple(p)[:4])
        total = 2.0 + 2.0 * (deficits - h_z)
        return max(0.0, (total - 2.0) / 4.0)

    for seed in range(100):
        p = random_x_state(seed)
        assert abs(_report(p).s - s_base2(p)) < 1e-12


# ---------------------------------------------------------------------------
# squeezing
# ---------------------------------------------------------------------------

def test_xi_values():
    for i in range(3):
        assert abs(full_report(BELL_PSI).xi[i] - 1.0) < 1e-12
        assert abs(full_report(MAX_MIXED).xi[i] - 2.0) < 1e-12
    assert abs(full_report(NU_HALF).xi[0] - 1.0) < 1e-12


def test_xi_range():
    for seed in range(100):
        for value in _report(random_x_state(seed)).xi:
            assert 0.5 - 1e-12 <= value <= 2.0 + 1e-12


def test_squeezing_factor_values():
    assert abs(full_report(BELL_PSI).e_x - 1.0) < 1e-12
    assert full_report(PURE_00).e_x == 0.0
    assert abs(full_report(NU_HALF).e_x - (SQ2 - 1.0)) < 1e-12


def test_squeezing_factor_range():
    cap = 2.0 * SQ2 - 0.5
    for seed in range(100):
        rep = _report(random_x_state(seed))
        for e in (rep.e_x, rep.e_y):
            assert 0.0 <= e <= cap + 1e-12


def test_steerability_z_values():
    assert abs(full_report(BELL_PSI).z - 1.0) < 1e-12
    assert abs(full_report(NU_HALF).z - (SQ2 - 1.0) / 2.0) < 1e-12
    assert full_report(PURE_00).z == 0.0


# ---------------------------------------------------------------------------
# aggregated report
# ---------------------------------------------------------------------------

def test_full_report_bell():
    rep = full_report(from_x_params(bell_mixture(0.0)))
    assert abs(rep.s - 1.0) < 1e-12
    assert abs(rep.z - 1.0) < 1e-12
    assert max(abs(h) for h in rep.h_cond) < 1e-12


def test_full_report_maximally_mixed():
    rep = full_report(MAX_MIXED)
    assert rep.s == 0.0
    assert rep.z == 0.0
    np.testing.assert_allclose(rep.h_cond, [LN2] * 3, atol=1e-12)


def test_full_report_quarter_mixture():
    rep = full_report(from_x_params(bell_mixture(0.25)))
    expected_s = (3 * math.log(3) - 4 * LN2) / (4 * LN2)
    assert abs(rep.s - expected_s) < 1e-12
    assert 0.0 < rep.s < 1.0
    assert 0.0 < rep.z < 1.0
    f_half = 1.5 * math.log(1.5) + 0.5 * math.log(0.5)
    xi_yz = 2.0 * math.exp(-f_half / 2.0)
    assert abs(rep.z - (2.0 / math.sqrt(xi_yz) - 1.0) / 2.0) < 1e-12


def test_full_report_invariants_on_random_states():
    for seed in range(300):
        rep = full_report(from_x_params(random_x_state(seed)))
        assert 0.0 <= rep.s <= 1.0 + 1e-12
        if rep.i_ab <= TWO_LN2:
            assert rep.s == 0.0
        if rep.e_x == 0.0 and rep.e_y == 0.0:
            assert rep.z == 0.0
        if abs(rep.i_ab - SIX_LN2) < 1e-9:
            assert abs(rep.s - 1.0) < 1e-9
        if abs(rep.s - 1.0) < 1e-12:
            assert abs(rep.i_ab - SIX_LN2) < 1e-9


def test_full_report_accepts_non_x_states():
    # product state with an off-axis single-qubit factor is not X structured
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    rho = np.kron(plus, np.diag([1.0, 0.0]).astype(complex))
    rep = full_report(rho)
    assert rep.s == 0.0  # separable states never steer
    # |0><0| x (I + 0.4 sigma_y)/2: the off-X entries are purely imaginary, so
    # the real part alone looks X structured but is a different state
    y_polarised = np.array([[0.5, -0.2j], [0.2j, 0.5]])
    for rho in (np.kron(np.diag([1.0, 0.0]), y_polarised), np.kron(y_polarised, plus)):
        rep = full_report(rho)
        h = [_oracle_conditional_entropy(rho, axis) for axis in range(3)]
        np.testing.assert_allclose(rep.h_cond, h, atol=1e-12)
        assert abs(rep.i_ab - (SIX_LN2 - 2.0 * sum(h))) < 1e-12
        assert rep.s < 1e-12  # at the threshold 2 ln 2, up to rounding


def test_full_report_accepts_complex_x_states():
    # complex coherences keep the X shape; the x and y statistics see only their real parts
    rng = np.random.default_rng(11)
    cases = [(np.diag([0.4, 0.1, 0.1, 0.4]).astype(complex), 0.3 * np.exp(0.7j), 0.0)]
    for seed in range(20):
        p = random_x_state(seed)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 2))
        diagonal = np.diag(astuple(p)[:4]).astype(complex)
        cases.append((diagonal, p.c14 * phases[0], p.c23 * phases[1]))
    for rho, c14, c23 in cases:
        rho[0, 3], rho[3, 0] = c14, np.conj(c14)
        rho[1, 2], rho[2, 1] = c23, np.conj(c23)
        rep = full_report(rho)
        h = [_oracle_conditional_entropy(rho, axis) for axis in range(3)]
        np.testing.assert_allclose(rep.h_cond, h, atol=1e-12)
        assert abs(rep.i_ab - (SIX_LN2 - 2.0 * sum(h))) < 1e-12


def test_full_report_reads_real_parts_of_imaginary_coherences():
    # an imaginary c14 keeps the X shape: the closed form reads the real parts
    # of the X entries, so the report is x_report's on them, and both paths
    # agree with the brute-force oracle
    rho = from_x_params(XStateParams(0.4, 0.1, 0.1, 0.4, 0.2, 0.05))
    rho[0, 3], rho[3, 0] = 0.2j, -0.2j
    rep = full_report(rho)
    real_parts = XStateParams(0.4, 0.1, 0.1, 0.4, 0.0, 0.05)
    np.testing.assert_allclose(
        [rep.s, rep.z, rep.e_x, rep.e_y, rep.i_ab], x_report(real_parts)[0], rtol=0, atol=1e-14
    )
    h = [_oracle_conditional_entropy(rho, axis) for axis in range(3)]
    np.testing.assert_allclose(rep.h_cond, h, rtol=0, atol=1e-14)
    assert abs(rep.i_ab - (SIX_LN2 - 2.0 * sum(h))) < 1e-14
    assert abs(rep.i_ab - steering_functional(real_parts)) < 1e-14


@pytest.mark.parametrize("dim", [2, 3, 8])
@pytest.mark.parametrize(
    "measure",
    [full_report, joint_distribution, conditional_entropy, x_params_from_density, is_x_structured],
)
def test_measures_reject_wrong_size_matrices(measure, dim):
    # a valid one-qubit, qutrit or three-qubit state is not a two-qubit state
    expected = rf"state must be of shape \(4, 4\), got shape \({dim}, {dim}\)"
    with pytest.raises(InvalidStateError, match=expected):
        measure(np.eye(dim, dtype=complex) / dim)


def test_full_report_projects_only_non_x_inputs(monkeypatch):
    import xsteer.measures as measures

    # an X input takes the closed form off its entries and never reaches
    # the projected tables' entropies; any other input is read only there
    def projected(*p):
        raise AssertionError("projected")

    monkeypatch.setattr(measures, "_axis_entropy", projected)
    for seed in range(20):
        full_report(from_x_params(random_x_state(seed)))
    for state in (BELL_PSI, MAX_MIXED, from_x_params(bell_mixture(0.3))):
        full_report(state)
    u = np.kron(np.array([[0.8, -0.6], [0.6, 0.8]]), np.eye(2))
    rotated = u @ from_x_params(random_x_state(0)) @ u.T
    assert not is_x_structured(rotated)
    with pytest.raises(AssertionError, match="projected"):
        full_report(rotated)


def test_full_report_keeps_zero_offsets_at_zero():
    # 1 - t = -2e-12 passes check_density; g clamps |t| to 1, and the matrix
    # path's clipped joint probability counts 0, where -2e-12 ln(tiny) would
    # move H_x by +1.4e-9
    rho = from_x_params(XStateParams(0.5, 0.0, 0.0, 0.5, 0.5 + 1e-12, 0.0))
    rep = full_report(rho)
    bell = full_report(from_x_params(bell_mixture(0.0)))
    assert abs(rep.s - bell.s) < 1e-11 and abs(rep.z - bell.z) < 1e-11
    np.testing.assert_allclose(rep.h_cond, conditional_entropy(rho), rtol=0, atol=1e-11)


def test_full_report_matches_per_quantity_functions():
    # the single x ln x pass against the public functions it fuses, on X
    # states and on copies rotated by R_y on qubit A, which are not X states
    rng = np.random.default_rng(2027)
    reports = []
    for seed in range(200):
        p = random_x_state(seed)
        rho = from_x_params(p)
        rep = full_report(rho)
        h = conditional_entropy(rho)
        np.testing.assert_allclose(rep.h_cond, h, rtol=0, atol=1e-14)
        # the entropy identity I_AB = 6 ln 2 - 2 (H_x + H_y + H_z)
        assert abs(rep.i_ab - (SIX_LN2 - 2.0 * h.sum())) <= 1e-14
        assert abs(rep.i_ab - steering_functional(p)) <= 1e-14
        half = rng.uniform(0.05, math.pi / 2.0 - 0.05)
        c, s = math.cos(half), math.sin(half)
        u = np.kron(np.array([[c, -s], [s, c]]), np.eye(2))
        rotated = u @ rho @ u.T
        assert not is_x_structured(rotated)
        rotated_rep = full_report(rotated)
        h = conditional_entropy(rotated)
        np.testing.assert_allclose(rotated_rep.h_cond, h, rtol=0, atol=1e-14)
        assert abs(rotated_rep.i_ab - (SIX_LN2 - 2.0 * h.sum())) <= 1e-14
        reports += [rep, rotated_rep]
    # full_report's float tail against the batched _derive that x_report runs,
    # fed the deficits D_i = ln 2 - H_i of the measured entropies,
    # also on a Bell state and on the maximally mixed state, a separable one
    # where both E clamps fire: 2/sqrt(Xi_z) = sqrt(2) is below Xi_x = Xi_y = 2
    bell, mixed = full_report(BELL_PSI), full_report(MAX_MIXED)
    assert abs(bell.s - 1.0) < 1e-12 and abs(bell.z - 1.0) < 1e-12
    assert all(2.0 / math.sqrt(mixed.xi[2]) < xi for xi in mixed.xi[:2])
    assert mixed.e_x == mixed.e_y == mixed.z == 0.0
    for rep in reports + [bell, mixed]:
        h = rep.h_cond
        _, s, (e_x, e_y), z = _derive(np.array([LN2 - h[0], LN2 - h[1]]), h[2])
        xi = np.exp(h)
        np.testing.assert_allclose(
            [rep.s, *rep.xi, rep.e_x, rep.e_y, rep.z], [s, *xi, e_x, e_y, z], rtol=0, atol=1e-15
        )


def test_full_report_float_pass_matches_x_report():
    # full_report's pass on Python floats against x_report's on arrays, on
    # 1,000 seeded X states and on the X states that the channels and Bell
    # swapping make of them
    rhos = [from_x_params(random_x_state(seed)) for seed in range(1000)]
    kraus_a, kraus_b = amplitude_damping_kraus(0.1, 2.0), dephasing_kraus(0.5, 3.0)
    damped = [apply_local_channel(rho, kraus_a, kraus_b) for rho in rhos[:200]]
    swapped = [
        bell_project_swap(rhos[i], rhos[i + 1], which) for i, which in zip(range(200), cycle(BellIndex))
    ]
    for states in (rhos, damped, swapped):
        got = [[r.s, r.z, r.e_x, r.e_y, r.i_ab] for r in map(full_report, states)]
        expected = x_report(_batch([x_params_from_density(rho) for rho in states]))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


def test_full_report_exact_edge_values():
    # the float pass keeps exact values exact: with the conditional form of
    # H_i, |00><00| has H_x = H_y = ln 2 to the bit, so Xi = 2 = 2/sqrt(Xi_z)
    for rho in (PURE_00, MAX_MIXED):
        rep = full_report(rho)
        assert rep.s == rep.e_x == rep.e_y == rep.z == 0.0
    bell = full_report(BELL_PSI)
    assert abs(bell.s - 1.0) < 1e-12 and abs(bell.z - 1.0) < 1e-12
    # at nu = 1/2 the closed form is exactly 2 ln 2, the threshold
    half = full_report(NU_HALF)
    assert half.i_ab == TWO_LN2 and half.s == 0.0


# A Bell-diagonal state on the positivity boundary: each coherence is the
# largest double whose square passes _block_ok, so validate and
# check_density accept it, and its raw outcome probability (1 - t)/4 is
# -1.000e-10 as x_report forms it, about -1e-10 on the matrix path: rounding
# noise, which no rule but theirs may refuse.
_AT_THE_FLOOR = XStateParams(
    0.31848084366072715, 0.18151915633927285, 0.18151915633927285, 0.31848084366072715,
    0.31848084376072716, 0.18151915643927283,
)


def test_full_report_negative_probability_floor():
    # the floor on a checked state's outcome probabilities is check_density's
    # eigenvalue floor and no other: the raw probabilities below 0 are
    # rounding noise, which joint_distribution sets to 0 and the closed
    # form never forms
    rho = from_x_params(_AT_THE_FLOOR)
    check_density(rho)
    assert 0.25 * (1.0 - 2.0 * (_AT_THE_FLOOR.c14 + _AT_THE_FLOOR.c23)) < -1e-10
    rep, row = full_report(rho), x_report(_AT_THE_FLOOR)[0]
    np.testing.assert_allclose([rep.s, rep.z, rep.e_x, rep.e_y, rep.i_ab], row, rtol=0, atol=1e-15)
    assert steering_functional(_AT_THE_FLOOR) == row[4]
    assert joint_distribution(rho).min() == 0.0
    assert full_report(MAX_MIXED).s == 0.0  # every probability is 1/4


def _largest_passing_coherence(da: float, db: float) -> float:
    """The largest double c whose c*c passes _block_ok for the block (d_a, d_b)."""
    c = math.sqrt(da * db + 1e-10 * (da + db + 1e-10))
    while _block_ok(c * c, da, db):
        c = math.nextafter(c, math.inf)
    while not _block_ok(c * c, da, db):
        c = math.nextafter(c, 0.0)
    return c


def _boundary_set(n: int = 20_000) -> XStateParams:
    """n Bell-diagonal states with both blocks on the positivity boundary, as one batch.

    Row k has populations (a, 1 - a, 1 - a, a)/2 for a drawn from
    default_rng(30), each coherence the largest one its block admits, and
    the signs (+, +) on even k, (+, -) on odd k.
    """
    a = np.random.default_rng(30).uniform(0.0, 1.0, n)
    outer, inner = a / 2.0, (1.0 - a) / 2.0
    c14 = np.array([_largest_passing_coherence(d, d) for d in outer.tolist()])
    c23 = np.array([_largest_passing_coherence(d, d) for d in inner.tolist()])
    c23[1::2] *= -1.0
    return XStateParams(outer, inner, inner, outer, c14, c23)


def test_boundary_states_pass_every_report_entry_point():
    # states at the edge of check_density's and validate's rule pass every
    # report entry point: no other rule refuses them, although 15,073 have
    # an outcome probability below -1e-10 as x_report forms it, and 8,036 on
    # the matrix path
    states = _boundary_set()
    states.validate()
    rows = x_report(states)
    assert rows.shape == (20_000, 5) and np.isfinite(rows).all()
    for k in range(0, 20_000, 10):
        p = XStateParams(*(float(v[k]) for v in vars(states).values()))
        rho = check_density(from_x_params(p))
        rep = full_report(rho)
        np.testing.assert_allclose(
            [rep.s, rep.z, rep.e_x, rep.e_y, rep.i_ab], rows[k], rtol=0, atol=1e-15
        )
        assert steering_functional(p) == rows[k, 4]
        assert np.isfinite(conditional_entropy(rho)).all()


def test_error_messages_print_plain_numbers():
    with pytest.raises(InvalidStateError) as parameters:
        XStateParams(np.array([0.5]), 0.1, 0.1, 0.5, 0.0, 0.0).validate()
    with pytest.raises(InvalidStateError) as matrix:
        check_density(np.eye(4, dtype=complex) / 2.0)
    for error, number in ((parameters, "1.2"), (matrix, "2.0")):
        message = str(error.value)
        assert number in message and "np." not in message, message
