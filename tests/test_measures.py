import math
from enum import Enum
from itertools import cycle

import numpy as np
import pytest
from conftest import _batch, _projector, partial_trace

from xsteer.measures import (
    LN2,
    SIX_LN2,
    TWO_LN2,
    NegativeProbabilityError,
    PathDisagreementError,
    _JOINT_ROWS,
    _MARGINAL_ROWS,
    _checked_i_ab,
    _derive,
    _g,
    _g_float,
    _x_sides,
    _x_terms,
    conditional_entropy,
    full_report,
    joint_distribution,
    neur_bound,
    shannon_entropy,
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
    bell_mixture,
    check_density,
    from_x_params,
    is_x_structured,
    random_x_state,
    x_params_from_density,
)

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
    indefinite = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    with pytest.raises(NegativeProbabilityError):
        joint_distribution(indefinite)


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


def test_shannon_entropy():
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert abs(shannon_entropy([0.5, 0.5]) - LN2) < 1e-15
    assert abs(shannon_entropy([0.25] * 4) - 2 * LN2) < 1e-15
    rng = np.random.default_rng(7)
    table = rng.dirichlet(np.ones(4), size=50)
    table[rng.random(table.shape) < 0.3] = 0.0
    np.testing.assert_allclose(
        shannon_entropy(table), [_oracle_entropy(row) for row in table], rtol=0, atol=1e-15
    )


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


def test_deficits_bell_values():
    tu, terms = _x_terms(bell_mixture(0.0))
    np.testing.assert_allclose(tu, [1, -1], atol=1e-15)
    np.testing.assert_allclose(terms[12:16], [0.5, 0, 0, 0.5], atol=1e-15)
    d, hz, _ = _x_sides(bell_mixture(0.0))
    np.testing.assert_allclose(d, [LN2, LN2], atol=1e-15)
    assert abs(hz) < 1e-15


def test_deficits_maximally_mixed_and_nu_half():
    mixed = XStateParams(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
    np.testing.assert_allclose(_x_terms(mixed)[0], [0, 0], atol=1e-15)
    d, hz, _ = _x_sides(mixed)
    np.testing.assert_allclose([*d, hz], [0, 0, LN2], atol=1e-15)
    # the nu = 0.5 state keeps only the x correlation
    np.testing.assert_allclose(_x_terms(bell_mixture(0.5))[0], [1, 0], atol=1e-15)
    d, hz, _ = _x_sides(bell_mixture(0.5))
    np.testing.assert_allclose([*d, hz], [LN2, 0, LN2], atol=1e-15)


def test_deficits_sign_structure_and_bounds():
    states = [random_x_state(seed) for seed in range(200)]
    tu, terms = _x_terms(_batch(states))
    d, hz, h = _x_sides(_batch(states))
    # one state at a time gives the batch's columns
    for i in (0, 99, 199):
        one_tu, one_terms = _x_terms(states[i])
        np.testing.assert_allclose(one_tu, tu[:, i], rtol=0, atol=1e-15)
        np.testing.assert_allclose(one_terms, terms[:, i], rtol=0, atol=1e-15)
        one_d, one_hz, one_h = _x_sides(states[i])
        np.testing.assert_allclose(
            [*one_d, one_hz, *one_h], [*d[:, i], hz[i], *h[:, i]], rtol=0, atol=1e-15
        )
    np.testing.assert_array_equal(tu, np.array([_t_u(p) for p in states]).T)
    assert np.max(np.abs(tu)) <= 1 + 1e-12
    # the raw populations and A's raw z outcomes are probabilities
    populations, outcomes = terms[12:16], terms[_MARGINAL_ROWS][6:]
    assert np.all(populations >= 0.0) and np.all(populations <= 1.0)
    np.testing.assert_allclose(outcomes, [populations[0] + populations[1], populations[2:].sum(0)])
    np.testing.assert_allclose(outcomes.sum(axis=0), 1.0, atol=1e-12)
    # deficits and entropies stay in [0, ln 2]
    for values in (d, hz, h):
        assert np.all(values >= -1e-15) and np.all(values <= LN2 + 1e-15)


def test_joint_probabilities_from_coefficients():
    # the x row is (1 + t, 1 - t, 1 - t, 1 + t)/4 in the columns (+,+), (+,-),
    # (-,+), (-,-), the y row the same in u, the z row the populations
    for seed in range(50):
        p = random_x_state(seed)
        table = joint_distribution(from_x_params(p))
        for row, c in zip((0, 1), _t_u(p)):
            expected = np.array([1 + c, 1 - c, 1 - c, 1 + c]) / 4
            np.testing.assert_allclose(table[row], expected, atol=1e-12)
        np.testing.assert_allclose(table[2], p.diagonal, atol=1e-12)
        np.testing.assert_allclose(_x_terms(p)[1][_JOINT_ROWS].reshape(3, 4), table, atol=1e-12)


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
            _x_terms(p)[1][_MARGINAL_ROWS].reshape(4, 2), [*marginals, marginals[2]], atol=1e-12
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
        h_z = x_log2_x([p.d1 + p.d2, p.d3 + p.d4]) - x_log2_x(p.diagonal)
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
        cases.append((np.diag(p.diagonal).astype(complex), p.c14 * phases[0], p.c23 * phases[1]))
    for rho, c14, c23 in cases:
        rho[0, 3], rho[3, 0] = c14, np.conj(c14)
        rho[1, 2], rho[2, 1] = c23, np.conj(c23)
        rep = full_report(rho)
        h = [_oracle_conditional_entropy(rho, axis) for axis in range(3)]
        np.testing.assert_allclose(rep.h_cond, h, atol=1e-12)
        assert abs(rep.i_ab - (SIX_LN2 - 2.0 * sum(h))) < 1e-12


def test_full_report_reads_real_parts_of_imaginary_coherences(monkeypatch):
    # an imaginary c14 keeps the X shape: the closed form gets the real parts
    # of the X entries, and both paths agree with the brute-force oracle
    import xsteer.measures as measures

    rho = from_x_params(XStateParams(0.4, 0.1, 0.1, 0.4, 0.2, 0.05))
    rho[0, 3], rho[3, 0] = 0.2j, -0.2j
    seen = []
    validate = XStateParams.validate
    monkeypatch.setattr(
        measures.XStateParams,
        "validate",
        lambda p, name="state": seen.append(p) or validate(p, name),
    )
    rep = full_report(rho)
    real_parts = XStateParams(0.4, 0.1, 0.1, 0.4, 0.0, 0.05)
    assert seen == [real_parts]
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


def test_full_report_path_disagreement_guard(monkeypatch):
    import xsteer.measures as measures

    # full_report reads the closed form's deficits off _g_float: with both 0
    # it gives I_AB = 2 ln 2 - 2 H_z, about 0.16, against about 1.72 from the
    # entropy identity
    monkeypatch.setattr(measures, "_g_float", lambda t: 0.0)
    with pytest.raises(PathDisagreementError):
        measures.full_report(from_x_params(bell_mixture(0.3)))


@pytest.mark.parametrize("side", ["closed form", "entropy identity"])
def test_either_side_of_the_path_check_off_by_2e_9_raises(monkeypatch, side):
    import xsteer.measures as measures

    # the closed form through its two deficits, 5e-10 each, the identity
    # through its three H_i; either moves its I_AB by 2e-9
    g, g_float, axis_entropy, x_sides = (
        measures._g, measures._g_float, measures._axis_entropy, measures._x_sides
    )

    def identity_shifted(p):
        d, hz, h = x_sides(p)
        return d, hz, h - 1e-9 / 3

    if side == "closed form":
        monkeypatch.setattr(measures, "_g", lambda t: g(t) + 5e-10)
        monkeypatch.setattr(measures, "_g_float", lambda t: g_float(t) + 5e-10)
    else:
        monkeypatch.setattr(measures, "_x_sides", identity_shifted)
        monkeypatch.setattr(measures, "_axis_entropy", lambda *p: axis_entropy(*p) - 1e-9 / 3)
    states = [random_x_state(seed) for seed in range(5)]
    with pytest.raises(PathDisagreementError):
        x_report(_batch(states))
    for p in states:
        with pytest.raises(PathDisagreementError):
            full_report(from_x_params(p))


def test_full_report_keeps_zero_offsets_at_zero():
    # 1 - t = -2e-12 passes check_density; g clamps |t| to 1 and the clipped
    # joint probability counts 0, where -2e-12 ln(tiny) = +1.4e-9 would trip
    # the 1e-9 path check
    rep = full_report(from_x_params(XStateParams(0.5, 0.0, 0.0, 0.5, 0.5 + 1e-12, 0.0)))
    bell = full_report(from_x_params(bell_mixture(0.0)))
    assert abs(rep.s - bell.s) < 1e-11 and abs(rep.z - bell.z) < 1e-11


def test_full_report_matches_per_quantity_functions():
    # the single x ln x pass against the public functions it fuses, on X
    # states and on copies rotated by R_y on qubit A, which are not X states
    rng = np.random.default_rng(2027)
    reports = []
    for seed in range(200):
        p = random_x_state(seed)
        rho = from_x_params(p)
        rep = full_report(rho)
        np.testing.assert_allclose(rep.h_cond, conditional_entropy(rho), rtol=0, atol=1e-14)
        assert abs(rep.i_ab - steering_functional(p)) <= 1e-14
        half = rng.uniform(0.05, math.pi / 2.0 - 0.05)
        c, s = math.cos(half), math.sin(half)
        u = np.kron(np.array([[c, -s], [s, c]]), np.eye(2))
        rotated = u @ rho @ u.T
        assert not is_x_structured(rotated)
        rotated_rep = full_report(rotated)
        np.testing.assert_allclose(
            rotated_rep.h_cond, conditional_entropy(rotated), rtol=0, atol=1e-14
        )
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


def test_full_report_negative_probability_floor(monkeypatch):
    import xsteer.measures as measures

    # the x outcomes (1 - t)/4 of the nu = 0.3 mixture are 0; full_report
    # reads the floor at call time, so raising it to 0.01 rejects the state
    rho = from_x_params(bell_mixture(0.3))
    full_report(rho)
    monkeypatch.setattr(measures, "NEGATIVE_PROBABILITY_TOL", 0.01)
    with pytest.raises(NegativeProbabilityError, match=r"raw probability .* below 1e-02"):
        full_report(rho)
    assert full_report(MAX_MIXED).s == 0.0  # every probability is 1/4


def test_error_messages_print_plain_numbers():
    h = conditional_entropy(from_x_params(bell_mixture(0.3)))
    with pytest.raises(PathDisagreementError) as closed_form:
        _checked_i_ab(np.float64(12.34), h)
    with pytest.raises(InvalidStateError) as parameters:
        XStateParams(np.array([0.5]), 0.1, 0.1, 0.5, 0.0, 0.0).validate()
    with pytest.raises(InvalidStateError) as matrix:
        check_density(np.eye(4, dtype=complex) / 2.0)
    for error, number in ((closed_form, "12.34"), (parameters, "1.2"), (matrix, "2.0")):
        message = str(error.value)
        assert number in message and "np." not in message, message
