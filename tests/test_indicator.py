"""Does the squeezing average Z indicate the steering degree S?

One `x_report` pass over three sets of X states: 10^5 random states drawn as
`random_x_state` draws them, every steerable one of those with its
coherences scaled down onto the threshold I_AB = 2 ln 2 (approached from
above, where Z is smallest), and a grid over the Bell-diagonal states.
The bundled presets add the sweeps' rows.
"""

import numpy as np

from xsteer.measures import (
    LN2,
    TWO_LN2,
    _g_float,
    _x_sides,
    full_report,
    steering_functional,
    x_report,
)
from xsteer.qstate import XStateParams, bell_mixture, from_x_params
from xsteer.sweep import _x_params, evaluate_grid, figure_presets

# (sqrt 2 - 1)/2 correctly rounded; (math.sqrt(2) - 1)/2 rounds to ...757 and
# 1/math.sqrt(2) - 0.5 to ...746.  With S = 0, D_x + D_y <= H_z, so at most one
# E is positive, its deficit is at most H_z, and Z <= e^(-H_z/2) - e^(-H_z),
# which increases on [0, ln 2] to 1/sqrt(2) - 1/2 at H_z = ln 2.
Z_BOUND = 0.20710678118654752


def _random_x_states(rng: np.random.Generator, n: int) -> np.ndarray:
    # random_x_state's construction, one row (d1, d2, d3, d4, c14, c23) per state
    raw = rng.random((n, 4)) + 1e-9
    d = raw / raw.sum(axis=1, keepdims=True)
    c14 = rng.uniform(-1.0, 1.0, n) * np.sqrt(d[:, 0] * d[:, 3])
    c23 = rng.uniform(-1.0, 1.0, n) * np.sqrt(d[:, 1] * d[:, 2])
    return np.column_stack([d, c14, c23])


def _scaled(rows: np.ndarray, scale: np.ndarray) -> XStateParams:
    return XStateParams(*rows[:, :4].T, rows[:, 4] * scale, rows[:, 5] * scale)


def _onto_threshold(rows: np.ndarray) -> np.ndarray:
    # Bisect a coherence scale in [0, 1] per row.  At scale 1 a row steers;
    # at 0 it is diagonal, where H_x = H_y = ln 2 leaves I_AB = 2 ln 2 - 2 H_z
    # <= 2 ln 2.  The upper end keeps I_AB above the threshold throughout.
    lo, hi = np.zeros(len(rows)), np.ones(len(rows))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = steering_functional(_scaled(rows, mid)) > TWO_LN2
        hi, lo = np.where(above, mid, hi), np.where(above, lo, mid)
    out = rows.copy()
    out[:, 4:] *= hi[:, None]
    return out


def _bell_diagonal(k: int = 40) -> np.ndarray:
    # weights w of psi+, psi-, phi+, phi- on a simplex grid of step 1/k
    w = np.array(
        [(a, b, c, k - a - b - c) for a in range(k + 1)
         for b in range(k + 1 - a) for c in range(k + 1 - a - b)]
    ) / k
    outer, inner = (w[:, 0] + w[:, 1]) / 2, (w[:, 2] + w[:, 3]) / 2
    c14, c23 = (w[:, 0] - w[:, 1]) / 2, (w[:, 2] - w[:, 3]) / 2
    return np.column_stack([outer, inner, inner, outer, c14, c23])


def _concurrence(rows: np.ndarray) -> np.ndarray:
    # Yu and Eberly: 2 max(0, |c14| - sqrt(d2 d3), |c23| - sqrt(d1 d4))
    d, c14, c23 = rows[:, :4], np.abs(rows[:, 4]), np.abs(rows[:, 5])
    return 2.0 * np.maximum(
        0.0, np.maximum(c14 - np.sqrt(d[:, 1] * d[:, 2]), c23 - np.sqrt(d[:, 0] * d[:, 3]))
    )


def test_steering_implies_squeezing_but_not_conversely():
    rng = np.random.default_rng(2026)
    random_rows = _random_x_states(rng, 100_000)
    steerable = random_rows[x_report(XStateParams(*random_rows.T))[:, 0] > 0.0]
    sets = [random_rows, _onto_threshold(steerable), _bell_diagonal()]
    rows = np.concatenate(sets)
    report = x_report(XStateParams(*rows.T))
    s, z = report[:, 0], report[:, 1]
    concurrence = _concurrence(rows)
    threshold = slice(len(sets[0]), len(sets[0]) + len(sets[1]))

    assert len(steerable) > 1000
    # S > 0 implies Z > 0, on every set, right down to the threshold
    assert np.all(z[s > 0.0] > 0.0)
    assert np.all(s[threshold] > 0.0)
    assert np.all(s[threshold] < 1e-12)
    assert np.all(z[threshold] > 0.0)
    # steering implies entanglement: no steerable state has zero concurrence
    assert np.all(concurrence[s > 0.0] > 0.0)
    # The converse fails: Z > 0 with S = 0, even on separable states.
    unsteered = (z > 0.0) & (s == 0.0)
    assert np.count_nonzero(unsteered[: len(sets[0])]) > len(steerable)
    assert np.any(unsteered & (concurrence == 0.0))
    # On the Bell-diagonal grid too; the largest gap, (sqrt 2 - 1)/2, is the
    # separable midpoint of the psi+ / phi+ mixture.
    bell = slice(threshold.stop, None)
    assert np.any(unsteered[bell])
    assert abs(np.max(z[bell] - s[bell]) - (np.sqrt(2.0) - 1.0) / 2.0) < 1e-12
    # Z above (sqrt 2 - 1)/2 certifies steering: no S = 0 row passes it, and
    # the Bell-diagonal grid reaches it
    assert np.all(z[s == 0.0] <= Z_BOUND)
    assert np.max(z[bell][s[bell] == 0.0]) == Z_BOUND


def test_steering_forces_a_deficit_above_half_h_z():
    # S > 0 means D_x + D_y > H_z, so one deficit exceeds H_z / 2, which is
    # the sign of its E
    rows = _random_x_states(np.random.default_rng(18), 20_000)
    states = XStateParams(*rows.T)
    report = x_report(states)
    d, hz = _x_sides(states)
    steering = report[:, 0] > 0.0
    assert np.count_nonzero(steering) > 100
    assert np.all(np.max(d, axis=0)[steering] > 0.5 * hz[steering])
    assert np.all(report[steering, 1] > 0.0)


def test_no_preset_row_steers_without_squeezing(tmp_path):
    for name, cfg in figure_presets(tmp_path).items():
        table = evaluate_grid(cfg, cfg.grid())
        s, z = table[:, 1], table[:, 2]
        assert not np.any((s > 0.0) & (z == 0.0)), name
        assert np.all(z[s == 0.0] <= Z_BOUND), name


def test_z_reaches_its_bound_at_nu_half():
    # equality needs H_z = ln 2 with deficits ln 2 and 0: the nu = 1/2 mixture
    half = bell_mixture(0.5)
    assert x_report(half)[0, :2].tolist() == [0.0, Z_BOUND]
    rep = full_report(from_x_params(half))
    assert (rep.s, rep.z) == (0.0, Z_BOUND)


def test_s_and_z_vanish_together_where_t_and_u_agree_in_size(tmp_path):
    # |t| = |u| gives D_x = D_y = D: S > 0 means 2 D > H_z and Z > 0 means
    # D > H_z / 2, one condition.  The presets are selected by their rows.
    agreeing = []
    for name, cfg in figure_presets(tmp_path).items():
        grid = cfg.grid()
        p = _x_params(cfg, grid)
        t, u = np.broadcast_arrays(2.0 * (p.c14 + p.c23), 2.0 * (p.c23 - p.c14), grid)[:2]
        if np.array_equal(np.abs(t), np.abs(u)):
            agreeing.append(name)
            table = evaluate_grid(cfg, grid)
            np.testing.assert_array_equal(table[:, 1] > 0.0, table[:, 2] > 0.0, err_msg=name)
    assert agreeing == [
        "accel-single", "accel-joint", "ad-slow", "ad-fast", "dephasing-slow", "dephasing-fast"
    ]


def test_steering_in_closed_form_for_the_mixture_and_swap_presets(tmp_path):
    # the nu mixture has t = 1 and u = 2 nu - 1, so D_x = ln 2 and H_z =
    # ln 2 - g(2 nu - 1): S = g(2 nu - 1) / ln 2; swapping two copies
    # through psi+ leaves t = 1 and u = -(2 nu - 1)^2: S = g((2 nu - 1)^2) / ln 2
    presets = figure_presets(tmp_path)
    for name, power in (("mixture", 1), ("swap", 2)):
        cfg = presets[name]
        table = evaluate_grid(cfg, cfg.grid())
        nu, s = table[:, 0].tolist(), table[:, 1].tolist()
        for v, got in zip(nu, s):
            assert abs(got - _g_float((2.0 * v - 1.0) ** power) / LN2) <= 1e-14, (name, v)
        row = dict(zip(nu, s))
        assert (row[0.0], row[1.0], row[0.5]) == (1.0, 1.0, 0.0), name


def test_z_bound_holds_for_non_x_states():
    # Z above (sqrt 2 - 1)/2 certifies steering for any two-qubit state, not
    # only X states: Ginibre matrices G G^dag of rank 1 to 4, normalised
    rng = np.random.default_rng(11)
    reports = []
    for _ in range(20_000):
        rank = int(rng.integers(1, 5))
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        report = full_report(rho)
        reports.append((report.s, report.z))
    s, z = np.array(reports).T
    assert np.count_nonzero(s == 0.0) > 15_000
    assert np.all(z[s == 0.0] <= Z_BOUND)
