import math
import warnings

import numpy as np
import pytest
from conftest import _batch, _projector, partial_trace

from xsteer.measures import full_report
from xsteer.processes import (
    ChannelParameterError,
    ZeroProbabilityOutcomeError,
    accelerate,
    accelerate_oracle,
    accelerated_params,
    ad_survival,
    amplitude_damping_kraus,
    apply_local_channel,
    bell_project_swap,
    completeness_defect,
    damped_params,
    dephased_params,
    dephasing_coherence,
    dephasing_kraus,
    swap_bell_mixtures,
    swapped_params,
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

R_MAX = math.pi / 4.0
INV_2SQ2 = 1.0 / (2.0 * math.sqrt(2.0))


def _row(batch: XStateParams, i: int) -> XStateParams:
    fields = (batch.d1, batch.d2, batch.d3, batch.d4, batch.c14, batch.c23)
    return XStateParams(*(float(v[i]) for v in fields))


def _random_density(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    # G G^dag / tr for a complex Gaussian G: full rank and, for dim 4, not X structured
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def _random_kraus(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    # the 2x2 blocks of a random (2 count) x 2 isometry V: sum K^dag K = V^dag V = 1
    g = rng.normal(size=(2 * count, 2)) + 1j * rng.normal(size=(2 * count, 2))
    v = np.linalg.qr(g)[0]
    return [v[2 * i:2 * i + 2] for i in range(count)]


# ---------------------------------------------------------------------------
# acceleration
# ---------------------------------------------------------------------------

def test_zero_acceleration_is_identity_on_mixture_family():
    for nu in np.linspace(0.0, 1.0, 11):
        np.testing.assert_allclose(
            accelerate(nu, 0.0, 0.0), from_x_params(bell_mixture(nu)), atol=1e-15
        )
    np.testing.assert_allclose(
        accelerate(1.0, 0.0, 0.0), _projector(BellIndex.PHI_PLUS), atol=1e-15
    )


def test_single_qubit_acceleration_coefficients():
    # accelerating one qubit of psi+ by r = pi/4
    p = accelerated_params(0.0, R_MAX, 0.0)
    np.testing.assert_allclose(p.diagonal, [0.25, 0.0, 0.25, 0.5], atol=1e-15)
    assert abs(p.c14 - INV_2SQ2) < 1e-15
    assert p.c23 == 0.0
    # and of phi+: same populations on the swapped slots
    q = accelerated_params(1.0, R_MAX, 0.0)
    np.testing.assert_allclose(q.diagonal, [0.0, 0.25, 0.5, 0.25], atol=1e-15)
    assert abs(q.c23 - INV_2SQ2) < 1e-15
    assert q.c14 == 0.0


def test_accelerated_populations_sum_to_one():
    for nu in np.linspace(0.0, 1.0, 5):
        for ra in np.linspace(0.0, R_MAX, 5):
            for rb in np.linspace(0.0, R_MAX, 5):
                p = accelerated_params(nu, ra, rb)
                assert abs(sum(p.diagonal) - 1.0) <= 1e-12


def test_accelerate_matches_oracle_on_grid():
    for nu in np.linspace(0.0, 1.0, 5):
        for ra in np.linspace(0.0, R_MAX, 5):
            for rb in np.linspace(0.0, R_MAX, 5):
                closed = accelerate(nu, ra, rb)
                brute = accelerate_oracle(nu, ra, rb)
                assert np.max(np.abs(closed - brute)) < 1e-10


def test_accelerate_oracle_specific_points():
    np.testing.assert_allclose(
        accelerate_oracle(1.0, 0.0, 0.0), _projector(BellIndex.PHI_PLUS), atol=1e-15
    )
    np.testing.assert_allclose(
        accelerate_oracle(0.0, R_MAX, 0.0), accelerate(0.0, R_MAX, 0.0), atol=1e-12
    )
    np.testing.assert_allclose(
        accelerate_oracle(0.3, 0.2, 0.5), accelerate(0.3, 0.2, 0.5), atol=1e-12
    )


def test_accelerate_rejects_out_of_range():
    with pytest.raises(InvalidStateError, match="nu"):
        accelerate(1.2, 0.1, 0.1)
    with pytest.raises(InvalidStateError, match="r_a"):
        accelerate(0.5, -0.1, 0.1)
    with pytest.raises(InvalidStateError, match="r_b"):
        accelerate(0.5, 0.1, 1.0)


def test_accelerated_state_is_valid_density():
    for nu, ra, rb in ((0.0, 0.3, 0.7), (0.5, R_MAX, R_MAX), (1.0, 0.1, 0.0)):
        check_density(accelerate(nu, ra, rb))


# ---------------------------------------------------------------------------
# amplitude damping
# ---------------------------------------------------------------------------

def test_ad_survival_at_zero_time():
    for r in (0.01, 0.1, 1.0, 1.9):
        assert ad_survival(r, 0.0) == 1.0


def test_ad_survival_matches_printed_formula():
    # for g/gamma = 0.1 the oscillation rate is sqrt(0.19) ~ 0.435890
    lam = math.sqrt(0.19)
    assert abs(lam - 0.435890) < 1e-6
    for tau in (0.7, 3.3, 10.0, 25.0):
        ref = math.exp(-0.1 * tau) * (
            math.cos(lam * tau / 2.0) + (0.1 / lam) * math.sin(lam * tau / 2.0)
        ) ** 2
        assert abs(ad_survival(0.1, tau) - ref) < 1e-14


def test_ad_survival_bounded_and_decaying():
    for r in (0.01, 0.1, 0.5):
        taus = np.linspace(0.0, 400.0, 2000)
        vals = [ad_survival(r, t) for t in taus]
        assert max(vals) <= 1.0
        assert min(vals) >= 0.0
    assert ad_survival(0.1, 600.0) < 1e-6


def test_ad_rejects_overdamped_rate():
    for r in (2.0, 2.5):
        with pytest.raises(ChannelParameterError, match="g/gamma"):
            ad_survival(r, 1.0)
    with pytest.raises(ChannelParameterError):
        amplitude_damping_kraus(-0.1, 1.0)
    with pytest.raises(ChannelParameterError):
        amplitude_damping_kraus(0.1, -1.0)


@pytest.mark.parametrize(
    "gamma_t",
    [1.7e308, np.float64(1.7e308), np.array([0.0, 1.7e308])],
    ids=["float", "np", "array"],
)
def test_channel_factors_overflow_to_their_limit_without_a_warning(gamma_t):
    # g/gamma * gamma*t past the largest double is inf, read as its limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        survival = ad_survival(1.5, gamma_t)
        coherence = dephasing_coherence(10.0, gamma_t)
    expected = [1.0, 0.0] if np.ndim(gamma_t) else 0.0
    np.testing.assert_array_equal(survival, expected)
    np.testing.assert_array_equal(coherence, expected)
    # with gamma*t = 2 the bracket tends to gamma*t, so P tends to e^-1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dephasing_coherence(np.float64(1.7e308), np.float64(2.0)) == np.exp(-1.0)


def test_ad_kraus_identity_at_zero_time():
    k1, k2 = amplitude_damping_kraus(0.1, 0.0)
    np.testing.assert_allclose(k1, np.eye(2), atol=0)
    np.testing.assert_allclose(k2, np.zeros((2, 2)), atol=0)


def test_ad_kraus_completeness():
    for r in (0.01, 0.1):
        for tau in np.linspace(0.0, 100.0, 100):
            assert completeness_defect(amplitude_damping_kraus(r, tau)) <= 1e-12


def test_ad_long_time_relaxes_to_ground():
    ops = amplitude_damping_kraus(0.1, 600.0)
    target = np.diag([1.0, 0, 0, 0]).astype(complex)
    for seed in range(5):
        rho = from_x_params(random_x_state(seed))
        out = apply_local_channel(rho, ops, ops)
        assert np.max(np.abs(out - target)) < 1e-3


# ---------------------------------------------------------------------------
# dephasing
# ---------------------------------------------------------------------------

def test_dephasing_coherence_values():
    assert dephasing_coherence(0.1, 0.0) == 1.0
    expected = math.exp(-0.5 * (1.0 + 10.0 * (math.exp(-0.1) - 1.0)))
    assert abs(dephasing_coherence(0.1, 1.0) - expected) < 1e-15
    assert abs(dephasing_coherence(0.1, 1.0) - 0.976104) < 1e-6
    assert dephasing_coherence(0.1, 500.0) < 1e-10
    # small g/gamma: the bracket tends to (g/gamma) tau^2 / 2
    for r in (1e-12, 1e-300, 1e-320, 5e-324):
        for tau in (0.5, 5.0, 40.0):
            assert abs(dephasing_coherence(r, tau) - math.exp(-r * tau * tau / 4.0)) < 1e-14


def test_dephasing_kraus_identity_at_zero_time():
    k1, k2 = dephasing_kraus(0.01, 0.0)
    np.testing.assert_allclose(k1, np.eye(2), atol=0)
    np.testing.assert_allclose(k2, np.zeros((2, 2)), atol=0)


def test_dephasing_kraus_completeness():
    for r in (0.01, 0.1):
        for tau in np.linspace(0.0, 100.0, 100):
            assert completeness_defect(dephasing_kraus(r, tau)) <= 1e-12


def test_dephasing_scales_coherences_quadratically():
    for tau in (0.5, 2.0, 7.0):
        p = dephasing_coherence(0.1, tau)
        ops = dephasing_kraus(0.1, tau)
        for seed in range(5):
            params = random_x_state(seed)
            out = apply_local_channel(from_x_params(params), ops, ops)
            got = x_params_from_density(out)
            np.testing.assert_allclose(got.diagonal, params.diagonal, atol=1e-14)
            assert abs(got.c14 - params.c14 * p * p) < 1e-14
            assert abs(got.c23 - params.c23 * p * p) < 1e-14


def test_channel_closed_forms_match_kraus_path():
    # damped_params and dephased_params against the Kraus operators applied
    # on both qubits, elementwise, for random states and channel parameters
    rng = np.random.default_rng(7)
    states = [random_x_state(seed) for seed in range(40)]
    ratios = np.concatenate(
        [[1e-12, 1.999999], np.exp(rng.uniform(math.log(1e-6), math.log(1.99), 38))]
    )
    times = rng.uniform(0.0, 100.0, 40)
    survival = ad_survival(0.1, times)
    coherence = dephasing_coherence(0.1, times)
    damped = damped_params(_batch(states), survival)
    dephased = dephased_params(_batch(states), coherence)
    for i, (params, ratio, tau) in enumerate(zip(states, ratios, times)):
        rho = from_x_params(params)
        for closed, ops in (
            (damped_params(params, ad_survival(ratio, tau)), amplitude_damping_kraus(ratio, tau)),
            (dephased_params(params, dephasing_coherence(ratio, tau)), dephasing_kraus(ratio, tau)),
            (_row(damped, i), amplitude_damping_kraus(0.1, tau)),
            (_row(dephased, i), dephasing_kraus(0.1, tau)),
        ):
            expected = apply_local_channel(rho, ops, ops)
            np.testing.assert_allclose(from_x_params(closed), expected, rtol=0, atol=1e-15)


def test_dephasing_kills_coherences_at_long_times():
    ops = dephasing_kraus(0.1, 500.0)
    params = bell_mixture(0.3)
    got = x_params_from_density(apply_local_channel(from_x_params(params), ops, ops))
    np.testing.assert_allclose(got.diagonal, params.diagonal, atol=1e-14)
    assert abs(got.c14) < 1e-12
    assert abs(got.c23) < 1e-12


# ---------------------------------------------------------------------------
# generic channel application
# ---------------------------------------------------------------------------

def test_identity_channel_leaves_state_unchanged():
    identity = [np.eye(2, dtype=complex)]
    rho = from_x_params(random_x_state(11))
    np.testing.assert_allclose(apply_local_channel(rho, identity, identity), rho, atol=0)


def test_full_damping_projects_everything_to_ground():
    ops = [
        np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
        np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    ]
    target = np.diag([1.0, 0, 0, 0]).astype(complex)
    for seed in range(10):
        rho = from_x_params(random_x_state(seed))
        np.testing.assert_allclose(apply_local_channel(rho, ops, ops), target, atol=1e-14)


def test_completeness_defect_matches_loop():
    rng = np.random.default_rng(3)
    for count in range(1, 5):
        exact = _random_kraus(rng, count)
        for ops in (exact, [k * 1.01 for k in exact], [k + 1e-6j for k in exact]):
            acc = np.zeros((2, 2), dtype=complex)
            for k in ops:
                acc += k.conj().T @ k
            expected = np.abs(acc - np.eye(2)).max()
            for given in (ops, np.stack(ops)):
                assert abs(completeness_defect(given) - expected) <= 1e-15


def test_apply_local_channel_matches_kron_loop():
    # 1 to 4 Kraus operators per side, cut from random isometries, on
    # full-rank non-X states, against sum_ij (K_i x K_j) rho (K_i x K_j)^dag
    rng = np.random.default_rng(4)
    for count_a in range(1, 5):
        for count_b in range(1, 5):
            kraus_a, kraus_b = _random_kraus(rng, count_a), _random_kraus(rng, count_b)
            rho = _random_density(rng)
            expected = np.zeros((4, 4), dtype=complex)
            for ka in kraus_a:
                for kb in kraus_b:
                    op = np.kron(ka, kb)
                    expected += op @ rho @ op.conj().T
            got = apply_local_channel(rho, kraus_a, kraus_b)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


def test_apply_local_channel_rejects_wrong_size_state():
    ops = amplitude_damping_kraus(0.5, 1.0)
    expected = r"rho0 must be of shape \(4, 4\), got shape \(8, 8\)"
    with pytest.raises(InvalidStateError, match=expected):
        apply_local_channel(np.eye(8, dtype=complex) / 8, ops, ops)


def test_apply_local_channel_rejects_incomplete_sets():
    broken = [np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex)]
    with pytest.raises(ChannelParameterError, match="trace preserving"):
        apply_local_channel(np.eye(4, dtype=complex) / 4, broken, broken)


@pytest.mark.parametrize("qubit", ["A", "B"])
@pytest.mark.parametrize(
    "broken, fragment",
    [
        # completeness_defect is nan for both; nan > tol is False, so a
        # plain `defect > tol` guard let an all-nan state through
        ([np.array([[math.inf, 0.0], [0.0, 1.0]], dtype=complex)], "is not trace preserving"),
        ([np.array([[1.0, 0.0], [0.0, math.nan]], dtype=complex)], "is not trace preserving"),
        ([], "has no Kraus operators"),
        # numpy cannot stack a 2x2 and a 3x3 operator into one array
        ([np.eye(2), np.eye(3)], "has Kraus operators that do not stack"),
        # complete sets that stack, but not into a list of qubit operators
        ([np.eye(3)], r"needs a list of 2x2 Kraus operators, got shape \(1, 3, 3\)"),
        ([np.eye(4) / math.sqrt(2.0)] * 2, "needs a list of 2x2 Kraus operators"),
        ([np.eye(3, 2)], "needs a list of 2x2 Kraus operators"),
        ([np.ones((1, 1))], "needs a list of 2x2 Kraus operators"),
        (np.eye(2), r"needs a list of 2x2 Kraus operators, got shape \(2, 2\)"),
    ],
    ids=[
        "inf", "nan", "empty", "ragged",
        "qutrit", "two-qubit", "qubit-to-qutrit", "one-dimensional", "bare-operator",
    ],
)
def test_apply_local_channel_rejects_non_finite_and_empty_sets(broken, fragment, qubit):
    ops = amplitude_damping_kraus(0.5, 1.0)
    kraus_a, kraus_b = (broken, ops) if qubit == "A" else (ops, broken)
    with pytest.raises(ChannelParameterError, match=f"channel on qubit {qubit} {fragment}"):
        apply_local_channel(np.eye(4, dtype=complex) / 4, kraus_a, kraus_b)


def test_completeness_defect_of_non_finite_operators_fails_every_tolerance():
    for bad in (math.inf, math.nan, -math.inf):
        for ops in ([[[bad, 0.0], [0.0, 1.0]]], [[[1.0, 0.0], [0.0, 1.0]], [[0.0, bad], [0.0, 0.0]]]):
            assert not completeness_defect(ops) <= 1e12
    # |c| of a finite complex past the largest double is inf, not an OverflowError
    assert completeness_defect([[[1e308 + 1e308j, 0.0], [0.0, 1.0]]]) == math.inf


def test_channel_outputs_stay_valid_x_states():
    for seed in range(20):
        rho = from_x_params(random_x_state(seed))
        for ops in (amplitude_damping_kraus(0.1, 3.0), dephasing_kraus(0.01, 5.0)):
            out = apply_local_channel(rho, ops, ops)
            check_density(out)
            assert is_x_structured(out)


# ---------------------------------------------------------------------------
# entanglement swapping
# ---------------------------------------------------------------------------

def _oracle_swap(rho12, rho34, ket23):
    # index-by-index projection onto the Bell vector on qubits 2 and 3,
    # then normalization; no Kronecker products involved
    out = np.zeros((4, 4), dtype=complex)
    for q1 in range(2):
        for q4 in range(2):
            for p1 in range(2):
                for p4 in range(2):
                    val = 0.0
                    for q2 in range(2):
                        for q3 in range(2):
                            for p2 in range(2):
                                for p3 in range(2):
                                    amp = np.conj(ket23[2 * q2 + q3]) * ket23[2 * p2 + p3]
                                    val += (
                                        amp
                                        * rho12[2 * q1 + q2, 2 * p1 + p2]
                                        * rho34[2 * q3 + q4, 2 * p3 + p4]
                                    )
                    out[2 * q1 + q4, 2 * p1 + p4] = val
    return out / np.trace(out)


def test_swap_of_psi_pairs_returns_psi():
    pair = from_x_params(bell_mixture(0.0))
    out = bell_project_swap(pair, pair, BellIndex.PSI_PLUS)
    np.testing.assert_allclose(out, _projector(BellIndex.PSI_PLUS), atol=1e-12)


def test_swap_of_phi_pairs_is_maximally_steerable():
    pair = from_x_params(bell_mixture(1.0))
    out = bell_project_swap(pair, pair, BellIndex.PSI_PLUS)
    # two phi+ pairs swap into a psi+ pair
    np.testing.assert_allclose(out, _projector(BellIndex.PSI_PLUS), atol=1e-12)
    assert abs(full_report(out).s - 1.0) < 1e-9


def test_swap_at_half_is_unsteerable():
    assert full_report(swap_bell_mixtures(0.5)).s == 0.0


def test_swap_closed_form_for_mixture_family():
    # swapping two nu mixtures through psi+ lands on the mixture at 2 nu (1 - nu)
    for nu in np.linspace(0.0, 1.0, 21):
        out = swap_bell_mixtures(nu)
        expected = from_x_params(bell_mixture(2.0 * nu * (1.0 - nu)))
        np.testing.assert_allclose(out, expected, atol=1e-12)


def test_swap_matches_bruteforce_oracle():
    for seed in range(10):
        rho12 = from_x_params(random_x_state(seed))
        rho34 = from_x_params(random_x_state(seed + 500))
        for which in BellIndex:
            expected = _oracle_swap(rho12, rho34, which.ket)
            got = bell_project_swap(rho12, rho34, which)
            np.testing.assert_allclose(got, expected, atol=1e-12)


def test_bell_project_swap_matches_kron_reference():
    # full-rank non-X inputs against the 16x16 route: project (1 x P x 1) on
    # rho12 x rho34, renormalize, trace out qubits 2 and 3
    rng = np.random.default_rng(5)
    eye = np.eye(2, dtype=complex)
    for _ in range(10):
        rho12, rho34 = _random_density(rng), _random_density(rng)
        for which in BellIndex:
            m = np.kron(np.kron(eye, _projector(which)), eye)
            projected = m @ np.kron(rho12, rho34) @ m.conj().T
            expected = partial_trace(projected / np.trace(projected).real, keep=(0, 3))
            got = bell_project_swap(rho12, rho34, which)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 8])
def test_bell_project_swap_rejects_wrong_size_states(dim):
    good = from_x_params(bell_mixture(0.3))
    wrong = np.eye(dim, dtype=complex) / dim
    for rho12, rho34, name in ((wrong, good, "rho12"), (good, wrong, "rho34")):
        expected = rf"{name} must be of shape \(4, 4\), got shape \({dim}, {dim}\)"
        with pytest.raises(InvalidStateError, match=expected):
            bell_project_swap(rho12, rho34, BellIndex.PSI_PLUS)


def test_swapped_params_match_bell_project_swap():
    # the closed-form swap of two X states against the matrix path,
    # elementwise, for all four outcomes, one pair at a time and as a batch
    firsts = [random_x_state(2 * seed) for seed in range(200)]
    seconds = [random_x_state(2 * seed + 1) for seed in range(200)]
    for which in BellIndex:
        batch = swapped_params(_batch(firsts), _batch(seconds), which)
        for i, (p12, p34) in enumerate(zip(firsts, seconds)):
            expected = bell_project_swap(from_x_params(p12), from_x_params(p34), which)
            for closed in (swapped_params(p12, p34, which), _row(batch, i)):
                np.testing.assert_allclose(from_x_params(closed), expected, rtol=0, atol=1e-12)


def test_swap_outputs_valid_for_all_outcomes():
    for nu in np.linspace(0.0, 1.0, 9):
        pair = from_x_params(bell_mixture(nu))
        for which in BellIndex:
            out = bell_project_swap(pair, pair, which)
            check_density(out)


def test_swap_zero_probability_outcome_rejected():
    ground = np.diag([1.0, 0, 0, 0]).astype(complex)
    with pytest.raises(ZeroProbabilityOutcomeError):
        bell_project_swap(ground, ground, BellIndex.PHI_PLUS)
    with pytest.raises(ZeroProbabilityOutcomeError):
        swapped_params(x_params_from_density(ground), x_params_from_density(ground),
                       BellIndex.PHI_PLUS)


@pytest.mark.parametrize("which", ["phi", None], ids=["value-string", "none"])
def test_swap_rejects_which_that_is_not_a_bell_index(which):
    # "phi" is PHI_PLUS's value, yet swapped_params used to take it for the
    # psi+ outcome and bell_project_swap raised a bare KeyError
    expected = (
        r"which must be one of BellIndex.PSI_PLUS, BellIndex.PHI_PLUS, "
        rf"BellIndex.PSI_MINUS, BellIndex.PHI_MINUS, got {which!r}"
    )
    p = bell_mixture(0.3)
    with pytest.raises(ValueError, match=expected):
        swapped_params(p, p, which)
    with pytest.raises(ValueError, match=expected):
        bell_project_swap(from_x_params(p), from_x_params(p), which)
