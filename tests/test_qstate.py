import math

import numpy as np
import pytest

from xsteer.measures import full_report, steering_functional, x_coefficients
from xsteer.processes import bell_project_swap
from xsteer.qstate import (
    DOMAINS,
    BellIndex,
    Domain,
    InvalidStateError,
    XStateParams,
    bell_mixture,
    check_density,
    from_x_params,
    is_x_structured,
    partial_trace,
    random_x_state,
    tensor,
    x_params_from_density,
)

SQ2 = math.sqrt(2.0)


def test_from_x_params_pure_basis_state():
    rho = from_x_params(XStateParams(1, 0, 0, 0, 0, 0))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho, expected, atol=0)


def test_from_x_params_bell_psi():
    # (d1,d4) = 1/2 with c14 = 1/2 is exactly (|00> + |11>)/sqrt(2)
    rho = from_x_params(XStateParams(0.5, 0, 0, 0.5, c14=0.5, c23=0))
    np.testing.assert_allclose(rho, BellIndex.PSI_PLUS.projector, atol=1e-15)


def test_from_x_params_nu_half_mixture():
    # hand expansion of (phi+ + psi+)/2: uniform diagonal, both coherences 1/4
    rho = from_x_params(bell_mixture(0.5))
    expected = 0.5 * BellIndex.PHI_PLUS.projector + 0.5 * BellIndex.PSI_PLUS.projector
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_from_x_params_entry_positions():
    p = random_x_state(7)
    rho = from_x_params(p)
    assert rho[0, 0] == p.d1 and rho[1, 1] == p.d2
    assert rho[2, 2] == p.d3 and rho[3, 3] == p.d4
    assert rho[0, 3] == rho[3, 0] == p.c14
    assert rho[1, 2] == rho[2, 1] == p.c23
    zero_mask = np.ones((4, 4), dtype=bool)
    for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)):
        zero_mask[i, j] = False
    assert np.all(rho[zero_mask] == 0)


@pytest.mark.parametrize(
    "params, fragment",
    [
        (XStateParams(0.5, 0.5, 0.5, 0.5, 0, 0), "sum to 1"),
        (XStateParams(-0.1, 0.4, 0.4, 0.3, 0, 0), "d1"),
        (XStateParams(0.5, 0.0, 0.0, 0.5, 0.6, 0.0), "c14"),
        (XStateParams(0.25, 0.25, 0.25, 0.25, 0.0, 0.3), "c23"),
        # c14^2 = 1e-12 is within the 1e-12 coherence slack, but the outer
        # block's smaller eigenvalue is -1e-6
        (XStateParams(0.0, 0.5, 0.5, 0.0, 1e-6, 0.0), "min eigenvalue"),
        # both blocks pass; the populations leave [0, 1]
        (XStateParams(1.2, -0.1, -0.1, 0.0, 0.0, 0.0), "d1 must lie in"),
    ],
)
def test_from_x_params_rejects_invalid(params, fragment):
    for entry in (from_x_params, x_coefficients, steering_functional):
        with pytest.raises(InvalidStateError, match=fragment):
            entry(params)


def test_bell_mixture_cases():
    assert bell_mixture(0.0) == XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
    assert bell_mixture(1.0) == XStateParams(0.0, 0.5, 0.5, 0.0, 0.0, 0.5)
    assert bell_mixture(0.5) == XStateParams(0.25, 0.25, 0.25, 0.25, 0.25, 0.25)


@pytest.mark.parametrize("nu", [-0.01, 1.01, 7.0])
def test_bell_mixture_out_of_range(nu):
    with pytest.raises(InvalidStateError):
        bell_mixture(nu)


def test_bell_states_conventions():
    assert len(BellIndex) == 4
    psi = BellIndex.PSI_PLUS.ket
    phi = BellIndex.PHI_PLUS.ket
    np.testing.assert_allclose(psi, np.array([1, 0, 0, 1]) / SQ2, atol=1e-15)
    np.testing.assert_allclose(phi, np.array([0, 1, 1, 0]) / SQ2, atol=1e-15)
    for b in BellIndex:
        assert abs(np.linalg.norm(b.ket) - 1.0) < 1e-15


def test_partial_trace_b_product_state():
    rho = from_x_params(XStateParams(1, 0, 0, 0, 0, 0))  # |00><00|
    np.testing.assert_allclose(partial_trace(rho, keep=(0,)), np.diag([1.0, 0.0]), atol=1e-15)


def test_partial_trace_b_bell_mixture_is_maximally_mixed():
    for nu in np.linspace(0, 1, 7):
        red = partial_trace(from_x_params(bell_mixture(nu)), keep=(0,))
        np.testing.assert_allclose(red, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_b_diagonal_pairs():
    rho = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
    np.testing.assert_allclose(partial_trace(rho, keep=(0,)), np.diag([0.5, 0.5]), atol=1e-15)


def test_partial_trace_of_product_recovers_factor():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = _random_single_qubit(rng)
        b = _random_single_qubit(rng)
        np.testing.assert_allclose(partial_trace(np.kron(a, b), keep=(0,)), a, atol=1e-14)
        np.testing.assert_allclose(partial_trace(np.kron(a, b), keep=(1,)), b, atol=1e-14)


def _random_single_qubit(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def test_tensor_identities():
    i4 = np.eye(4) / 4
    np.testing.assert_allclose(tensor(i4, i4), np.eye(16) / 16, atol=1e-15)
    p00 = from_x_params(XStateParams(1, 0, 0, 0, 0, 0))
    prod = tensor(p00, p00)
    expected = np.zeros((16, 16))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(prod, expected, atol=1e-15)


def test_tensor_trace_multiplicative():
    for seed in range(10):
        a = from_x_params(random_x_state(seed))
        b = from_x_params(random_x_state(seed + 1000))
        assert abs(np.trace(tensor(a, b)) - 1.0) < 1e-12


def test_random_x_state_deterministic():
    assert random_x_state(42) == random_x_state(42)
    assert random_x_state(42) != random_x_state(43)


def test_random_x_state_always_valid():
    for seed in range(1000):
        rho = from_x_params(random_x_state(seed))  # raises if invalid
        assert float(np.min(np.linalg.eigvalsh(rho))) >= -1e-10


def test_block_eigenvalues_match_dense_solver():
    # X-state spectrum is the union of the spectra of the two 2x2 blocks
    for seed in range(200):
        p = random_x_state(seed)
        outer = [
            (p.d1 + p.d4) / 2 + math.sqrt((p.d1 - p.d4) ** 2 / 4 + p.c14 ** 2),
            (p.d1 + p.d4) / 2 - math.sqrt((p.d1 - p.d4) ** 2 / 4 + p.c14 ** 2),
        ]
        inner = [
            (p.d2 + p.d3) / 2 + math.sqrt((p.d2 - p.d3) ** 2 / 4 + p.c23 ** 2),
            (p.d2 + p.d3) / 2 - math.sqrt((p.d2 - p.d3) ** 2 / 4 + p.c23 ** 2),
        ]
        closed = np.sort(outer + inner)
        dense = np.sort(np.linalg.eigvalsh(from_x_params(p)))
        np.testing.assert_allclose(closed, dense, atol=1e-10)


def test_x_params_roundtrip_is_identity():
    for seed in range(50):
        p = random_x_state(seed)
        assert x_params_from_density(from_x_params(p)) == p


def test_x_params_from_density_rejects_non_x():
    rho = np.full((4, 4), 0.25, dtype=complex)
    with pytest.raises(InvalidStateError, match="X structured"):
        x_params_from_density(rho)
    assert not is_x_structured(rho)
    # the structure is read off the complex matrix, not its real part
    rho = np.kron(np.diag([1.0, 0.0]), np.array([[0.5, -0.2j], [0.2j, 0.5]]))
    for real_parts in (False, True):
        with pytest.raises(InvalidStateError, match="X structured"):
            x_params_from_density(rho, real_parts=real_parts)


def test_x_params_from_density_imaginary_coherences():
    rho = from_x_params(XStateParams(0.4, 0.1, 0.1, 0.4, 0.2, 0.05))
    rho[0, 3], rho[3, 0] = 0.2j, -0.2j
    with pytest.raises(InvalidStateError, match="imaginary"):
        x_params_from_density(rho)
    assert x_params_from_density(rho, real_parts=True) == XStateParams(0.4, 0.1, 0.1, 0.4, 0.0, 0.05)


def test_check_density_rejects_bad_operators():
    good = from_x_params(bell_mixture(0.3))
    check_density(good)
    with pytest.raises(InvalidStateError, match="Hermitian"):
        bad = good.copy()
        bad[0, 1] = 0.1
        check_density(bad)
    with pytest.raises(InvalidStateError, match="trace"):
        check_density(2.0 * good)
    with pytest.raises(InvalidStateError, match="positive semidefinite"):
        check_density(np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex))
    # nan passes no comparison: the first has unit trace apart from its nan
    # entries, and eigvalsh raises LinAlgError on the second
    for bad in (np.diag([math.nan, 0.5, 0.5, math.nan]), np.full((4, 4), math.nan)):
        for call in (
            lambda: check_density(bad),
            lambda: full_report(bad),
            lambda: bell_project_swap(bad, good, BellIndex.PSI_PLUS),
        ):
            with pytest.raises(InvalidStateError, match="finite Hermitian"):
                call()


def _x_matrix(p: XStateParams) -> np.ndarray:
    # like from_x_params, but without validating the parameters
    rho = np.diag(np.array(p.diagonal, dtype=complex))
    rho[0, 3] = rho[3, 0] = p.c14
    rho[1, 2] = rho[2, 1] = p.c23
    return rho


def _batch(rows: list[XStateParams]) -> XStateParams:
    return XStateParams(*np.array([(p.d1, p.d2, p.d3, p.d4, p.c14, p.c23) for p in rows]).T)


# c14^2 exceeds d1*d4 by 5e-13, inside the 1e-12 slack, but the smaller
# outer eigenvalue is about -5e-10, below the eigenvalue floor.
_NEGATIVE_EIGENVALUE = XStateParams(
    0.0005, 0.4995, 0.4995, 0.0005, math.sqrt(0.0005**2 + 5e-13), 0.0
)


@pytest.mark.parametrize(
    "params, fragment",
    [
        (bell_mixture(0.3), None),
        (random_x_state(4), None),
        (XStateParams(0.5, 0.25, 0.25, 1e-9, 0.0, 0.0), "trace"),
        (XStateParams(0.7, 0.5, -0.1, -0.1, 0.0, 0.0), "positive semidefinite"),
        (_NEGATIVE_EIGENVALUE, "positive semidefinite"),
    ],
)
def test_check_x_density_agrees_with_matrix_check(params, fragment):
    """The X-parameter check, `validate`, agrees with `check_density` on the matrix."""
    rho = _x_matrix(params)
    if fragment is None:
        check_density(rho)
        assert params.validate() is params
        return
    for check, arg in ((check_density, rho), (XStateParams.validate, params)):
        with pytest.raises(InvalidStateError, match=fragment):
            check(arg)


def _separate_block_rules(da, db, c):
    """The two block rules `validate` merges, each in its own closed form.

    The coherence bound c^2 <= d_a d_b + 1e-12, and `check_density`'s floor
    on the smaller block eigenvalue.
    """
    coherence_rule = c * c <= da * db + 1e-12
    eigenvalue_rule = 0.5 * (da + db) - np.hypot(0.5 * (da - db), c) >= -1e-10
    return coherence_rule & eigenvalue_rule


def test_block_rule_accepts_what_both_separate_rules_accept():
    # Blocks with d_a, d_b log-uniform down to 1e-22 (some exactly 0), and c
    # set a relative 1e-7 to 1e-1 inside or outside one rule's boundary.
    # Closer than about 1e-8 the eigenvalue form loses digits to the
    # cancellation in (d_a + d_b)/2 - hypot, which the squared form avoids.
    n = 100_000
    rng = np.random.default_rng(2010)
    da, db = np.exp(rng.uniform(math.log(1e-22), math.log(0.5), (2, n)))
    da[rng.random(n) < 0.05] = 0.0
    db[rng.random(n) < 0.05] = 0.0
    boundary = np.where(rng.random(n) < 0.5, da * db + 1e-12, (da + 1e-10) * (db + 1e-10))
    offset = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(math.log(1e-7), math.log(0.1), n))
    c = rng.choice([-1.0, 1.0], n) * np.sqrt(boundary) * (1.0 + offset)
    accepted = _separate_block_rules(da, db, c)
    assert 0.1 < accepted.mean() < 0.9
    # even rows test the outer block, odd rows the inner one; the other
    # block is diagonal and the trace is 1
    rest, zero = 0.5 * (1.0 - da - db), np.zeros(n)
    outer = np.arange(n) % 2 == 0
    states = np.where(outer, [da, rest, rest, db, c, zero], [rest, da, db, rest, zero, c])
    XStateParams(*states[:, accepted]).validate()
    still_accepted = []
    for row in states[:, ~accepted].T.tolist():
        try:
            XStateParams(*row).validate()
        except InvalidStateError as exc:
            assert "positive semidefinite" in str(exc)
        else:
            still_accepted.append(row)
    assert still_accepted == []


def test_batch_checks_report_the_first_failing_row():
    rows = [random_x_state(seed) for seed in range(6)]
    _batch(rows).validate()
    rows[2] = XStateParams(0.5, 0.5, 0.0, 0.0, 0.6, 0.0)  # c14^2 > d1*d4
    rows[4] = XStateParams(0.5, 0.5, 0.0, 0.0, 0.0, 0.1)  # c23^2 > d2*d3
    with pytest.raises(InvalidStateError) as single:
        rows[2].validate()
    with pytest.raises(InvalidStateError) as batched:
        _batch(rows).validate()
    assert str(batched.value) == str(single.value)
    with pytest.raises(InvalidStateError, match="must lie in .*got 1.5"):
        bell_mixture(np.array([0.0, 0.5, 1.5, -1.0]))


def test_domains_exclude_non_finite_values():
    for name, domain in DOMAINS.items():
        assert not np.any(domain.contains(np.array([math.nan, math.inf, -math.inf]))), name
        assert not domain.contains(math.nan), name
    with pytest.raises(ValueError, match="open"):
        Domain(0.0, math.inf)
