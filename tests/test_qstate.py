import math
import re
from dataclasses import astuple
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from conftest import _batch, _projector, partial_trace

from xsteer.measures import full_report, steering_functional, x_report
from xsteer.processes import bell_project_swap
from xsteer.qstate import (
    DOMAINS,
    EIGENVALUE_TOL,
    BellIndex,
    Domain,
    InvalidStateError,
    XStateParams,
    _smaller_block_eigenvalue,
    bell_mixture,
    check_density,
    from_x_params,
    is_x_structured,
    random_x_state,
    shown,
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
    np.testing.assert_allclose(rho, _projector(BellIndex.PSI_PLUS), atol=1e-15)


def test_from_x_params_nu_half_mixture():
    # hand expansion of (phi+ + psi+)/2: uniform diagonal, both coherences 1/4
    rho = from_x_params(bell_mixture(0.5))
    expected = 0.5 * _projector(BellIndex.PHI_PLUS) + 0.5 * _projector(BellIndex.PSI_PLUS)
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
        # the populations leave [0, 1]: d2 + d3 < 0 puts the inner block below the floor
        (XStateParams(1.2, -0.1, -0.1, 0.0, 0.0, 0.0), "in its inner block"),
        # a field no float can hold is named, not an OverflowError
        (XStateParams(10**5000, 0, 0, 0, 0, 0), "d1 is too large for a float, got 1.000e\\+5000"),
        (XStateParams(0.5, 0, 0, 0.5, 10**400, 0), "c14 is too large for a float"),
        # ints that sum to 1 exactly but overflow d1*d4 are checked as the
        # floats the matrix holds, whose diagonal sums to 0
        (XStateParams(10**300, 1 - 2 * 10**300, 0, 10**300, 0, 0), "unit trace.*got 0.0"),
        # an array entry no float can hold is named too, by the entry of largest magnitude
        (XStateParams(np.array([0.5, 10**400, -10**401], dtype=object), 0, 0, 0.5, 0, 0),
         "d1 is too large for a float, got -1.000e\\+401"),
    ],
)
def test_from_x_params_rejects_invalid(params, fragment):
    for entry in (from_x_params, steering_functional, x_report):
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


def test_shown_writes_a_rational_past_1e40_by_its_value():
    # an int prints as its Decimal formats, rounded once at any size, even
    # next to a rounding midpoint
    for n in (10**41 + 1, -(10**60 + 5 * 10**56), 10**60 + 5 * 10**56 + 1, 10**5000, 7**20000):
        assert shown(n) == f"{Decimal(n):.3e}"
    assert shown(10**5000) == "1.000e+5000"
    assert shown(10**60 + 5 * 10**56 + 1) == "1.001e+60"
    assert shown(Fraction(1, 10**400)) == "1.000e-400"
    assert shown(Fraction(-3, 10**50)) == "-3.000e-50"
    assert shown(Fraction(10**400, 3)) == "3.333e+399"
    assert shown(Fraction(2, 3)) == "2/3" and shown(10**40) == str(10**40)
    with pytest.raises(InvalidStateError, match=r"nu must lie in \[0, 1\], got -3.000e-50$"):
        bell_mixture(Fraction(-3, 10**50))


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
    with pytest.raises(InvalidStateError, match="X structured"):
        x_params_from_density(rho)
    # an off-X entry whose abs overflows is not within the tolerance either
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = complex(1.5e308, 1.5e308)
    assert not is_x_structured(rho)
    with pytest.raises(InvalidStateError, match="X structured"):
        x_params_from_density(rho)


def test_x_params_from_density_imaginary_coherences():
    rho = from_x_params(XStateParams(0.4, 0.1, 0.1, 0.4, 0.2, 0.05))
    rho[0, 3], rho[3, 0] = 0.2j, -0.2j
    with pytest.raises(InvalidStateError, match="imaginary"):
        x_params_from_density(rho)


def test_check_density_rejects_bad_operators():
    good = from_x_params(bell_mixture(0.3))
    check_density(good)
    with pytest.raises(InvalidStateError, match="Hermitian"):
        bad = good.copy()
        bad[0, 1] = 0.1
        check_density(bad)
    # a trace that overflows to inf, or to nan through inf - inf, fails
    # without a numpy warning
    for bad in (2.0 * good, np.full((4, 4), 1e308), np.diag([1e308, 1e308, -1e308, -1e308])):
        with pytest.raises(InvalidStateError, match="trace"):
            check_density(bad)
    # a two-qubit operator is 4x4, whatever else would pass the checks
    for shape in ((0, 0), (4,), (1, 1), (2, 2), (3, 3), (4, 2), (5, 5), (8, 8), (2, 4, 4)):
        n = shape[0] if len(shape) == 2 and shape[0] == shape[1] else 0
        wrong = np.eye(n, dtype=complex) / n if n else np.zeros(shape)
        expected = rf"state must be of shape \(4, 4\), got shape {re.escape(str(shape))}"
        with pytest.raises(InvalidStateError, match=expected):
            check_density(wrong)
    with pytest.raises(InvalidStateError, match="positive semidefinite"):
        check_density(np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex))
    # abs of a complex entry this size raises OverflowError in Python, and
    # its Hermitian pair on the anti-diagonal feeds the closed-form block
    # eigenvalue; each must fail cleanly, with no numpy warning
    huge = complex(1.5e308, 1.5e308)
    hermitian_pair = good.copy()
    hermitian_pair[0, 3], hermitian_pair[3, 0] = huge, huge.conjugate()
    with pytest.raises(InvalidStateError, match="positive semidefinite"):
        check_density(hermitian_pair)
    off_diagonal, diagonal = good.copy(), good.copy()
    off_diagonal[0, 1] = huge
    diagonal[0, 0] += 1.5e308j
    late_nan = good.copy()
    late_nan[2, 3] = math.nan
    # nan passes no comparison: the first has unit trace apart from its nan
    # entries, and eigvalsh raises LinAlgError on the second; inf - inf is
    # nan.  The last two hold their nan after finite entries, where a plain
    # max over the defects would skip it.
    for bad in (
        np.diag([math.nan, 0.5, 0.5, math.nan]), np.full((4, 4), math.nan),
        np.diag([math.inf, 0, 0, 0]), np.diag([-math.inf, 1, 1, 0]),
        off_diagonal, diagonal, np.diag([0.5, 0.5, 0.0, math.nan]), late_nan,
    ):
        for call in (
            lambda: check_density(bad),
            lambda: full_report(bad),
            lambda: bell_project_swap(bad, good, BellIndex.PSI_PLUS),
        ):
            with pytest.raises(InvalidStateError, match="finite Hermitian"):
                call()


def _exact_x_matrices():
    """Seeded exactly-X density candidates, real and complex, some at the eigenvalue floor.

    The populations are a random point of the simplex, some of them exactly
    0.  One block's coherence is set a relative 1e-6 to 1e-1 above or below
    the modulus at which its smaller eigenvalue is EIGENVALUE_TOL, the other
    is drawn inside its bound.  A relative offset delta moves that eigenvalue
    by about 2 delta c^2 / (d_a + d_b); with both populations at least 1e-6
    that is at least 1e-12, far above the 3e-16 either solver can err by.
    With a zero population it is only 2 delta 1e-10, so those blocks keep
    their offsets at 1e-3 and above, or a coherence of exactly 0.
    """
    rng = np.random.default_rng(1212)
    for _ in range(2000):
        d = rng.random(4)
        zero = rng.random(4) < 0.15
        d[zero] = 0.0
        d = d / d.sum() if d.sum() else np.array([0.0, 0.0, 0.0, 1.0])
        outer = bool(rng.random() < 0.5)
        (a, b), (e, f) = ((0, 3), (1, 2)) if outer else ((1, 2), (0, 3))
        if d[a] == 0.0 or d[b] == 0.0:
            low = 1e-3 if rng.random() < 0.8 else None
        else:
            d[a], d[b] = np.maximum(d[[a, b]], 1e-6)
            d /= d.sum()
            low = 1e-6
        if low is None:
            modulus = 0.0
        else:
            modulus_at = math.sqrt((d[a] - EIGENVALUE_TOL) * (d[b] - EIGENVALUE_TOL))
            offset = math.exp(rng.uniform(math.log(low), math.log(1e-1)))
            modulus = modulus_at * (1.0 + rng.choice([-1.0, 1.0]) * offset)
        other = rng.uniform(-1.0, 1.0) * math.sqrt(d[e] * d[f])
        if rng.random() < 0.5:  # complex coherences
            modulus = modulus * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            other = other * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        rho = np.diag(d).astype(complex)
        rho[a, b], rho[b, a] = modulus, np.conj(modulus)
        rho[e, f], rho[f, e] = other, np.conj(other)
        yield rho


def test_check_density_exact_x_blocks_match_dense_solver(monkeypatch):
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    verdicts = []
    for rho in _exact_x_matrices():
        dense = float(eigvalsh(rho)[0])
        closed = min(
            _smaller_block_eigenvalue(rho[0, 0].real, rho[3, 3].real, rho[3, 0]),
            _smaller_block_eigenvalue(rho[1, 1].real, rho[2, 2].real, rho[2, 1]),
        )
        assert abs(closed - dense) <= 1e-15
        try:
            check_density(rho)
        except InvalidStateError as exc:
            assert "positive semidefinite" in str(exc)
            verdicts.append((False, dense >= EIGENVALUE_TOL))
        else:
            verdicts.append((True, dense >= EIGENVALUE_TOL))
    assert all(mine == dense for mine, dense in verdicts)
    assert 0.2 < np.mean([mine for mine, _ in verdicts]) < 0.8
    assert calls == []  # an exactly-X matrix never reaches the dense solver
    # one off-X entry, however small, sends the matrix to eigvalsh
    rho = from_x_params(bell_mixture(0.3))
    rho[0, 1] = rho[1, 0] = 1e-300
    check_density(rho)
    assert len(calls) == 1
    # each X block is diag(1/4, 1/4), but with all eight off-X entries 0.3
    # the smallest eigenvalue is 1/4 - 0.6: the block values never see it
    rho = np.eye(4, dtype=complex) / 4.0
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        rho[i, j] = rho[j, i] = 0.3
    assert abs(eigvalsh(rho)[0] + 0.35) < 1e-15
    with pytest.raises(InvalidStateError, match="positive semidefinite"):
        check_density(rho)
    assert len(calls) == 2


def test_check_density_reads_the_real_trace():
    # Imaginary parts within the Hermiticity tolerance on each diagonal entry
    # of 20,000 seeded X states: the real trace, summed as validate sums it,
    # is within 1e-16 of 1, so check_density and full_report accept every one
    rng = np.random.default_rng(29)
    for k in range(20_000):
        rho = from_x_params(random_x_state(k))
        rho[range(4), range(4)] += 1j * rng.uniform(-0.5e-12, 0.5e-12, 4)
        check_density(rho)
        full_report(rho)
    # a real trace off by 2e-12 is still refused, and the message prints it
    rho[0, 0] += 2e-12
    real_trace = (rho[0, 0].real + rho[1, 1].real) + (rho[2, 2].real + rho[3, 3].real)
    with pytest.raises(InvalidStateError, match=re.escape(f"(trace {real_trace})")):
        check_density(rho)


def test_check_density_hermiticity_defect_matches_numpy():
    # Seeded 4x4 density matrices, a quarter of them exactly X, with one
    # entry pushed off Hermitian by 0.5e-12 to 2e-12 (an imaginary part on
    # the diagonal counts twice).  The verdict and the defect in the message
    # must be numpy's largest |rho - rho^dagger| entry.
    rng = np.random.default_rng(1213)
    verdicts = []
    for k in range(400):
        if k % 4 == 1:
            rho = from_x_params(random_x_state(k))
        else:
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = m @ m.conj().T + 0.1 * np.eye(4)
            rho /= np.trace(rho).real
        i, j = rng.integers(4, size=2)
        size = rng.uniform(0.5e-12, 2e-12)
        rho[i, j] += 1j * size if i == j else size * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        defect = float(np.abs(rho - rho.conj().T).max())
        try:
            check_density(rho)
        except InvalidStateError as exc:
            assert f"finite Hermitian matrix (defect {defect:.3e})" in str(exc)
            verdicts.append(False)
        else:
            assert defect <= 1e-12
            verdicts.append(True)
    assert 0.2 < np.mean(verdicts) < 0.8


def _x_matrix(p: XStateParams) -> np.ndarray:
    # like from_x_params, but without validating the parameters
    rho = np.diag(np.array(astuple(p)[:4], dtype=complex))
    rho[0, 3] = rho[3, 0] = p.c14
    rho[1, 2] = rho[2, 1] = p.c23
    return rho


# c14^2 exceeds d1*d4 by 5e-13, inside the 1e-12 slack, but the smaller
# outer eigenvalue is about -5e-10, below the eigenvalue floor.
_NEGATIVE_EIGENVALUE = XStateParams(
    0.0005, 0.4995, 0.4995, 0.0005, math.sqrt(0.0005**2 + 5e-13), 0.0
)


# c14^2 exceeds d1*d4 by 5e-11, but the smaller outer eigenvalue is -5e-11,
# above the eigenvalue floor: both checks accept it.
_ABOVE_FLOOR = XStateParams(0.5, 0.0, 0.0, 0.5, 0.5 + 5e-11, 0.0)


@pytest.mark.parametrize(
    "params, fragment",
    [
        (bell_mixture(0.3), None),
        (random_x_state(4), None),
        (XStateParams(0.5, 0.25, 0.25, 1e-9, 0.0, 0.0), "trace"),
        (XStateParams(0.7, 0.5, -0.1, -0.1, 0.0, 0.0), "positive semidefinite"),
        (_NEGATIVE_EIGENVALUE, "positive semidefinite"),
        (_ABOVE_FLOOR, None),
    ],
)
def test_check_x_density_agrees_with_matrix_check(params, fragment):
    """The X-parameter check, `validate`, agrees with `check_density` on the matrix.

    Every matrix both accept gets a report from `full_report`, and `validate`
    returns the six fields it read, in their order.
    """
    rho = _x_matrix(params)
    if fragment is None:
        assert params.validate() == tuple(vars(params).values())  # each field a float
        check_density(rho)
        full_report(rho)
        return
    for check, arg in ((XStateParams.validate, params), (check_density, rho)):
        with pytest.raises(InvalidStateError, match=fragment):
            check(arg)


def test_validate_accepts_exactly_what_check_density_accepts():
    # Blocks with d_a, d_b log-uniform down to 1e-22, some exactly 0 and some
    # negative down to -2e-10, and c set a relative 1e-7 to 1e-1 inside or
    # outside c^2 = d_a d_b + 1e-12 or the eigenvalue floor's boundary
    # (d_a + 1e-10)(d_b + 1e-10).  Closer than about 1e-8 the eigenvalue
    # form loses digits to the cancellation in (d_a + d_b)/2 - hypot, which
    # the squared form avoids.
    n = 100_000
    rng = np.random.default_rng(2010)
    da, db = np.exp(rng.uniform(math.log(1e-22), math.log(0.5), (2, n)))
    for d in (da, db):
        d[rng.random(n) < 0.05] = 0.0
        negative = rng.random(n) < 0.05
        d[negative] = -rng.uniform(0.0, 2e-10, negative.sum())
    boundary = np.where(rng.random(n) < 0.5, da * db + 1e-12, (da + 1e-10) * (db + 1e-10))
    offset = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(math.log(1e-7), math.log(0.1), n))
    c = rng.choice([-1.0, 1.0], n) * np.sqrt(np.maximum(boundary, 0.0)) * (1.0 + offset)
    # even rows test the outer block, odd rows the inner one; the other
    # block is diagonal and the trace is 1
    rest, zero = 0.5 * (1.0 - da - db), np.zeros(n)
    outer = np.arange(n) % 2 == 0
    states = np.where(outer, [da, rest, rest, db, c, zero], [rest, da, db, rest, zero, c])
    # the matrix of half the rows turns each coherence by a phase, keeping its modulus
    turned = rng.random((2, n)) < 0.5
    phases = np.where(turned, np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (2, n))), 1.0)
    matrices = np.zeros((n, 4, 4), dtype=complex)
    for i in range(4):
        matrices[:, i, i] = states[i]
    matrices[:, 3, 0] = states[4] * phases[0]
    matrices[:, 2, 1] = states[5] * phases[1]
    matrices[:, 0, 3] = matrices[:, 3, 0].conj()
    matrices[:, 1, 2] = matrices[:, 2, 1].conj()

    def accepts(check, arg):
        try:
            check(arg)
        except InvalidStateError as exc:
            assert "positive semidefinite" in str(exc)
            return False
        return True

    accepted = [accepts(check_density, rho) for rho in matrices]
    rows = [XStateParams(*row) for row in states.T.tolist()]
    assert [accepts(XStateParams.validate, row) for row in rows] == accepted
    accepted = np.array(accepted)
    assert 0.1 < accepted.mean() < 0.9
    assert 0.01 < (np.minimum.reduce(states[:4]) < 0.0)[accepted].mean()  # some below 0
    XStateParams(*states[:, accepted]).validate()
    with pytest.raises(InvalidStateError, match="positive semidefinite"):
        XStateParams(*states).validate()
    # full_report reads the real parts of the coherences, x_report the same
    # real parts as parameters; H_z takes each population as at least 0
    kept = matrices[accepted]
    real = [kept[:, i, i].real for i in range(4)] + [kept[:, 3, 0].real, kept[:, 2, 1].real]
    reports = np.array([(r.s, r.z, r.e_x, r.e_y, r.i_ab) for r in map(full_report, kept)])
    np.testing.assert_allclose(reports, x_report(XStateParams(*real)), rtol=0, atol=1e-14)
    # a population on the floor and its partner at 1e-10 give H_z = ln 2
    # and I_AB = 0, not a division by their sum 0
    edge = XStateParams(-1e-10, 1e-10, 0.5, 0.5, 0.0, 0.0)
    assert full_report(_x_matrix(edge)).i_ab == 0.0
    assert x_report(edge)[0, 4] == 0.0


def test_validate_reads_every_field_as_the_float64_matrix_holds_it():
    # float32 fields near the outer block's floor, whose float32 trace can
    # round to 1 where the float64 one is off by about 1e-8: validate, batched
    # and row by row, decides as check_density does on their float64 matrix
    n = 2000
    rng = np.random.default_rng(2811)
    d = rng.dirichlet(np.ones(4), n).T.astype(np.float32)
    offset = rng.uniform(-1e-6, 1e-6, n)
    c14 = (np.sqrt(d[0].astype(np.float64) * d[3]) * (1.0 + offset)).astype(np.float32)
    fields = (*d, c14, np.zeros(n, dtype=np.float32))

    def verdict(check, arg):
        try:
            check(arg)
        except InvalidStateError as exc:
            return str(exc).split(" (")[0].split(":")[0]
        return "accepted"

    verdicts = [verdict(check_density, _x_matrix(XStateParams(*row))) for row in zip(*fields)]
    assert [verdict(XStateParams.validate, XStateParams(*row)) for row in zip(*fields)] == verdicts
    assert {"accepted", "state does not have unit trace", "state is not positive semidefinite"} == set(
        verdicts
    )
    kept = np.array(verdicts) == "accepted"
    XStateParams(*(f[kept] for f in fields)).validate()
    first = verdicts.index(next(v for v in verdicts if v != "accepted"))
    with pytest.raises(InvalidStateError) as batched:
        XStateParams(*fields).validate()
    with pytest.raises(InvalidStateError) as single:
        XStateParams(*(f[first] for f in fields)).validate()
    assert str(batched.value) == str(single.value)
    # an int64 coherence whose square wraps to 0 in int64 arithmetic
    with pytest.raises(InvalidStateError, match="outer block c14"):
        XStateParams(np.array([1]), 0, 0, np.array([0]), np.array([2**32]), 0).validate()


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


# Batches of six seeded valid states with bad rows put in: {row: state}, the
# row whose error is reported, and its message.  `validate` reports the first
# failing check in the order trace, outer block, inner block, each at its own
# first failing row.
_DIAGNOSED = {
    "trace wins over an earlier block error": (
        {
            1: XStateParams(0.5, 0.5, 0.0, 0.0, 0.6, 0.0),
            3: XStateParams(0.5, 0.3, 0.2, 0.1, 0.0, 0.0),
            5: XStateParams(0.6, 0.3, 0.2, 0.1, 0.0, 0.0),
        },
        3,
        "state does not have unit trace: diagonal entries must sum to 1, got 1.1",
    ),
    "outer block": (
        {4: XStateParams(0.25, 0.25, 0.25, 0.25, 0.3, 0.0)},
        4,
        "state is not positive semidefinite (min eigenvalue -5.000e-02): "
        "in its outer block c14^2 = 0.09 with d1 = 0.25, d4 = 0.25",
    ),
    "outer block wins over an earlier inner one": (
        {
            0: XStateParams(0.25, 0.25, 0.25, 0.25, 0.0, 0.26),
            5: XStateParams(0.4, 0.1, 0.1, 0.4, 0.45, 0.0),
        },
        5,
        "state is not positive semidefinite (min eigenvalue -5.000e-02): "
        "in its outer block c14^2 = 0.2025 with d1 = 0.4, d4 = 0.4",
    ),
    "inner block": (
        {
            2: XStateParams(0.4, 0.1, 0.1, 0.4, 0.0, 0.15),
            4: XStateParams(0.25, 0.25, 0.25, 0.25, 0.0, 0.3),
        },
        2,
        "state is not positive semidefinite (min eigenvalue -5.000e-02): "
        "in its inner block c23^2 = 0.0225 with d2 = 0.1, d3 = 0.1",
    ),
    # row 1's negative populations fail its inner block, so the outer block
    # check reports row 4 first
    "negative population with a block error wins over a range error": (
        {
            1: XStateParams(1.2, -0.1, -0.1, 0.0, 0.0, 0.0),
            4: XStateParams(0.7, 0.5, -0.1, -0.1, 0.0, 0.0),
        },
        4,
        "state is not positive semidefinite (min eigenvalue -1.000e-01): "
        "in its outer block c14^2 = 0.0 with d1 = 0.7, d4 = -0.1",
    ),
    # with zero coherences, d2 + d3 < 0 alone puts the inner block below the floor
    "populations alone": (
        {
            2: XStateParams(0.0, -0.05, -0.05, 1.1, 0.0, 0.0),
            4: XStateParams(1.2, -0.1, -0.1, 0.0, 0.0, 0.0),
        },
        2,
        "state is not positive semidefinite (min eigenvalue -5.000e-02): "
        "in its inner block c23^2 = 0.0 with d2 = -0.05, d3 = -0.05",
    ),
}


@pytest.mark.parametrize("case", list(_DIAGNOSED))
def test_validate_diagnoses_the_first_failing_check(case):
    bad, row, message = _DIAGNOSED[case]
    rows = [random_x_state(seed) for seed in range(6)]
    for i, params in bad.items():
        rows[i] = params
    with pytest.raises(InvalidStateError) as batched:
        _batch(rows).validate()
    assert str(batched.value) == message
    with pytest.raises(InvalidStateError) as single:
        rows[row].validate()
    assert str(single.value) == message


def test_domains_exclude_non_finite_values():
    for name, domain in DOMAINS.items():
        assert not np.any(domain.contains(np.array([math.nan, math.inf, -math.inf]))), name
        assert not domain.contains(math.nan), name
    with pytest.raises(ValueError, match="open"):
        Domain(0.0, math.inf)
