"""Construction and checks of two-qubit density operators.

Everything downstream works on plain complex numpy arrays in the standard
computational basis |00>, |01>, |10>, |11| with qubit A as the left Kronecker
factor.  The compact six-parameter form of an X state (nonzero entries only on
the main diagonal and anti-diagonal, all real) is carried by `XStateParams`.

The parameter checks accept a batch as well as a single value: given arrays,
they raise the error a single value would raise for the first failing row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Validation tolerances for density operators.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_TOL = -1e-10
COHERENCE_TOL = 1e-12  # slack on c^2 <= d_a d_b in a 2x2 block of an X state
X_STRUCTURE_TOL = 1e-10

R_MAX = math.pi / 4.0


class InvalidStateError(ValueError):
    """A density operator or parameter set violates a state invariant."""


def failing_row(ok) -> int | None:
    """Where a check first fails: None when `ok` holds throughout.

    `ok` is one bool for a single value, whose failure is row 0, or a bool
    array with one entry per row of a batch.
    """
    if not isinstance(ok, np.ndarray):
        return None if ok else 0
    if not ok.size:
        return None
    row = int(ok.argmin())  # the first False, or 0 when every entry holds
    return None if ok.flat[row] else row


def row_value(value, row: int):
    """Entry `row` of a batch, or a single value itself."""
    return value[row] if isinstance(value, np.ndarray) and value.ndim else value


@dataclass(frozen=True)
class Domain:
    """An interval of finite reals; an open end excludes its bound.

    An infinite bound must be open, so the two comparisons alone exclude
    inf and nan.
    """

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self) -> None:
        if math.isinf(self.lo) and not self.lo_open or math.isinf(self.hi) and not self.hi_open:
            raise ValueError(f"an infinite bound must be open: {self}")

    def __str__(self) -> str:
        hi = "pi/4" if self.hi == R_MAX else f"{self.hi:g}"
        return f"{'(' if self.lo_open else '['}{self.lo:g}, {hi}{')' if self.hi_open else ']'}"

    def contains(self, x):
        """Whether x, or each entry of an array x, lies in the domain."""
        above = self.lo < x if self.lo_open else self.lo <= x
        below = x < self.hi if self.hi_open else x <= self.hi
        return above & below

    def check(self, x, name: str, error: type[Exception]) -> None:
        """Raise `error` naming the parameter unless x (every entry) lies in the domain."""
        row = failing_row(self.contains(x))
        if row is not None:
            raise error(f"{name} must lie in {self}, got {row_value(x, row)}")


# The parameter domains every layer checks against: the Bell-mixture weight nu,
# the Rindler parameter r of each qubit, the channel rate ratio g/gamma and the
# dimensionless time gamma*t.  Amplitude damping needs g/gamma < 2, beyond which
# its oscillation rate sqrt(g (2 gamma - g)) turns imaginary.
DOMAINS = {
    "nu": Domain(0.0, 1.0),
    "r": Domain(0.0, R_MAX),
    "g_over_gamma": Domain(0.0, math.inf, lo_open=True, hi_open=True),
    "g_over_gamma_ad": Domain(0.0, 2.0, lo_open=True, hi_open=True),
    "gamma_t": Domain(0.0, math.inf, hi_open=True),
}


def _block_ok(c, da, db):
    """`XStateParams.validate`'s block clause on [[d_a, c], [c, d_b]], row by row for a batch."""
    cc, dd = c * c, da * db
    return (cc <= dd + COHERENCE_TOL) & (cc <= dd - EIGENVALUE_TOL * (da + db - EIGENVALUE_TOL))


def _smaller_block_eigenvalue(da, db, c) -> float:
    """Smaller eigenvalue of the Hermitian 2x2 block [[d_a, c], [conj(c), d_b]].

    (d_a + d_b)/2 - hypot((d_a - d_b)/2, |c|), with |c| taken inside the
    hypot, which returns inf where abs of a complex past the largest double
    raises OverflowError.
    """
    return 0.5 * (da + db) - math.hypot(0.5 * (da - db), c.real, c.imag)


@dataclass(frozen=True)
class XStateParams:
    """Six real parameters of a two-qubit X state.

    d1..d4 are the diagonal entries (populations) in the order
    |00>, |01>, |10>, |11>;  c14 and c23 are the real anti-diagonal
    coherences sitting at positions (1,4) and (2,3) of the matrix.
    For a batch of states each field is an array with one entry per row
    (fields may be scalars where every row shares the value).
    """

    d1: float
    d2: float
    d3: float
    d4: float
    c14: float
    c23: float

    @property
    def diagonal(self) -> tuple[float, float, float, float]:
        return (self.d1, self.d2, self.d3, self.d4)

    def validate(self, name: str = "state") -> "XStateParams":
        """The one check of X parameters: are they a density matrix?

        Unit trace within TRACE_TOL, each 2x2 block [[d_a, c], [c, d_b]]
        positive semidefinite, and every population in [0, 1].  The block
        clause is c^2 <= d_a d_b + min(1e-12, 1e-10 (d_a + d_b) + 1e-20): the
        second term is `check_density`'s floor EIGENVALUE_TOL on the smaller
        block eigenvalue `_smaller_block_eigenvalue`, squared out.  Raises
        InvalidStateError naming `name` and the offending field, for the
        first failing row of a batch; returns the input.  Every condition is
        evaluated once and one `failing_row` call accepts the input; only a
        failure looks for which check failed, in the order trace, outer
        block, inner block, populations.
        """
        d1, d2, d3, d4 = diagonal = self.diagonal
        total = d1 + d2 + d3 + d4
        trace_ok = abs(total - 1.0) <= TRACE_TOL
        outer_ok, inner_ok = _block_ok(self.c14, d1, d4), _block_ok(self.c23, d2, d3)
        in_range = [(0.0 <= d) & (d <= 1.0) for d in diagonal]
        row = failing_row(
            trace_ok & outer_ok & inner_ok & in_range[0] & in_range[1] & in_range[2] & in_range[3]
        )
        if row is None:
            return self
        # Each check reports its own first failing row.
        trace_row = failing_row(trace_ok)
        if trace_row is not None:
            raise InvalidStateError(
                f"{name} does not have unit trace: diagonal entries must sum to 1, "
                f"got {row_value(total, trace_row)}"
            )
        for c_name, c, d_names, da, db, block, ok in (
            ("c14", self.c14, "d1*d4", d1, d4, "outer", outer_ok),
            ("c23", self.c23, "d2*d3", d2, d3, "inner", inner_ok),
        ):
            block_row = failing_row(ok)
            if block_row is not None:
                c, da, db = (row_value(v, block_row) for v in (c, da, db))
                lo = _smaller_block_eigenvalue(da, db, c)
                raise InvalidStateError(
                    f"{name} is not positive semidefinite (min eigenvalue {lo:.3e}): "
                    f"in its {block} block {c_name}^2 = {c * c} exceeds {d_names} = {da * db}"
                )
        # Last, so a negative population reports its block's eigenvalue.  Only
        # the ranges fail now, so `row` is the first row where one does.
        field = next(i for i, ok in enumerate(in_range) if failing_row(ok) == row)
        raise InvalidStateError(
            f"{name}: d{field + 1} must lie in [0, 1], got {row_value(diagonal[field], row)}"
        )


class BellIndex(Enum):
    """The four maximally entangled two-qubit states.

    PSI_PLUS is (|00> + |11>)/sqrt(2) and PHI_PLUS is (|01> + |10>)/sqrt(2);
    the minus variants carry a relative minus sign.
    """

    PSI_PLUS = "psi"
    PHI_PLUS = "phi"
    PSI_MINUS = "psi-minus"
    PHI_MINUS = "phi-minus"

    @property
    def ket(self) -> np.ndarray:
        s = 1.0 / math.sqrt(2.0)
        vec = {
            BellIndex.PSI_PLUS: [s, 0.0, 0.0, s],
            BellIndex.PSI_MINUS: [s, 0.0, 0.0, -s],
            BellIndex.PHI_PLUS: [0.0, s, s, 0.0],
            BellIndex.PHI_MINUS: [0.0, s, -s, 0.0],
        }[self]
        return np.array(vec, dtype=complex)


def as_square(rho, name: str) -> np.ndarray:
    """`rho` as a complex 4x4 matrix, the one shape the matrix path takes.

    Any other shape raises InvalidStateError naming the shape received.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidStateError(f"{name} must be of shape (4, 4), got shape {rho.shape}")
    return rho


def check_density(rho: np.ndarray, name: str = "state") -> np.ndarray:
    """Validate finiteness, Hermiticity, unit trace and positive semidefiniteness.

    `rho` must be a two-qubit operator, 4x4 (see `as_square`); returns it
    as a complex array so it can be used inline.  Each comparison fails on
    nan, so a nan or inf entry fails the Hermiticity check: it leaves a nan
    or inf defect.

    The checks run on the entries as Python numbers.  The smallest
    eigenvalue has two sources.  When the eight entries off both diagonals
    are exactly 0, the spectrum is exactly that of the two 2x2 blocks, so
    the smaller block eigenvalue of each gives it in closed form.  Any other
    matrix, however close to X structured, gets `np.linalg.eigvalsh`.  Both
    read the lower triangle and the real part of the diagonal.
    """
    return _checked_rows(rho, name)[0]


def _checked_rows(rho, name: str) -> tuple[np.ndarray, list]:
    """`check_density`'s checks; returns the complex array and its rows as Python numbers.

    The Hermiticity defect is the largest |a_ij - conj(a_ji)| over every
    pair i <= j, the diagonal included: a nan or inf real part on the
    diagonal leaves a nan defect there.  The sixteen entries are unpacked
    and the ten defects written out: a loop over so few entries costs more
    than their arithmetic.
    """
    rho = as_square(rho, name)
    rows = rho.tolist()
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = rows
    tr = (a00 + a11) + (a22 + a33)  # numpy's pairing, so the same rounding
    try:
        defects = [
            abs(a00 - a00.conjugate()), abs(a11 - a11.conjugate()),
            abs(a22 - a22.conjugate()), abs(a33 - a33.conjugate()),
            abs(a01 - a10.conjugate()), abs(a02 - a20.conjugate()), abs(a03 - a30.conjugate()),
            abs(a12 - a21.conjugate()), abs(a13 - a31.conjugate()), abs(a23 - a32.conjugate()),
        ]
    except OverflowError:  # abs of a finite complex past the largest double
        defects = [math.inf]
    # max skips a nan unless it comes first; a sum of terms >= 0 is nan only
    # through a nan term.  A trace of huge entries overflows to inf, or to nan
    # through inf - inf, and fails its check below.
    herm = math.nan if math.isnan(sum(defects)) else max(defects)
    if not herm <= HERMITICITY_TOL:
        raise InvalidStateError(f"{name} is not a finite Hermitian matrix (defect {herm:.3e})")
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise InvalidStateError(f"{name} does not have unit trace (trace {tr.real})")
    if not any(_off_x(rows)):
        lo = min(
            _smaller_block_eigenvalue(a00.real, a33.real, a30),
            _smaller_block_eigenvalue(a11.real, a22.real, a21),
        )
    else:
        lo = float(np.linalg.eigvalsh(rho)[0])  # eigenvalues come in ascending order
    if not lo >= EIGENVALUE_TOL:
        raise InvalidStateError(f"{name} is not positive semidefinite (min eigenvalue {lo:.3e})")
    return rho, rows


def from_x_params(p: XStateParams) -> np.ndarray:
    """Build the 4x4 density operator for a validated X-state parameter set."""
    p.validate()
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = p.d1, p.d2, p.d3, p.d4
    rho[0, 3] = rho[3, 0] = p.c14
    rho[1, 2] = rho[2, 1] = p.c23
    return rho


def _off_x(rows) -> tuple:
    """The eight entries of a 4x4 matrix's rows off both diagonals."""
    (_, a, b, _), (c, _, _, d), (e, _, _, f), (_, g, h, _) = rows
    return a, b, c, d, e, f, g, h


def _x_entries(rows) -> tuple:
    """The entries d1, d2, d3, d4, c14 and c23 of a 4x4 matrix's rows."""
    (d1, _, _, c14), (_, d2, c23, _), (_, _, d3, _), (_, _, _, d4) = rows
    return d1, d2, d3, d4, c14, c23


def _x_structured(rows) -> bool:
    """`is_x_structured` on the rows of a 4x4 matrix; a nan entry fails it."""
    off_x = _off_x(rows)
    try:
        return not any(off_x) or all(abs(z) <= X_STRUCTURE_TOL for z in off_x)
    except OverflowError:  # abs of a finite complex past the largest double
        return False


def is_x_structured(rho: np.ndarray) -> bool:
    """True when every entry of the 4x4 `rho` off both diagonals is within X_STRUCTURE_TOL."""
    return _x_structured(as_square(rho, "state").tolist())


def x_params_from_density(rho: np.ndarray) -> XStateParams:
    """Read the six X-state parameters back out of a density matrix.

    `rho` must be 4x4, and the X structure is checked on `rho` itself.  X
    entries with an imaginary part above X_STRUCTURE_TOL raise
    InvalidStateError.
    """
    rows = as_square(rho, "state").tolist()
    if not _x_structured(rows):
        raise InvalidStateError("density matrix is not X structured")
    picked = _x_entries(rows)
    if max(abs(z.imag) for z in picked) > X_STRUCTURE_TOL:
        raise InvalidStateError("X entries carry a non-negligible imaginary part")
    return XStateParams(*(z.real for z in picked))


def bell_mixture(nu: float) -> XStateParams:
    """Convex mixture nu * phi+ plus (1 - nu) * psi+ in X-parameter form.

    At nu = 0 the state is (|00> + |11>)/sqrt(2), at nu = 1 it is
    (|01> + |10>)/sqrt(2); in between it stays an X state with diagonal
    ((1-nu)/2, nu/2, nu/2, (1-nu)/2) and coherences c14 = (1-nu)/2,
    c23 = nu/2.  An array of nu gives a batch.
    """
    DOMAINS["nu"].check(nu, "mixing parameter nu", InvalidStateError)
    w = (1.0 - nu) / 2.0
    v = nu / 2.0
    return XStateParams(w, v, v, w, c14=w, c23=v)


def random_x_state(seed: int) -> XStateParams:
    """Deterministic random X state, valid by construction.

    Diagonals come from a normalized positive 4-vector; each coherence is
    drawn uniformly inside the bound set by its 2x2 block, so the result
    always passes `validate`.
    """
    rng = np.random.default_rng(seed)
    raw = rng.random(4) + 1e-9
    d = raw / raw.sum()
    c14 = rng.uniform(-1.0, 1.0) * math.sqrt(d[0] * d[3])
    c23 = rng.uniform(-1.0, 1.0) * math.sqrt(d[1] * d[2])
    return XStateParams(float(d[0]), float(d[1]), float(d[2]), float(d[3]), float(c14), float(c23))
