"""Construction and checks of two-qubit density operators.

Everything downstream works on plain complex numpy arrays in the standard
computational basis |00>, |01>, |10>, |11| with qubit A as the left Kronecker
factor.  The compact six-parameter form of an X state (nonzero entries only on
the main diagonal and anti-diagonal, all real) is carried by `XStateParams`.
A matrix is X structured when its eight entries off both diagonals are
exactly 0 (`_off_x`), and its six X entries are read at the positions
`XStateParams` documents (`_x_entries`): `check_density`'s block rule,
`full_report`'s closed form, `is_x_structured` and `x_params_from_density`
all use this one test and this one read.

The parameter checks accept a batch as well as a single value: given arrays,
the first check to fail, in check order, reports its own first failing row.
`check_float` is the one read of a number: each check returns the float64
value it accepted, and the closed forms compute with that value, so an
np.float32, np.float16, int or Fraction input computes as its float64 value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context
from enum import Enum

import numpy as np

# Validation tolerances for density operators.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_TOL = -1e-10

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


def shown(value) -> str:
    """`value` for an error message; a rational past 1e40 by its value, in 4 significant digits.

    str may fail on such an int (Python's int-to-str limit) and would write
    a Fraction as two huge ints.  The one division runs at more digits than
    numerator and denominator hold, so an int is exact, and the 4-digit
    rounding the only one, as when the int itself is formatted.
    """
    if isinstance(value, numbers.Rational) and max(abs(value.numerator), value.denominator) > 1e40:
        n, d = value.numerator, value.denominator
        prec = (abs(n).bit_length() + d.bit_length()) // 3 + 8  # a bit holds under 1/3 digit
        return f"{Context(prec=prec, Emax=MAX_EMAX, Emin=MIN_EMIN).divide(n, d):.3e}"
    return str(value)


def check_float(x, name: str, error: type[Exception]):
    """x read as float64: an array by astype, which hands back a float64 array as is, else float(x).

    Raises `error` naming the parameter for a number no float can hold, as
    for 10**400, showing an array's entry of largest magnitude.
    """
    try:
        return x.astype(np.float64, copy=False) if isinstance(x, np.ndarray) else float(x)
    except OverflowError:
        largest = max(np.ravel(x), key=abs)
        raise error(f"{name} is too large for a float, got {shown(largest)}") from None


@dataclass(frozen=True)
class Domain:
    """An interval of finite reals; an open end excludes its bound.

    An infinite bound must be open, so the two comparisons alone exclude
    inf and nan; `check` also refuses a number no float can hold.
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

    def check(self, x, name: str, error: type[Exception]):
        """x read by `check_float`, once x and that value (every entry) lie in the domain.

        Raises `error` naming the parameter otherwise.  x itself is compared
        first, so an int or Fraction is compared exactly and one no float can
        hold gets this message; its float64 value is compared too, since
        rounding can put it on an open bound, as it puts a positive Fraction
        below the smallest double on 0.
        """
        row = failing_row(self.contains(x))
        value = x if row is not None else check_float(x, name, error)
        if value is not x:  # a float64 array or a Python float is read as itself
            row = failing_row(self.contains(value))
        if row is not None:
            raise error(f"{name} must lie in {self}, got {shown(row_value(x, row))}")
        return value


# The parameter domains every layer checks against: the Bell-mixture weight nu,
# the Rindler parameter r of each qubit, the channel rate ratio g/gamma and the
# dimensionless time gamma*t.  Amplitude damping needs g/gamma < 2, beyond
# which its oscillation rate sqrt(g (2 gamma - g)) turns imaginary.
DOMAINS = {
    "nu": Domain(0.0, 1.0),
    "r": Domain(0.0, R_MAX),
    "g_over_gamma": Domain(0.0, math.inf, lo_open=True, hi_open=True),
    "g_over_gamma_ad": Domain(0.0, 2.0, lo_open=True, hi_open=True),
    "gamma_t": Domain(0.0, math.inf, hi_open=True),
}


def _block_ok(cc, da, db):
    """Whether the block [[d_a, c], [conj(c), d_b]], |c|^2 = cc, passes: the one positivity rule.

    `check_density`'s floor EIGENVALUE_TOL on the block's smaller eigenvalue
    `_smaller_block_eigenvalue`, squared out: (d_a + d_b)/2 - EIGENVALUE_TOL
    must be at least 0 and its square at least ((d_a - d_b)/2)^2 + cc.  The
    squared form has no cancellation near the floor.  Row by row for a batch.
    """
    return (da + db >= 2.0 * EIGENVALUE_TOL) & (
        cc <= da * db - EIGENVALUE_TOL * (da + db - EIGENVALUE_TOL)
    )


def _smaller_block_eigenvalue(da, db, c) -> float:
    """Smaller eigenvalue of the Hermitian 2x2 block [[d_a, c], [conj(c), d_b]], for a message.

    (d_a + d_b)/2 - hypot((d_a - d_b)/2, |c|), with |c| taken inside the
    hypot, which returns inf where abs of a complex past the largest double
    raises OverflowError.  `_block_ok` decides; this only reports.
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

    def _read(self, name: str = "state") -> tuple:
        """The six fields, in their order, each read by `check_float`; the state is not checked."""
        fields = vars(self).items()  # in their declared order
        return tuple(check_float(v, f"{name}: {k}", InvalidStateError) for k, v in fields)

    def validate(self, name: str = "state") -> tuple:
        """The one check of X parameters: `check_density`'s rule on their matrix.

        Every field is read as float64 (see `_read`), as `from_x_params`
        writes it into the matrix, then checked for unit trace within
        TRACE_TOL, summed as `check_density` sums it, and each 2x2 block
        [[d_a, c], [c, d_b]] passing `_block_ok`, whose floor also keeps
        every population at least EIGENVALUE_TOL.  Raises InvalidStateError
        naming `name`; returns the six values read, (d1, d2, d3, d4, c14,
        c23), for the caller to compute with.  Every condition is evaluated
        once; only a failure looks for which check failed, in the order
        trace, outer block, inner block, each at its own first failing row
        of a batch.
        """
        d1, d2, d3, d4, c14, c23 = fields = self._read(name)
        total = (d1 + d2) + (d3 + d4)
        trace_ok = abs(total - 1.0) <= TRACE_TOL
        outer_ok, inner_ok = _block_ok(c14 * c14, d1, d4), _block_ok(c23 * c23, d2, d3)
        if failing_row(trace_ok & outer_ok & inner_ok) is None:
            return fields
        # Each check reports its own first failing row.
        trace_row = failing_row(trace_ok)
        if trace_row is not None:
            raise InvalidStateError(
                f"{name} does not have unit trace: diagonal entries must sum to 1, "
                f"got {row_value(total, trace_row)}"
            )
        for c_name, c, d_names, da, db, block, ok in (
            ("c14", c14, ("d1", "d4"), d1, d4, "outer", outer_ok),
            ("c23", c23, ("d2", "d3"), d2, d3, "inner", inner_ok),
        ):
            block_row = failing_row(ok)
            if block_row is not None:
                c, da, db = (row_value(v, block_row) for v in (c, da, db))
                raise InvalidStateError(
                    f"{name} is not positive semidefinite (min eigenvalue "
                    f"{_smaller_block_eigenvalue(da, db, c):.3e}): in its {block} block "
                    f"{c_name}^2 = {c * c} with {d_names[0]} = {da}, {d_names[1]} = {db}"
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
    or inf defect.  The trace is the sum of the real diagonal, paired
    (d1 + d2) + (d3 + d4) as `XStateParams.validate` sums it; the
    Hermiticity check bounds the diagonal's imaginary parts.

    The checks run on the entries as Python numbers.  Positive
    semidefiniteness means a smallest eigenvalue of at least EIGENVALUE_TOL.
    When the eight entries off both diagonals are exactly 0 (the one X
    test), the spectrum is exactly that of the two 2x2 blocks, so
    `_block_ok`, the rule `XStateParams.validate` applies, decides on each
    block as `_x_entries` reads it: the real diagonal and the coherences at
    (1,4) and (2,3).  Any other matrix, however close to X structured, gets
    `np.linalg.eigvalsh`.  Populations in [EIGENVALUE_TOL, 0) pass.
    """
    return _checked_rows(rho, name)[0]


def _checked_rows(rho, name: str) -> tuple[np.ndarray, tuple | None]:
    """`check_density`'s checks; returns the complex array and the X entries its block rule read.

    The entries are `_x_entries`' six, as Python complex numbers, for an X
    matrix, and None for any other, which `eigvalsh` decided.  The
    Hermiticity defect is the largest |a_ij - conj(a_ji)| over every pair
    i <= j, the diagonal included: a nan or inf real part on the diagonal
    leaves a nan defect there.  The sixteen entries are unpacked and the ten
    defects written out: a loop over so few entries costs more than their
    arithmetic.
    """
    rho = as_square(rho, name)
    rows = rho.tolist()
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = rows
    tr = (a00.real + a11.real) + (a22.real + a33.real)  # numpy's pairing, as validate sums
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
        raise InvalidStateError(f"{name} does not have unit trace (trace {tr})")
    if any(_off_x(rows)):
        lo = float(np.linalg.eigvalsh(rho)[0])  # eigenvalues come in ascending order
        if lo >= EIGENVALUE_TOL:
            return rho, None
    else:
        entries = d1, d2, d3, d4, c14, c23 = _x_entries(rows)
        d1, d2, d3, d4 = d1.real, d2.real, d3.real, d4.real
        if _block_ok(c14.real * c14.real + c14.imag * c14.imag, d1, d4) and _block_ok(
            c23.real * c23.real + c23.imag * c23.imag, d2, d3
        ):
            return rho, entries
        lo = min(_smaller_block_eigenvalue(d1, d4, c14), _smaller_block_eigenvalue(d2, d3, c23))
    raise InvalidStateError(f"{name} is not positive semidefinite (min eigenvalue {lo:.3e})")


def from_x_params(p: XStateParams) -> np.ndarray:
    """Build the 4x4 density operator for a validated X-state parameter set."""
    d1, d2, d3, d4, c14, c23 = p.validate()
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = d1, d2, d3, d4
    rho[0, 3] = rho[3, 0] = c14
    rho[1, 2] = rho[2, 1] = c23
    return rho


def _off_x(rows) -> tuple:
    """The eight entries of a 4x4 matrix's rows off both diagonals."""
    (_, a, b, _), (c, _, _, d), (e, _, _, f), (_, g, h, _) = rows
    return a, b, c, d, e, f, g, h


def _x_entries(rows) -> tuple:
    """The entries d1, d2, d3, d4, c14 and c23 of a 4x4 matrix's rows."""
    (d1, _, _, c14), (_, d2, c23, _), (_, _, d3, _), (_, _, _, d4) = rows
    return d1, d2, d3, d4, c14, c23


def is_x_structured(rho: np.ndarray) -> bool:
    """True when every entry of the 4x4 `rho` off both diagonals is exactly 0; nan is not 0."""
    return not any(_off_x(as_square(rho, "state").tolist()))


def x_params_from_density(rho: np.ndarray) -> XStateParams:
    """Read the six X-state parameters back out of a density matrix.

    `rho` must be 4x4 and X structured (see `is_x_structured`), with real X
    entries: any nonzero entry off both diagonals, or any nonzero imaginary
    part of an X entry, raises InvalidStateError.
    """
    rows = as_square(rho, "state").tolist()
    if any(_off_x(rows)):
        raise InvalidStateError("density matrix is not X structured")
    picked = _x_entries(rows)
    if any(z.imag for z in picked):
        raise InvalidStateError("X entries carry a nonzero imaginary part")
    return XStateParams(*(z.real for z in picked))


def bell_mixture(nu: float) -> XStateParams:
    """Convex mixture nu * phi+ plus (1 - nu) * psi+ in X-parameter form.

    At nu = 0 the state is (|00> + |11>)/sqrt(2), at nu = 1 it is
    (|01> + |10>)/sqrt(2); in between it stays an X state with diagonal
    ((1-nu)/2, nu/2, nu/2, (1-nu)/2) and coherences c14 = (1-nu)/2,
    c23 = nu/2.  An array of nu gives a batch.
    """
    nu = DOMAINS["nu"].check(nu, "mixing parameter nu", InvalidStateError)
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
