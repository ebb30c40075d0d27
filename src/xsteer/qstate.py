"""Construction and algebra of one- and two-qubit density operators.

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
    rows = np.flatnonzero(~ok)
    return int(rows[0]) if rows.size else None


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

    def validate(self) -> "XStateParams":
        """Check normalization and positivity of the two 2x2 blocks.

        Raises InvalidStateError naming the offending field, for the first
        failing row of a batch.
        """
        for name, value in zip(("d1", "d2", "d3", "d4"), self.diagonal):
            row = failing_row((0.0 <= value) & (value <= 1.0))
            if row is not None:
                raise InvalidStateError(f"{name} must lie in [0, 1], got {row_value(value, row)}")
        total = self.d1 + self.d2 + self.d3 + self.d4
        row = failing_row(abs(total - 1.0) <= TRACE_TOL)
        if row is not None:
            raise InvalidStateError(
                f"diagonal entries must sum to 1, got {row_value(total, row)!r}"
            )
        for c_name, c, d_names, da, db, block in (
            ("c14", self.c14, "d1*d4", self.d1, self.d4, "outer"),
            ("c23", self.c23, "d2*d3", self.d2, self.d3, "inner"),
        ):
            row = failing_row(c * c <= da * db + 1e-12)
            if row is not None:
                c, da, db = (row_value(v, row) for v in (c, da, db))
                raise InvalidStateError(
                    f"{c_name}^2 = {c ** 2} exceeds {d_names} = {da * db}; "
                    f"{block} 2x2 block is not positive semidefinite"
                )
        return self


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

    @property
    def projector(self) -> np.ndarray:
        k = self.ket
        return np.outer(k, k.conj())


def check_density(rho: np.ndarray, name: str = "state") -> np.ndarray:
    """Validate Hermiticity, unit trace and positive semidefiniteness.

    Works for any 2^n x 2^n operator; returns the input unchanged so it can
    be used inline.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"{name} must be a square matrix, got shape {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > HERMITICITY_TOL:
        raise InvalidStateError(f"{name} is not Hermitian (defect {herm:.3e})")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvalidStateError(f"{name} does not have unit trace (trace {tr!r})")
    lo = float(np.min(np.linalg.eigvalsh(rho)))
    if lo < EIGENVALUE_TOL:
        raise InvalidStateError(f"{name} is not positive semidefinite (min eigenvalue {lo:.3e})")
    return rho


def check_x_density(p: XStateParams, name: str = "state") -> XStateParams:
    """`check_density`'s trace and eigenvalue checks on X parameters.

    The spectrum of an X state is the union of the spectra of its outer
    block [[d1, c14], [c14, d4]] and inner block [[d2, c23], [c23, d3]], so
    the smallest eigenvalue is the smaller of the two lower block
    eigenvalues. The matrix is real symmetric, hence Hermitian.  Returns
    the input; for a batch it raises for the first failing row.
    """
    tr = p.d1 + p.d2 + p.d3 + p.d4
    row = failing_row(abs(tr - 1.0) <= TRACE_TOL)
    if row is not None:
        raise InvalidStateError(f"{name} does not have unit trace (trace {row_value(tr, row)!r})")
    lo = np.minimum(
        0.5 * (p.d1 + p.d4) - np.hypot(0.5 * (p.d1 - p.d4), p.c14),
        0.5 * (p.d2 + p.d3) - np.hypot(0.5 * (p.d2 - p.d3), p.c23),
    )
    row = failing_row(lo >= EIGENVALUE_TOL)
    if row is not None:
        raise InvalidStateError(
            f"{name} is not positive semidefinite (min eigenvalue {row_value(lo, row):.3e})"
        )
    return p


def from_x_params(p: XStateParams) -> np.ndarray:
    """Build the 4x4 density operator for a validated X-state parameter set."""
    p.validate()
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = p.d1, p.d2, p.d3, p.d4
    rho[0, 3] = rho[3, 0] = p.c14
    rho[1, 2] = rho[2, 1] = p.c23
    return rho


# Flat indices of the eight entries off both diagonals of a 4x4 matrix, and
# of the X entries d1, d2, d3, d4, c14 and c23.
_OFF_X = np.flatnonzero(~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]))
_X_ENTRIES = np.array([0, 5, 10, 15, 3, 6])


def is_x_structured(rho: np.ndarray, tol: float = X_STRUCTURE_TOL) -> bool:
    """True when every entry off the diagonal and anti-diagonal is negligible."""
    return float(np.abs(np.asarray(rho).reshape(16)[_OFF_X]).max()) <= tol


def x_params_from_density(
    rho: np.ndarray, tol: float = X_STRUCTURE_TOL, *, real_parts: bool = False
) -> XStateParams:
    """Read the six X-state parameters back out of a density matrix.

    The X structure is checked on `rho` itself.  X entries with an imaginary
    part above `tol` raise InvalidStateError unless `real_parts` is set,
    which keeps their real parts instead.
    """
    rho = np.asarray(rho)
    if not is_x_structured(rho, tol):
        raise InvalidStateError("density matrix is not X structured")
    picked = rho.reshape(16)[_X_ENTRIES]
    if not real_parts and float(np.abs(picked.imag).max()) > tol:
        raise InvalidStateError("X entries carry a non-negligible imaginary part")
    return XStateParams(*picked.real.tolist())


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


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, left factor first."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Trace out all qubits not listed in `keep` (indices from the left).

    The kept qubits stay in their original relative order.
    """
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[0].bit_length() - 1
    if rho.shape != (2 ** n, 2 ** n):
        raise InvalidStateError(f"expected a 2^n x 2^n matrix, got shape {rho.shape}")
    keep = tuple(keep)
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = list(letters[:n])
    col = list(letters[n:2 * n])
    for q in range(n):
        if q not in keep:
            col[q] = row[q]
    out = "".join(row[q] for q in keep) + "".join(col[q] for q in keep)
    reduced = np.einsum("".join(row + col) + "->" + out, rho.reshape((2,) * (2 * n)))
    dim = 2 ** len(keep)
    return reduced.reshape(dim, dim)


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
