"""Physical processes acting on two-qubit states.

Three families are implemented:

* uniform acceleration of one or both qubits (Rindler mode mixing with
  parameter r in [0, pi/4] per qubit), with both a closed form and an
  independent enlarged-space oracle used to cross-check it,
* local non-Markovian noise via Kraus channels (amplitude damping and pure
  dephasing), parameterized by the dimensionless pair (g/gamma, gamma*t),
* entanglement swapping by projecting the middle pair of two entangled
  pairs onto a chosen Bell state.

Every process maps X states to X states.  Acceleration, amplitude damping
and dephasing act on each qubit as a phase-covariant channel: a 2x2 matrix
T that maps the qubit's populations (p0, p1) to T (p0, p1), and a factor
lambda that scales its coherence.  `local_params` is their one closed form,
for one state or a batch (array fields), and each process supplies only its
channel (T as (t00, t01, t10, t11), then lambda), built and domain-checked
by `acceleration_channel` from r, or by `damping_channel` and
`dephasing_channel` from (g/gamma, gamma*t), as their Kraus operators are:

    acceleration       T = [[cos^2 r, 0], [sin^2 r, 1]]   lambda = cos r
    amplitude damping  T = [[1, 1 - P], [0, P]]           lambda = sqrt(P)
    dephasing          T = [[1, 0], [0, 1]]               lambda = P

with P = `ad_survival` for damping and `dephasing_coherence` for dephasing.
Acceleration, as modelled here, is the local channel that raises
population from |0> to |1> with probability sin^2 r.  `swapped_params`
gives swapping's output in closed form.  The sweeps run on these.  The
matrix path (`accelerate_oracle`, the Kraus operators with
`apply_local_channel`, `bell_project_swap`) is the independent oracle,
written as the formulas it checks in 4x4 matrix products: sum_k K_k rho
K_k^dag, the partial trace m m^dag of each enlarged pure state, and the
Bell projection around a fixed kernel.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .qstate import (
    DOMAINS,
    BellIndex,
    InvalidStateError,
    XStateParams,
    as_square,
    bell_mixture,
    check_density,
    failing_row,
    from_x_params,
    row_value,
)

COMPLETENESS_TOL = 1e-12
SWAP_PROBABILITY_FLOOR = 1e-12
_SMALLEST_NORMAL = float(np.finfo(float).tiny)


class ChannelParameterError(ValueError):
    """Channel parameters outside the supported regime."""


class ZeroProbabilityOutcomeError(ValueError):
    """The chosen Bell outcome has vanishing probability for these inputs."""


# Entry (xX, yY) of a regrouped two-qubit matrix is flat entry
# 4 (2x + y) + 2X + Y of the matrix with entries (xy, XY).
_REALIGN = np.arange(16).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def _realign(m: np.ndarray) -> np.ndarray:
    """Regroup a 4x4 two-qubit matrix with entries (xy, XY) to entries (xX, yY); self-inverse."""
    return m.take(_REALIGN)


# Each Bell ket as its 2x2 coefficient matrix k: entry (a, b) is the amplitude of |ab>.
_BELL_COEFFICIENTS = {which: which.ket.reshape(2, 2) for which in BellIndex}


# ---------------------------------------------------------------------------
# Local phase-covariant channels
# ---------------------------------------------------------------------------

def _populations(channel: tuple, p0, p1) -> tuple:
    """T (p0, p1) for the channel's T = [[t00, t01], [t10, t11]]."""
    return channel[0] * p0 + channel[1] * p1, channel[2] * p0 + channel[3] * p1


def local_params(p: XStateParams, channel_a: tuple, channel_b: tuple) -> XStateParams:
    """X parameters after independent phase-covariant channels on qubits A and B.

    Each channel is (t00, t01, t10, t11, lam): T = [[t00, t01], [t10, t11]]
    maps the qubit's populations (p0, p1) to T (p0, p1), and lam scales its
    coherence.  B's T acts on the pairs (d1, d2) and (d3, d4), then A's on
    (d1, d3) and (d2, d4), and both coherences scale by lam_A lam_B.  This
    is `apply_local_channel` with the channels' Kraus operators, in closed
    form.  The fields of `p` are read as float64 and the channel entries
    used as given; neither is checked, so a sweep checks each state once,
    on the output, and the channel builders check their own parameters.
    """
    d1, d2, d3, d4, c14, c23 = p._read()
    d1, d2 = _populations(channel_b, d1, d2)
    d3, d4 = _populations(channel_b, d3, d4)
    d1, d3 = _populations(channel_a, d1, d3)
    d2, d4 = _populations(channel_a, d2, d4)
    lam = channel_a[4] * channel_b[4]
    return XStateParams(d1, d2, d3, d4, c14=lam * c14, c23=lam * c23)


# ---------------------------------------------------------------------------
# Acceleration
# ---------------------------------------------------------------------------

def acceleration_channel(r, name: str) -> tuple:
    """The channel of a qubit accelerated by r: T = [[cos^2 r, 0], [sin^2 r, 1]], lam = cos r.

    r outside [0, pi/4] raises InvalidStateError naming it `name`, as
    "r_a" or "r_b".  An array of r gives one channel per entry.
    """
    r = DOMAINS["r"].check(r, name, InvalidStateError)
    c, s = np.cos(r), np.sin(r)
    return c * c, 0.0, s * s, 1.0, c


def accelerate(nu: float, r_a: float, r_b: float) -> np.ndarray:
    """Accelerated two-qubit state as a 4x4 density matrix: `local_params` of the nu mixture."""
    mixture = bell_mixture(nu)
    channel_a, channel_b = acceleration_channel(r_a, "r_a"), acceleration_channel(r_b, "r_b")
    return from_x_params(local_params(mixture, channel_a, channel_b))


def _rindler_images(r: float) -> np.ndarray:
    # Images of |0> and |1> in the (region I, region II) space, indexed 2 i_I + i_II.
    return np.array([[math.cos(r), 0.0, 0.0, math.sin(r)], [0.0, 0.0, 1.0, 0.0]], dtype=complex)


def accelerate_oracle(nu: float, r_a: float, r_b: float) -> np.ndarray:
    """Brute-force path for `accelerate`: build the enlarged pure states.

    Each Bell state of the mixture, as its coefficient matrix k (entry
    (a, b) the amplitude of |ab>, from `BellIndex.ket`), maps to
    V_A^T k V_B, where row a of V is the image of |a> in a qubit's
    (region I, region II) modes: the enlarged pure state with rows
    (A_I, A_II) and columns (B_I, B_II).  `_realign` regroups it to m with
    rows (A_I, B_I) and columns (A_II, B_II), whose m m^dag is its trace
    over both region-II modes, and the two are mixed with `bell_mixture`'s
    weights, which owns nu's check; `DOMAINS["r"]` checks r_a and r_b.
    Kept independent of the closed form so the two can be compared
    elementwise.
    """
    mixture = bell_mixture(nu)
    r = DOMAINS["r"]
    va = _rindler_images(r.check(r_a, "r_a", InvalidStateError))
    vb = _rindler_images(r.check(r_b, "r_b", InvalidStateError))
    phi, psi = _BELL_COEFFICIENTS[BellIndex.PHI_PLUS], _BELL_COEFFICIENTS[BellIndex.PSI_PLUS]
    m_phi, m_psi = _realign(va.T @ phi @ vb), _realign(va.T @ psi @ vb)
    weight_phi, weight_psi = 2.0 * mixture.d2, 2.0 * mixture.d1  # nu and 1 - nu
    return weight_phi * (m_phi @ m_phi.conj().T) + weight_psi * (m_psi @ m_psi.conj().T)


# ---------------------------------------------------------------------------
# Noisy channels
# ---------------------------------------------------------------------------

def _check_channel(g_over_gamma, gamma_t, rate: str) -> tuple:
    """g/gamma, checked against DOMAINS[rate], and gamma*t as their domain checks read them."""
    g_over_gamma = DOMAINS[rate].check(g_over_gamma, "g/gamma", ChannelParameterError)
    return g_over_gamma, DOMAINS["gamma_t"].check(gamma_t, "gamma*t", ChannelParameterError)


def _product(a, b):
    """a * b, inf past the largest double, without numpy's overflow warning.

    Both callers read such an inf as its limit: `ad_survival`'s exp(-inf)
    is 0, and in `dephasing_coherence` expm1(-x)/x tends to 0.  Python
    floats overflow to inf silently, so two of them skip np.errstate, which
    costs more than a Kraus builder's arithmetic.
    """
    if type(a) is float and type(b) is float:
        return a * b
    with np.errstate(over="ignore"):
        return a * b


def ad_survival(g_over_gamma, gamma_t):
    """Excited-state survival probability of the damped qubit.

    P(t) = e^{-g t} [cos(l t / 2) + (g / l) sin(l t / 2)]^2 with
    l = sqrt(g (2 gamma - g)), written in the dimensionless variables
    R = g/gamma and tau = gamma t.  P(0) = 1 and P <= 1 for all times;
    R >= 2 makes l imaginary and is rejected.  An array of times gives one
    P per time.
    """
    r, gamma_t = _check_channel(g_over_gamma, gamma_t, "g_over_gamma_ad")
    lam = np.sqrt(r * (2.0 - r))
    half_phase = 0.5 * lam * gamma_t
    amp = np.cos(half_phase) + (r / lam) * np.sin(half_phase)
    return np.minimum(1.0, np.exp(_product(-r, gamma_t)) * amp * amp)


def amplitude_damping_kraus(g_over_gamma: float, gamma_t: float) -> list[np.ndarray]:
    """Kraus operators of the non-Markovian amplitude-damping channel.

    With P the survival probability:

        K1 = |0><0| + sqrt(P) |1><1|        K2 = sqrt(1 - P) |0><1|

    At gamma_t = 0, P = 1 and the channel is exactly the identity map; as
    gamma_t grows everything relaxes toward |0><0|.
    """
    p = ad_survival(g_over_gamma, gamma_t)
    k1 = np.array([[1.0, 0.0], [0.0, math.sqrt(p)]], dtype=complex)
    k2 = np.array([[0.0, math.sqrt(1.0 - p)], [0.0, 0.0]], dtype=complex)
    return [k1, k2]


def dephasing_coherence(g_over_gamma, gamma_t):
    """Coherence retention factor of the pure-dephasing channel.

    P(t) = exp{-(gamma/2) (t + g^{-1} [e^{-g t} - 1])} in the same
    dimensionless variables; monotone from 1 toward 0.  With x = (g/gamma) tau
    the bracket is tau (1 + expm1(-x)/x): expm1 keeps it accurate for small
    g/gamma, where it tends to (g/gamma) tau^2 / 2, and dividing by x rather
    than by g/gamma keeps it accurate when g/gamma is subnormal.  An array of
    times gives one P per time.
    """
    g_over_gamma, gamma_t = _check_channel(g_over_gamma, gamma_t, "g_over_gamma")
    # Below the smallest normal double expm1(-x) / x is exactly -1, so raising
    # x to it changes nothing except at x = 0, where the bracket is 0.
    x = np.maximum(_product(g_over_gamma, gamma_t), _SMALLEST_NORMAL)
    bracket = gamma_t * (1.0 + np.expm1(-x) / x)
    return np.minimum(1.0, np.exp(-0.5 * bracket))


def dephasing_kraus(g_over_gamma: float, gamma_t: float) -> list[np.ndarray]:
    """Kraus operators of the pure-dephasing channel.

        K1 = |0><0| + P |1><1|        K2 = sqrt(1 - P^2) |1><1|

    Populations are untouched; each local coherence is scaled by P, so a
    two-qubit X state keeps its diagonal and has both anti-diagonal entries
    multiplied by P^2 when the channel acts on both qubits.
    """
    p = dephasing_coherence(g_over_gamma, gamma_t)
    k1 = np.array([[1.0, 0.0], [0.0, p]], dtype=complex)
    k2 = np.array([[0.0, 0.0], [0.0, math.sqrt(1.0 - p * p)]], dtype=complex)
    return [k1, k2]


def damping_channel(g_over_gamma, gamma_t) -> tuple:
    """The amplitude-damping channel: T = [[1, 1 - P], [0, P]], lam = sqrt(P).

    P is `ad_survival(g_over_gamma, gamma_t)`, which checks both parameters,
    as for `amplitude_damping_kraus`.  An array of times gives one channel
    per time.
    """
    survival = ad_survival(g_over_gamma, gamma_t)
    return 1.0, 1.0 - survival, 0.0, survival, np.sqrt(survival)


def dephasing_channel(g_over_gamma, gamma_t) -> tuple:
    """The pure-dephasing channel: T the identity, lam = P.

    P is `dephasing_coherence(g_over_gamma, gamma_t)`, which checks both
    parameters, as for `dephasing_kraus`.  An array of times gives one
    channel per time.
    """
    return 1.0, 0.0, 0.0, 1.0, dephasing_coherence(g_over_gamma, gamma_t)


def completeness_defect(kraus: list[np.ndarray]) -> float:
    """Max elementwise deviation of sum K^dag K from the identity.

    `kraus` is a non-empty list of equal-shape operators or their stack.
    sum_k K_k^dag K_k is M^dag M for the operators stacked into one tall
    matrix M, so entry (i, l) is the inner product of M's columns i and l;
    it is Hermitian, so the pairs i <= l give every deviation.  The sums
    run on Python complex numbers, which for a few 2x2 operators cost less
    than numpy's calls.  A nan or inf entry gives a nan or inf defect, so
    it fails every `defect <= tolerance` test.
    """
    k = np.asarray(kraus, dtype=complex)
    columns = list(zip(*k.reshape(-1, k.shape[-1]).tolist()))
    defects = []
    try:
        for i, column in enumerate(columns):
            conjugated = [a.conjugate() for a in column]
            for l in range(i, len(columns)):
                defects.append(abs(sum(map(operator.mul, conjugated, columns[l])) - (i == l)))
    except OverflowError:  # abs of a finite complex past the largest double
        return math.inf
    # max skips a nan unless it comes first; the sum of terms >= 0 is nan
    # only through a nan term.
    return math.nan if math.isnan(sum(defects)) else max(defects)


def _checked_kraus(kraus, name: str) -> np.ndarray:
    """The Kraus operators of qubit `name`'s channel as one complex stack, checked.

    Raises ChannelParameterError naming the qubit for operators that do not
    stack (unequal shapes), an empty set, operators that are not 2x2, or a
    completeness defect above COMPLETENESS_TOL, which a nan defect fails too.
    """
    try:
        ops = np.asarray(kraus, dtype=complex)
    except ValueError as exc:
        raise ChannelParameterError(
            f"channel on qubit {name} has Kraus operators that do not stack into one array"
        ) from exc
    if not ops.size:
        raise ChannelParameterError(f"channel on qubit {name} has no Kraus operators")
    if ops.shape[1:] != (2, 2):
        raise ChannelParameterError(
            f"channel on qubit {name} needs a list of 2x2 Kraus operators, got shape {ops.shape}"
        )
    defect = completeness_defect(ops)
    if not defect <= COMPLETENESS_TOL:
        raise ChannelParameterError(
            f"channel on qubit {name} is not trace preserving (defect {defect:.3e})"
        )
    return ops


def apply_local_channel(
    rho0: np.ndarray, kraus_a: list[np.ndarray], kraus_b: list[np.ndarray]
) -> np.ndarray:
    """Evolve the 4x4 rho0 under independent local channels on qubits A and B.

    rho = sum_ij (K_i^A x K_j^B) rho0 (K_i^A x K_j^B)^dag, as 4x4 matrix
    products over the stack of every K_i^A x K_j^B.  Both operator sets must
    be non-empty lists of 2x2 operators that satisfy the completeness
    relation within 1e-12, which a nan or inf entry fails.
    """
    ka = _checked_kraus(kraus_a, "A")
    kb = _checked_kraus(kraus_b, "B")
    # K_i^A x K_j^B: entry (ac, bd) of product ij is K_i^A[a, b] K_j^B[c, d].
    k = np.multiply.outer(ka, kb).transpose(0, 3, 1, 4, 2, 5).reshape(-1, 4, 4)
    return (k @ as_square(rho0, "rho0") @ k.conj().transpose(0, 2, 1)).sum(axis=0)


# ---------------------------------------------------------------------------
# Entanglement swapping
# ---------------------------------------------------------------------------

# The Bell projection of `bell_project_swap` as a 4x4 kernel per outcome:
# entry (bB, cC) is conj(k_bc) k_BC, with k the Bell state's coefficients.
_SWAP_KERNELS = {which: np.kron(k.conj(), k) for which, k in _BELL_COEFFICIENTS.items()}


def _check_bell(which) -> None:
    """Raise ValueError unless `which` is a BellIndex member; its value alone is not."""
    if not isinstance(which, BellIndex):
        members = ", ".join(f"BellIndex.{b.name}" for b in BellIndex)
        raise ValueError(f"which must be one of {members}, got {which!r}")


def bell_project_swap(
    rho12: np.ndarray, rho34: np.ndarray, which: BellIndex
) -> np.ndarray:
    """Post-measurement state of qubits 1 and 4 after a Bell projection on 2, 3.

    The four-qubit input is rho12 x rho34 in qubit order 1, 2, 3, 4; the
    middle pair is projected onto the chosen Bell state and the outcome is
    renormalized by its probability (post-selection).  Outcomes with
    probability below 1e-12 are rejected.  The projection and the trace
    over qubits 2, 3 contract <k| rho12 rho34 |k> over their indices, with
    k the Bell ket: with rho12 regrouped to rows (1, 1') and columns (2, 2'),
    and rho34 to rows (3, 3') and columns (4, 4'), that is two 4x4 matrix
    products around a fixed kernel.  No four-qubit matrix is formed.
    `which` must be a BellIndex member.
    """
    _check_bell(which)
    rho12 = check_density(rho12, "rho12")
    rho34 = check_density(rho34, "rho34")
    kept = _realign(_realign(rho12) @ _SWAP_KERNELS[which] @ _realign(rho34))
    # ndarray.trace's pairing of the four diagonal entries, without its call
    weight = ((kept[0, 0] + kept[1, 1]) + (kept[2, 2] + kept[3, 3])).real
    if weight < SWAP_PROBABILITY_FLOOR:
        raise ZeroProbabilityOutcomeError(
            f"Bell outcome {which.value} has probability {weight:.3e}"
        )
    return kept / weight


def swapped_params(p12: XStateParams, p34: XStateParams, which: BellIndex) -> XStateParams:
    """Closed form of `bell_project_swap` for two X states.

    Projecting qubits 2, 3 onto psi+- (`BellIndex`: |00> +- |11>, normalised)
    leaves qubits 1, 4 in an X state: with a = p12 and b = p34, the outcome
    has probability W = [(a1 + a3)(b1 + b2) + (a2 + a4)(b3 + b4)] / 2, and
    after dividing by W the populations are (a1 b1 + a2 b3, a1 b2 + a2 b4,
    a3 b1 + a4 b3, a3 b2 + a4 b4) / 2 and the coherences
    +-(a14 b14 + a23 b23) / 2 and +-(a14 b23 + a23 b14) / 2.  The phi+-
    outcomes are the psi+- ones with qubit 3 flipped, which swaps b's
    populations in pairs and its two coherences.  Outcomes with W below
    1e-12 are rejected, and `which` must be a BellIndex member.
    """
    _check_bell(which)
    a1, a2, a3, a4, a14, a23 = a = p12.validate("rho12")
    # a pair swapped with itself is checked once
    b1, b2, b3, b4, b14, b23 = a if p34 is p12 else p34.validate("rho34")
    if which in (BellIndex.PHI_PLUS, BellIndex.PHI_MINUS):
        b1, b2, b3, b4, b14, b23 = b3, b4, b1, b2, b23, b14
    weight = 0.5 * ((a1 + a3) * (b1 + b2) + (a2 + a4) * (b3 + b4))
    row = failing_row(weight >= SWAP_PROBABILITY_FLOOR)
    if row is not None:
        raise ZeroProbabilityOutcomeError(
            f"Bell outcome {which.value} has probability {row_value(weight, row):.3e}"
        )
    half = 0.5 / weight
    signed = -half if which in (BellIndex.PSI_MINUS, BellIndex.PHI_MINUS) else half
    return XStateParams(
        d1=half * (a1 * b1 + a2 * b3),
        d2=half * (a1 * b2 + a2 * b4),
        d3=half * (a3 * b1 + a4 * b3),
        d4=half * (a3 * b2 + a4 * b4),
        c14=signed * (a14 * b14 + a23 * b23),
        c23=signed * (a14 * b23 + a23 * b14),
    )


def swap_bell_mixtures(nu: float, which: BellIndex = BellIndex.PSI_PLUS) -> np.ndarray:
    """Swap two copies of the nu Bell mixture through one Bell outcome."""
    pair = from_x_params(bell_mixture(nu))
    return bell_project_swap(pair, pair, which)
