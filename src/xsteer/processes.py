"""Physical processes acting on two-qubit states.

Three families are implemented:

* uniform acceleration of one or both qubits (Rindler mode mixing with
  parameter r in [0, pi/4] per qubit), with both a closed form and an
  independent enlarged-space oracle used to cross-check it,
* local non-Markovian noise via Kraus channels (amplitude damping and pure
  dephasing), parameterized by the dimensionless pair (g/gamma, gamma*t),
* entanglement swapping by projecting the middle pair of two entangled
  pairs onto a chosen Bell state.

Every process maps X states to X states.  `accelerated_params`,
`damped_params`, `dephased_params` and `swapped_params` give the output's
X parameters in closed form, for one state or a batch (array fields); the
sweeps run on them.  The matrix path (`accelerate_oracle`, the Kraus
operators with `apply_local_channel`, `bell_project_swap`) works on the
density matrices themselves and serves as the independent oracle.  Channels
run as contractions over qubit indices and swapping as two 4x4 matrix
products; neither builds a 16x16 operator.  `accelerate_oracle` alone keeps
an enlarged 16-dimensional state, since building it is what makes that path
independent of the closed form; it forms the state from outer products of
the Rindler images and traces out both region-II modes in one fixed
contraction.
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


# ---------------------------------------------------------------------------
# Acceleration
# ---------------------------------------------------------------------------

def _check_acceleration(nu: float, r_a: float, r_b: float) -> None:
    DOMAINS["nu"].check(nu, "nu", InvalidStateError)
    DOMAINS["r"].check(r_a, "r_a", InvalidStateError)
    DOMAINS["r"].check(r_b, "r_b", InvalidStateError)


def accelerated_params(nu, r_a, r_b) -> XStateParams:
    """Closed-form X parameters of the Bell mixture seen after acceleration.

    Re-derived by substituting the Rindler mode decomposition into the
    nu-mixture and tracing out the hidden-region factors; at r_a = r_b = 0
    it reduces exactly to bell_mixture(nu).  The populations sum to one
    identically in (nu, r_a, r_b).  Arrays of any argument give a batch.
    """
    _check_acceleration(nu, r_a, r_b)
    w = (1.0 - nu) / 2.0
    v = nu / 2.0
    ca, sa = np.cos(r_a), np.sin(r_a)
    cb, sb = np.cos(r_b), np.sin(r_b)
    ca2, sa2, cb2, sb2 = ca * ca, sa * sa, cb * cb, sb * sb
    return XStateParams(
        d1=w * ca2 * cb2,
        d2=ca2 * (w * sb2 + v),
        d3=cb2 * (w * sa2 + v),
        d4=sa2 * (w * sb2 + v) + v * sb2 + w,
        c14=w * ca * cb,
        c23=v * ca * cb,
    )


def accelerate(nu: float, r_a: float, r_b: float) -> np.ndarray:
    """Accelerated two-qubit state as a 4x4 density matrix."""
    return from_x_params(accelerated_params(nu, r_a, r_b))


# The image of |1> in the (region I, region II) product space, indexed as
# 2*i_I + i_II, for every r; read only, since every call shares it.
_RINDLER_ONE = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
_RINDLER_ONE.flags.writeable = False


def _rindler_images(r: float) -> tuple[np.ndarray, np.ndarray]:
    # Images of |0> and |1> in the (region I, region II) product space.
    zero = np.array([math.cos(r), 0.0, 0.0, math.sin(r)], dtype=complex)
    return zero, _RINDLER_ONE


# The partial trace over A_II and B_II of a 16x16 matrix on the modes
# (A_I, A_II, B_I, B_II), reshaped to a row and a column index per mode.
_TRACE_REGION_II = "abcdebgd->aceg"


def accelerate_oracle(nu: float, r_a: float, r_b: float) -> np.ndarray:
    """Brute-force path for `accelerate`: build the enlarged pure states.

    Each computational basis vector of the pair is replaced by its
    four-mode image (ordering A_I, A_II, B_I, B_II), the mixture is formed
    in the 16-dimensional space, and both region-II factors are traced out.
    Kept deliberately independent of the closed form so the two can be
    compared elementwise.
    """
    _check_acceleration(nu, r_a, r_b)
    za, oa = _rindler_images(r_a)
    zb, ob = _rindler_images(r_b)
    s = 1.0 / math.sqrt(2.0)
    outer = np.multiply.outer
    psi = s * (outer(za, zb) + outer(oa, ob)).reshape(16)   # from (|00> + |11>)/sqrt(2)
    phi = s * (outer(za, ob) + outer(oa, zb)).reshape(16)   # from (|01> + |10>)/sqrt(2)
    rho16 = nu * outer(phi, phi.conj()) + (1.0 - nu) * outer(psi, psi.conj())
    return np.einsum(_TRACE_REGION_II, rho16.reshape((2,) * 8)).reshape(4, 4)


# ---------------------------------------------------------------------------
# Noisy channels
# ---------------------------------------------------------------------------

def _check_channel(g_over_gamma: float, gamma_t: float, rate: str) -> None:
    DOMAINS[rate].check(g_over_gamma, "g/gamma", ChannelParameterError)
    DOMAINS["gamma_t"].check(gamma_t, "gamma*t", ChannelParameterError)


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
    _check_channel(g_over_gamma, gamma_t, "g_over_gamma_ad")
    r = g_over_gamma
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
    _check_channel(g_over_gamma, gamma_t, "g_over_gamma")
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


def damped_params(p: XStateParams, survival) -> XStateParams:
    """X parameters after amplitude damping with survival P on both qubits.

    Each qubit's |1> population decays to |0> with probability Q = 1 - P,
    so the populations move toward |00> and both coherences scale by
    sqrt(P) per qubit, P in all.  This is `apply_local_channel` with
    `amplitude_damping_kraus` on both qubits, in closed form.
    """
    q = 1.0 - survival
    return XStateParams(
        d1=p.d1 + q * p.d2 + q * p.d3 + q * q * p.d4,
        d2=survival * (p.d2 + q * p.d4),
        d3=survival * (p.d3 + q * p.d4),
        d4=survival * survival * p.d4,
        c14=survival * p.c14,
        c23=survival * p.c23,
    )


def dephased_params(p: XStateParams, coherence) -> XStateParams:
    """X parameters after pure dephasing with factor P on both qubits.

    The populations stay; both coherences scale by P^2.  This is
    `apply_local_channel` with `dephasing_kraus` on both qubits, in closed form.
    """
    scale = coherence * coherence
    return XStateParams(p.d1, p.d2, p.d3, p.d4, c14=scale * p.c14, c23=scale * p.c23)


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

    rho = sum_ij (K_i^A x K_j^B) rho0 (K_i^A x K_j^B)^dag, formed as two
    contractions on rho0 reshaped to (2, 2, 2, 2): first each K_j^B on B's
    indices, then each K_i^A on A's.  Both operator sets must be non-empty
    lists of 2x2 operators that satisfy the completeness relation within
    1e-12, which a nan or inf entry fails.
    """
    ka = _checked_kraus(kraus_a, "A")
    kb = _checked_kraus(kraus_b, "B")
    rho = as_square(rho0, "rho0").reshape(2, 2, 2, 2)
    rho = np.einsum("jyb,abAB,jYB->ayAY", kb, rho, kb.conj())
    rho = np.einsum("ixa,ayAY,iXA->xyXY", ka, rho, ka.conj())
    return rho.reshape(4, 4)


# ---------------------------------------------------------------------------
# Entanglement swapping
# ---------------------------------------------------------------------------

# Entry (xX, yY) of a regrouped two-qubit matrix is flat entry
# 4 (2x + y) + 2X + Y of the matrix with entries (xy, XY).
_REALIGN = np.arange(16).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def _realign(m: np.ndarray) -> np.ndarray:
    """Regroup a 4x4 two-qubit matrix with entries (xy, XY) to entries (xX, yY).

    The map is its own inverse; one `take` gathers the permuted entries.
    """
    return m.take(_REALIGN)


# The Bell projection of `bell_project_swap` as a 4x4 kernel per outcome:
# entry (bB, cC) is conj(k_bc) k_BC, with k the Bell ket as a 2x2 array.
_SWAP_KERNELS = {
    which: np.kron(which.ket.reshape(2, 2).conj(), which.ket.reshape(2, 2)) for which in BellIndex
}


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

    Projecting qubits 2, 3 onto psi+- (|00> +- |11>)/sqrt(2) leaves qubits 1, 4
    in an X state: with a = p12 and b = p34, the outcome has probability
    W = [(a1 + a3)(b1 + b2) + (a2 + a4)(b3 + b4)] / 2, and after dividing
    by W the populations are (a1 b1 + a2 b3, a1 b2 + a2 b4, a3 b1 + a4 b3,
    a3 b2 + a4 b4) / 2 and the coherences +-(a14 b14 + a23 b23) / 2 and
    +-(a14 b23 + a23 b14) / 2.  The phi+- outcomes are the psi+- ones with
    qubit 3 flipped, which swaps b's populations in pairs and its two
    coherences.  Outcomes with W below 1e-12 are rejected, and `which`
    must be a BellIndex member.
    """
    _check_bell(which)
    p12.validate("rho12")
    p34.validate("rho34")
    a, b = p12, p34
    if which in (BellIndex.PHI_PLUS, BellIndex.PHI_MINUS):
        b = XStateParams(b.d3, b.d4, b.d1, b.d2, c14=b.c23, c23=b.c14)
    weight = 0.5 * ((a.d1 + a.d3) * (b.d1 + b.d2) + (a.d2 + a.d4) * (b.d3 + b.d4))
    row = failing_row(weight >= SWAP_PROBABILITY_FLOOR)
    if row is not None:
        raise ZeroProbabilityOutcomeError(
            f"Bell outcome {which.value} has probability {row_value(weight, row):.3e}"
        )
    half = 0.5 / weight
    signed = -half if which in (BellIndex.PSI_MINUS, BellIndex.PHI_MINUS) else half
    return XStateParams(
        d1=half * (a.d1 * b.d1 + a.d2 * b.d3),
        d2=half * (a.d1 * b.d2 + a.d2 * b.d4),
        d3=half * (a.d3 * b.d1 + a.d4 * b.d3),
        d4=half * (a.d3 * b.d2 + a.d4 * b.d4),
        c14=signed * (a.c14 * b.c14 + a.c23 * b.c23),
        c23=signed * (a.c14 * b.c23 + a.c23 * b.c14),
    )


def swap_bell_mixtures(nu: float, which: BellIndex = BellIndex.PSI_PLUS) -> np.ndarray:
    """Swap two copies of the nu Bell mixture through one Bell outcome."""
    pair = from_x_params(bell_mixture(nu))
    return bell_project_swap(pair, pair, which)
