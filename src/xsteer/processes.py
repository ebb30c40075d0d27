"""Physical processes acting on two-qubit states.

Three families are implemented:

* uniform acceleration of one or both qubits (Rindler mode mixing with
  parameter r in [0, pi/4] per qubit), with both a closed form and an
  independent enlarged-space oracle used to cross-check it,
* local non-Markovian noise via Kraus channels (amplitude damping and pure
  dephasing), parameterized by the dimensionless pair (g/gamma, gamma*t),
* entanglement swapping by projecting the middle pair of two entangled
  pairs onto a chosen Bell state.
"""

from __future__ import annotations

import math

import numpy as np

from .qstate import (
    DOMAINS,
    BellIndex,
    InvalidStateError,
    XStateParams,
    bell_mixture,
    check_density,
    from_x_params,
    partial_trace,
    tensor,
)

COMPLETENESS_TOL = 1e-12
SWAP_PROBABILITY_FLOOR = 1e-12


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


def accelerated_params(nu: float, r_a: float, r_b: float) -> XStateParams:
    """Closed-form X parameters of the Bell mixture seen after acceleration.

    Re-derived by substituting the Rindler mode decomposition into the
    nu-mixture and tracing out the hidden-region factors; at r_a = r_b = 0
    it reduces exactly to bell_mixture(nu).  The populations sum to one
    identically in (nu, r_a, r_b).
    """
    _check_acceleration(nu, r_a, r_b)
    w = (1.0 - nu) / 2.0
    v = nu / 2.0
    ca, sa = math.cos(r_a), math.sin(r_a)
    cb, sb = math.cos(r_b), math.sin(r_b)
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


def _rindler_images(r: float) -> tuple[np.ndarray, np.ndarray]:
    # Images of |0> and |1> in the (region I, region II) product space,
    # indexed as 2*i_I + i_II.
    zero = np.array([math.cos(r), 0.0, 0.0, math.sin(r)], dtype=complex)
    one = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
    return zero, one


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
    psi = s * (np.kron(za, zb) + np.kron(oa, ob))   # from (|00> + |11>)/sqrt(2)
    phi = s * (np.kron(za, ob) + np.kron(oa, zb))   # from (|01> + |10>)/sqrt(2)
    rho16 = nu * np.outer(phi, phi.conj()) + (1.0 - nu) * np.outer(psi, psi.conj())
    return partial_trace(rho16, keep=(0, 2))


# ---------------------------------------------------------------------------
# Noisy channels
# ---------------------------------------------------------------------------

def _check_channel(g_over_gamma: float, gamma_t: float, rate: str) -> None:
    DOMAINS[rate].check(g_over_gamma, "g/gamma", ChannelParameterError)
    DOMAINS["gamma_t"].check(gamma_t, "gamma*t", ChannelParameterError)


def ad_survival(g_over_gamma: float, gamma_t: float) -> float:
    """Excited-state survival probability of the damped qubit.

    P(t) = e^{-g t} [cos(l t / 2) + (g / l) sin(l t / 2)]^2 with
    l = sqrt(g (2 gamma - g)), written in the dimensionless variables
    R = g/gamma and tau = gamma t.  P(0) = 1 and P <= 1 for all times;
    R >= 2 makes l imaginary and is rejected.
    """
    _check_channel(g_over_gamma, gamma_t, "g_over_gamma_ad")
    r = g_over_gamma
    lam = math.sqrt(r * (2.0 - r))
    half_phase = 0.5 * lam * gamma_t
    amp = math.cos(half_phase) + (r / lam) * math.sin(half_phase)
    return min(1.0, math.exp(-r * gamma_t) * amp * amp)


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


def dephasing_coherence(g_over_gamma: float, gamma_t: float) -> float:
    """Coherence retention factor of the pure-dephasing channel.

    P(t) = exp{-(gamma/2) (t + g^{-1} [e^{-g t} - 1])} in the same
    dimensionless variables; monotone from 1 toward 0.  With x = (g/gamma) tau
    the bracket is tau (1 + expm1(-x)/x): expm1 keeps it accurate for small
    g/gamma, where it tends to (g/gamma) tau^2 / 2, and dividing by x rather
    than by g/gamma keeps it accurate when g/gamma is subnormal.
    """
    _check_channel(g_over_gamma, gamma_t, "g_over_gamma")
    x = g_over_gamma * gamma_t
    bracket = gamma_t * (1.0 + math.expm1(-x) / x) if x > 0.0 else 0.0
    return min(1.0, math.exp(-0.5 * bracket))


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


def completeness_defect(kraus: list[np.ndarray]) -> float:
    """Max elementwise deviation of sum K^dag K from the identity."""
    dim = kraus[0].shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for k in kraus:
        acc += k.conj().T @ k
    return float(np.max(np.abs(acc - np.eye(dim))))


def apply_local_channel(
    rho0: np.ndarray, kraus_a: list[np.ndarray], kraus_b: list[np.ndarray]
) -> np.ndarray:
    """Evolve rho0 under independent local channels on qubits A and B.

    rho = sum_ij (K_i^A x K_j^B) rho0 (K_i^A x K_j^B)^dag.  Both operator
    sets must satisfy the completeness relation.
    """
    for name, ops in (("A", kraus_a), ("B", kraus_b)):
        defect = completeness_defect(ops)
        if defect > COMPLETENESS_TOL:
            raise ChannelParameterError(
                f"channel on qubit {name} is not trace preserving (defect {defect:.3e})"
            )
    rho0 = np.asarray(rho0, dtype=complex)
    out = np.zeros_like(rho0)
    for ka in kraus_a:
        for kb in kraus_b:
            op = np.kron(ka, kb)
            out += op @ rho0 @ op.conj().T
    return out


# ---------------------------------------------------------------------------
# Entanglement swapping
# ---------------------------------------------------------------------------

def bell_project_swap(
    rho12: np.ndarray, rho34: np.ndarray, which: BellIndex
) -> np.ndarray:
    """Post-measurement state of qubits 1 and 4 after a Bell projection on 2, 3.

    The four-qubit input is rho12 x rho34 in qubit order 1, 2, 3, 4; the
    middle pair is projected onto the chosen Bell state and the outcome is
    renormalized by its probability (post-selection).  Outcomes with
    probability below 1e-12 are rejected.
    """
    rho12 = check_density(rho12, "rho12")
    rho34 = check_density(rho34, "rho34")
    rho = tensor(rho12, rho34)
    m = np.kron(np.kron(np.eye(2, dtype=complex), which.projector), np.eye(2, dtype=complex))
    projected = m @ rho @ m.conj().T
    weight = float(np.trace(projected).real)
    if weight < SWAP_PROBABILITY_FLOOR:
        raise ZeroProbabilityOutcomeError(
            f"Bell outcome {which.value} has probability {weight:.3e}"
        )
    return partial_trace(projected / weight, keep=(0, 3))


def swap_bell_mixtures(nu: float, which: BellIndex = BellIndex.PSI_PLUS) -> np.ndarray:
    """Swap two copies of the nu Bell mixture through one Bell outcome."""
    pair = from_x_params(bell_mixture(nu))
    return bell_project_swap(pair, pair, which)
