from dataclasses import astuple
from decimal import Context, Decimal, localcontext

import numpy as np

from xsteer.measures import full_report
from xsteer.processes import (
    accelerate_oracle,
    amplitude_damping_kraus,
    apply_local_channel,
    dephasing_kraus,
    swap_bell_mixtures,
)
from xsteer.qstate import BellIndex, InvalidStateError, XStateParams, bell_mixture, from_x_params
from xsteer.sweep import SweepConfig


def _batch(rows: list[XStateParams]) -> XStateParams:
    """One batch of X parameters, a row per state of `rows`."""
    return XStateParams(*np.array([(p.d1, p.d2, p.d3, p.d4, p.c14, p.c23) for p in rows]).T)


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


def _projector(which: BellIndex) -> np.ndarray:
    """The density matrix |k><k| of the Bell state `which`."""
    k = which.ket
    return np.outer(k, k.conj())


def _matrix_point(cfg: SweepConfig, param: float) -> tuple:
    """One grid point through the 4x4 and 16x16 matrix path: the oracle for evaluate_grid."""
    param = float(param)
    if cfg.mode == "nu":
        rho = from_x_params(bell_mixture(param))
    elif cfg.mode == "acceleration":
        rho = accelerate_oracle(cfg.nu, param, param if cfg.r_b == "track" else cfg.r_b)
    elif cfg.mode in ("ad-channel", "dephasing-channel"):
        kraus = amplitude_damping_kraus if cfg.mode == "ad-channel" else dephasing_kraus
        ops = kraus(cfg.g_over_gamma, param)
        rho = apply_local_channel(from_x_params(bell_mixture(cfg.nu)), ops, ops)
    else:
        rho = swap_bell_mixtures(param, cfg.bell)
    rep = full_report(rho)
    return (param, rep.s, rep.z, rep.e_x, rep.e_y, rep.i_ab)


# Below this size g and expm1 are summed as series: their closed forms
# cancel to t^2 and x there and would lose the digits of the argument's size,
# at most 3 of 60 at the switch.
_SERIES_BELOW = Decimal("1e-3")
_TWO_LN2 = Decimal(4).ln(Context(prec=60))


def _series(first: Decimal, ratio) -> Decimal:
    """first + first * ratio(1) + first * ratio(1) * ratio(2) + ..., to the context's digits."""
    term, total, k = first, Decimal(0), 1
    while total + term != total:
        total, term, k = total + term, term * ratio(k), k + 1
    return total


def _g_reference(t: Decimal) -> Decimal:
    """g(t) = [(1 + t) ln(1 + t) + (1 - t) ln(1 - t)]/2, |t| clamped to 1 as `_g` clamps it.

    Below `_SERIES_BELOW` it is the sum of t^(2k) / (2k (2k - 1)) over k >= 1.
    """
    a = min(abs(t), Decimal(1))
    if a < _SERIES_BELOW:
        a2 = a * a
        return _series(a2 / 2, lambda k: a2 * (2 * k) * (2 * k - 1) / ((2 * k + 2) * (2 * k + 1)))
    return ((1 + a) * (1 + a).ln() + (0 if a == 1 else (1 - a) * (1 - a).ln())) / 2


def _expm1_reference(x: Decimal) -> Decimal:
    """e^x - 1; below `_SERIES_BELOW` in size its Taylor series, the sum of x^n / n! over n >= 1."""
    return _series(x, lambda n: x / (n + 1)) if abs(x) < _SERIES_BELOW else x.exp() - 1


def _decimal_point(p: XStateParams) -> tuple:
    """D_x, D_y, H_z, I_AB, S, E_x, E_y and Z of one X state to 60 digits: the accuracy reference.

    `p`'s six fields are read as the floats they are, exactly, and every
    step runs in `decimal` at 60 significant digits, with the formulas of
    `measures`: t = 2(c14 + c23) and u = 2(c23 - c14), D_x = g(t) and
    D_y = g(u), H_z the conditional entropy of the populations, each raised
    to at least 0, I_AB = 2 ln 2 + 2 delta with delta = D_x + D_y - H_z,
    S = max(0, delta / (2 ln 2)), E_i = max(0, 2 e^(-D_i) expm1(D_i - H_z/2))
    and Z their average.  Returns Decimals of 60 digits; arithmetic on them
    outside such a context rounds to its own precision.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        d1, d2, d3, d4, c14, c23 = (Decimal(float(v)) for v in astuple(p))
        dx, dy = _g_reference(2 * (c14 + c23)), _g_reference(2 * (c23 - c14))
        hz = Decimal(0)
        for a, b in ((max(d1, 0), max(d2, 0)), (max(d3, 0), max(d4, 0))):
            hz -= sum(x * (x / (a + b)).ln() for x in (a, b) if x > 0)
        delta = dx + dy - hz
        e_x, e_y = (
            max(Decimal(0), 2 * (-d).exp() * _expm1_reference(d - hz / 2)) for d in (dx, dy)
        )
        s = max(Decimal(0), delta / _TWO_LN2)
        return dx, dy, hz, _TWO_LN2 + 2 * delta, s, e_x, e_y, (e_x + e_y) / 2
