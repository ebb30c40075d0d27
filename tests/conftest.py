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
