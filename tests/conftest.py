import numpy as np

from xsteer.qstate import BellIndex, XStateParams


def _batch(rows: list[XStateParams]) -> XStateParams:
    """One batch of X parameters, a row per state of `rows`."""
    return XStateParams(*np.array([(p.d1, p.d2, p.d3, p.d4, p.c14, p.c23) for p in rows]).T)


def _projector(which: BellIndex) -> np.ndarray:
    """The density matrix |k><k| of the Bell state `which`."""
    k = which.ket
    return np.outer(k, k.conj())
