"""Every reported quantity against a 60-digit reference, on the presets and at each range's ends.

`conftest._decimal_point` evaluates D_x, D_y, H_z, I_AB, S, E_x, E_y and Z of
the float X parameters exactly as given, once per row for both report
paths.  The sweep path (`_x_sides` and `x_report` on a batch) and the
library path (`full_report` of each row's matrix) must meet each quantity's
budget: its error, in units of EPS times the size of the terms the quantity
is formed from, which is the error a difference of those terms can carry.
The sizes are:

* D_i for D_i, and for H_z, a difference of x ln x sums, h = sum (|x ln x| + x)
  over the populations and qubit A's marginals (`_h`);
* 2 ln 2 + 2 (D_x + D_y + h) for I_AB, and (D_x + D_y + h) / (2 ln 2) + S
  for S = max(0, delta / (2 ln 2)), delta = D_x + D_y - H_z;
* for E_i = 2 e^(-H_z/2) - 2 e^(-D_i), 2 e^(-D_i) D_i + e^(-H_z/2) h + E_i,
  and for Z the mean over x and y.

`full_report` holds H_x = ln 2 - D_x and H_y = ln 2 - D_y, not the deficits,
and a float near ln 2 cannot carry a tiny D's digits: each is bounded
within 16 EPS ln 2 of ln 2 - D instead.

Where the reference is 0, so is every output that reads it (the deficits,
H_z, and S or E_i where delta or D_i - H_z/2 is 0; H_x and H_y are then
ln 2): signs are exact at true zeros.  An error below 1e-300 passes,
underflow included.  Each budget is twice the largest scaled error the code
shows today, rounded up to a power of two, so that a numpy whose log1p,
arctanh or exp differs in the last bit still passes.  S's plain relative error is not bounded here: it reaches
2.6e-12 in `mixture` and 7.7e-9 in `swap`, where delta cancels (ROADMAP
items 7 and 8).

Every printed cell of the preset CSVs' s, z, e_x, e_y and i_ab columns is
the reference rounded to 13 significant digits, or one unit off in the last
digit, except S in `mixture` and `swap`.
"""

import math
from dataclasses import astuple
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
from conftest import _TWO_LN2, _batch, _decimal_point

from xsteer.measures import LN2, _x_sides, full_report, x_report
from xsteer.processes import (
    accelerated_params,
    ad_survival,
    damped_params,
    dephased_params,
    dephasing_coherence,
    swapped_params,
)
from xsteer.qstate import (
    EIGENVALUE_TOL,
    R_MAX,
    BellIndex,
    XStateParams,
    bell_mixture,
    from_x_params,
    random_x_state,
)
from xsteer.sweep import _x_params, figure_presets, run_sweep

EPS = 2.0**-52
UNDERFLOW = 1e-300
TRUE_ZERO = Decimal("1e-50")
QUANTITIES = ("D_x", "D_y", "H_z", "I_AB", "S", "E_x", "E_y", "Z")
BUDGETS = {"D_x": 16, "D_y": 8, "H_z": 1, "I_AB": 4, "S": 4, "E_x": 4, "E_y": 2, "Z": 2}
# full_report's, with H_x and H_y in EPS ln 2 where x_report has the deficits
REPORT_BUDGETS = {"H_x": 16, "H_y": 16, **{q: BUDGETS[q] for q in QUANTITIES[2:]}}
# Each printed column and the index of its quantity in the reference.
CSV_COLUMNS = {"s": 4, "z": 7, "e_x": 5, "e_y": 6, "i_ab": 3}


def _rows(p: XStateParams) -> list[XStateParams]:
    """One XStateParams of floats per row of the batch `p`."""
    fields = [np.ravel(v) for v in np.broadcast_arrays(*astuple(p))]
    return [XStateParams(*(float(v[i]) for v in fields)) for i in range(fields[0].size)]


def _h(p: XStateParams) -> float:
    """The size of H_z's terms: sum (|x ln x| + x) over the populations and qubit A's marginals.

    H_z is the difference of their x ln x sums, and rounding x by EPS moves
    x ln x by EPS x |1 + ln x| at most.
    """
    d = [max(v, 0.0) for v in astuple(p)[:4]]
    terms = d + [d[0] + d[1], d[2] + d[3]]
    return sum(x - x * math.log(x) for x in terms if x > 0.0)


def _scales(ref: tuple, h: float) -> list[float]:
    """The size of the terms each quantity is formed from (see the module docstring)."""
    dx, dy, hz, _, s, e_x, e_y, _ = (float(v) for v in ref)
    terms = dx + dy + h
    e_scales = [
        2.0 * math.exp(-d) * d + math.exp(-0.5 * hz) * h + e for d, e in ((dx, e_x), (dy, e_y))
    ]
    return [dx, dy, h, 2.0 * math.log(2.0) + 2.0 * terms, terms / (2.0 * math.log(2.0)) + s,
            *e_scales, 0.5 * sum(e_scales)]


def _sweep_path(p: XStateParams) -> np.ndarray:
    """D_x, D_y, H_z, I_AB, S, E_x, E_y and Z of each row of `p`, from `_x_sides` and `x_report`."""
    d, hz = _x_sides(p)
    report = x_report(p)  # s, z, e_x, e_y, i_ab
    return np.column_stack([d[0], d[1], hz, *report[:, [4, 0, 2, 3, 1]].T])


def _library_path(rows: list[XStateParams]) -> np.ndarray:
    """H_x, H_y, H_z, I_AB, S, E_x, E_y and Z of each row, from `full_report` of its matrix."""
    reports = [full_report(from_x_params(row)) for row in rows]
    return np.array([[*r.h_cond, r.i_ab, r.s, r.e_x, r.e_y, r.z] for r in reports])


def _scaled_errors(code: np.ndarray, rows: list, refs: list, h_sides: bool) -> np.ndarray:
    """Each row's error per quantity, in EPS times its scale; asserts signs at true zeros.

    With `h_sides` the first two columns of `code` hold H_x and H_y, each
    compared with ln 2 - D on the scale ln 2.
    """
    errors = np.zeros(code.shape)
    for i, (row, ref) in enumerate(zip(rows, refs)):
        scales = _scales(ref, _h(row))
        with localcontext() as ctx:
            ctx.prec = 60
            dx, dy, hz_ref = ref[:3]
            want = list(ref)
            if h_sides:
                want[:2], scales[:2] = [_TWO_LN2 / 2 - dx, _TWO_LN2 / 2 - dy], [LN2, LN2]
            # The unclamped value S and each E_i read, with the size of its
            # terms: a 60-digit rounding of an exact 0 lies within 1e-50 of it.
            for j, value, size in (
                (0, dx, dx), (1, dy, dy), (2, hz_ref, hz_ref),
                (4, dx + dy - hz_ref, dx + dy + hz_ref),
                (5, dx - hz_ref / 2, dx + hz_ref), (6, dy - hz_ref / 2, dy + hz_ref),
            ):
                if abs(value) <= TRUE_ZERO * size:
                    assert code[i, j] == (LN2 if h_sides and j < 2 else 0.0), (QUANTITIES[j], row)
            err = [float(abs(Decimal(float(c)) - r)) for c, r in zip(code[i], want)]
        for j, (e, scale) in enumerate(zip(err, scales)):
            errors[i, j] = 0.0 if e <= UNDERFLOW else e / (EPS * scale)
    return errors


def _assert_within_budget(label: str, p: XStateParams) -> list[tuple]:
    """Both report paths on the rows of `p` against one reference per row, which it returns."""
    rows = _rows(p)
    refs = [_decimal_point(row) for row in rows]
    for path, code, h_sides, budgets in (
        ("x_report", _sweep_path(p), False, BUDGETS),
        ("full_report", _library_path(rows), True, REPORT_BUDGETS),
    ):
        worst = _scaled_errors(code, rows, refs, h_sides).max(axis=0)
        for (name, budget), value in zip(budgets.items(), worst):
            assert value <= budget, f"{label}, {path}: {name} off by {value:.2f} EPS of its scale"
    return refs


def _assert_printed_cells(name: str, csv_text: str, refs: list[tuple]) -> None:
    """Each printed cell within one unit in the 13th significant digit of its reference."""
    header, *lines = csv_text.splitlines()
    assert len(lines) == len(refs), name
    for k, (line, ref) in enumerate(zip(lines, refs)):
        cells = dict(zip(header.split(","), line.split(",")))
        for column, index in CSV_COLUMNS.items():
            if column == "s" and name in ("mixture", "swap"):
                continue  # S cancels there (ROADMAP items 7 and 8)
            printed, want = Decimal(cells[column]), Decimal(f"{ref[index]:.12e}")
            unit = Decimal(1).scaleb(want.adjusted() - 12) if want else Decimal(0)
            assert abs(printed - want) <= unit, (name, k, column, cells[column], want)


def test_preset_rows_meet_the_accuracy_budget(tmp_path):
    for name, cfg in figure_presets(tmp_path).items():
        refs = _assert_within_budget(name, _x_params(cfg, cfg.grid()))
        run_sweep(cfg)
        _assert_printed_cells(name, Path(cfg.out).read_text(), refs)


def _largest_coherence(da: float, db: float) -> float:
    """The largest |c| that `validate` accepts in the block [[d_a, c], [c, d_b]]."""
    return math.sqrt(max(0.0, da * db - EIGENVALUE_TOL * (da + db - EIGENVALUE_TOL)))


def _edge_states() -> dict[str, XStateParams]:
    """States at the ends of each parameter range, seeded."""
    nus = 0.5 + np.arange(-10, 11) * 1e-13
    pair = bell_mixture(nus)
    taus = np.logspace(-12, 3, 16)
    channels = []
    for nu in (0.0, 0.1, 0.5):
        for g in (0.01, 0.1, 1.5):
            channels += _rows(damped_params(bell_mixture(nu), ad_survival(g, taus)))
        for g in (0.01, 0.1, 10.0):
            channels += _rows(dephased_params(bell_mixture(nu), dephasing_coherence(g, taus)))
    accelerated = [
        accelerated_params(nu, r_a, r_b)
        for nu in (0.0, 0.1, 0.5, 0.9, 1.0) for r_a in (0.0, R_MAX) for r_b in (0.0, R_MAX)
    ]
    faint = []
    for seed in range(40):
        q = random_x_state(seed)
        for k in (0, 1, 5, 10, 50, 100, 150):
            faint.append(XStateParams(q.d1, q.d2, q.d3, q.d4, q.c14 * 10.0**-k, q.c23 * 10.0**-k))
    negative = []
    for x in (1e-10, 5e-11, 1e-12, 1e-20, 1e-300):
        for share in (0.0, 0.5, 0.999):
            # a coherence up to the floor of the block that holds the population -x
            negative += [
                XStateParams(-x, 0.25, 0.25, 0.5 + x, share * _largest_coherence(-x, 0.5 + x), 0.1),
                XStateParams(0.5, -x, x, 0.5, 0.5, share * _largest_coherence(-x, x)),
            ]
    return {
        "nu within 1e-12 of 1/2": pair,
        "swap, nu within 1e-12 of 1/2": swapped_params(pair, pair, BellIndex.PSI_PLUS),
        "gamma*t from 1e-12 to 1e3": _batch(channels),
        "r at 0 and pi/4": _batch(accelerated),
        "coherences down to 1e-150": _batch(faint),
        "populations in [-1e-10, 0)": _batch(negative),
    }


def test_edge_states_meet_the_accuracy_budget():
    for label, p in _edge_states().items():
        _assert_within_budget(label, p)
