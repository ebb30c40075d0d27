"""Parameter sweeps producing CSV files and companion gnuplot scripts.

Five modes are supported, one per physical scenario:

* ``nu``                 - the Bell-mixture family versus its mixing parameter
* ``acceleration``       - accelerated Bell mixture versus r (r_b fixed or tracking r_a)
* ``ad-channel``         - amplitude damping on both qubits versus gamma*t
* ``dephasing-channel``  - pure dephasing on both qubits versus gamma*t
* ``swap``               - entanglement swapping of two identical pairs versus nu

Each grid point yields one record (param, s, z, e_x, e_y, i_ab).  Every mode
maps X states to X states, so `evaluate_grid` computes the six X parameters
of the grid points in closed form and fills one preallocated (n, 6) table in
blocks of _BLOCK_ROWS rows, one stacked `x_report` pass per block, so its
temporaries stay near 15 MB whatever the grid size.  With jobs > 1 the grid is
split into contiguous chunks, one per worker, each evaluated the same way;
every operation acts row by row, so the emitted bytes are identical for any
worker count and block size.  The CSV is rendered in the same blocks, each
in one numpy pass that yields the ASCII bytes "%.12e" gives (see
_csv_chunks), and each block is written to a temporary file beside the
output as it is rendered, next to one for the plot script; the two are then
renamed into place, CSV first.  As each block is written it is compared with
the file already at the output, so a file whose bytes would not change is
left as it was, with its inode, mtime and permissions, and only its
temporary is removed (see _write_files).
"""

from __future__ import annotations

import contextlib
import errno
import numbers
import os
import stat
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .measures import x_report
from .processes import (
    accelerated_params,
    ad_survival,
    damped_params,
    dephased_params,
    dephasing_coherence,
    swapped_params,
)
from .qstate import DOMAINS, R_MAX, BellIndex, XStateParams, bell_mixture

# What each mode sweeps: its DOMAINS entry, its plot axis label and its
# default grid (start, stop, points).
_SWEPT = {
    "nu": ("nu", "ν", (0.0, 1.0, 201)),
    "acceleration": ("r", "r", (0.0, R_MAX, 201)),
    "ad-channel": ("gamma_t", "γt", (0.0, 100.0, 201)),
    "dephasing-channel": ("gamma_t", "γt", (0.0, 40.0, 201)),
    "swap": ("nu", "ν", (0.0, 1.0, 201)),
}
MODES = tuple(_SWEPT)

# Largest grid a sweep accepts.  Peak memory grows by 56 bytes per point, the
# grid and the (n, 6) table, since evaluation and rendering run in blocks whose
# temporaries stay near 15 MB: a 10**6-point sweep peaks near 100 MB, 70 MB
# above the interpreter with numpy loaded.
MAX_POINTS = 10**6

CSV_HEADER = "param,s,z,e_x,e_y,i_ab"
# One sweep record, a float field per CSV column.
RECORD = np.dtype([(name, float) for name in CSV_HEADER.split(",")])
# RECORD as np.recarray holds it; viewing rows with it spares the recarray
# view its own conversion.
_RECORD_ROWS = np.dtype((np.record, RECORD))
# printf-style; gives the same digits as "{:.12e}".
_FIELD_FORMAT = "%.12e"
_ROW_FORMAT = ",".join([_FIELD_FORMAT] * 6) + "\n"

# evaluate_grid and _csv_chunks take this many rows per numpy pass, which
# bounds their temporaries near 15 MB whatever the grid size.
_BLOCK_ROWS = 2**14
# A row of non-negative fields with 2-digit exponents: six 18-character
# fields "d.dddddddddddde+XX", each followed by its ',' or '\n'.
_ROW_TEMPLATE = np.frombuffer((_ROW_FORMAT % ((0.0,) * 6)).encode(), np.uint8)
_CELL = len(_ROW_TEMPLATE) // 6
# 10**(12 - e) for the exponents e in [-98, 98], each the correctly rounded
# double, as float() parses it.
_SCALE = np.array([float(f"1e{12 - e}") for e in range(-98, 99)])
# floor(m / _DIVISORS) for a 13-digit m: its first 1, 5, 9 and 13 digits.
_DIVISORS = np.array([[1e12], [1e8], [1e4], [1.0]])
# The 4-digit groups "0000".."9999" and the exponents "e-98".."e+98", each
# as 4 ASCII bytes read as one uint32.
_DIGIT_GROUPS = np.stack(
    np.meshgrid(*[np.frombuffer(b"0123456789", np.uint8)] * 4, indexing="ij"), axis=-1
).view(np.uint32).ravel()
_EXPONENTS = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-98, 99)), np.uint32)


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class ConfigError(ValueError):
    """A sweep configuration field is missing or out of range."""


class NonFiniteRecordError(ValueError):
    """A sweep record to be written holds nan or inf."""


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: the mode, the grid, the fixed parameters, the output path.

    The grid has `points` values, from 2 to MAX_POINTS.  `points` and `jobs`
    are integers and the other numeric fields real numbers; a bool is
    neither.  `r_b` is either a float in [0, pi/4] or the string "track",
    meaning r_b follows the swept r_a.  `jobs` > 1 evaluates contiguous
    chunks of the grid in a process pool.
    """

    mode: str
    start: float
    stop: float
    points: int
    out: str
    nu: float = 1.0
    r_b: float | str = 0.0
    g_over_gamma: float = 0.1
    bell: BellIndex = BellIndex.PSI_PLUS
    jobs: int = 1

    def validate(self) -> "SweepConfig":
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("points", "jobs"):
            if not _is_integer(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("start", "stop", "nu", "g_over_gamma"):
            if not _is_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a real number, got {getattr(self, name)!r}")
        if not 2 <= self.points <= MAX_POINTS:
            raise ConfigError(f"points must lie in [2, {MAX_POINTS}], got {self.points}")
        if not self.start < self.stop:
            raise ConfigError(f"grid needs start < stop, got {self.start}:{self.stop}")
        if not self.out:
            raise ConfigError("out: an output path is required")
        if not isinstance(self.out, (str, os.PathLike)):
            raise ConfigError(f"out must be a path, got {self.out!r}")
        if Path(self.out).suffix == ".gnuplot":
            raise ConfigError(f"out must not end in .gnuplot, its plot script's suffix: {self.out}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        swept = DOMAINS[_SWEPT[self.mode][0]]
        if not (swept.contains(self.start) and swept.contains(self.stop)):
            raise ConfigError(f"{self.mode} sweeps need a grid inside {swept}")
        if self.mode == "acceleration" and self.r_b != "track":
            if not _is_real(self.r_b):
                raise ConfigError(f"r_b must be a number or 'track', got {self.r_b!r}")
            DOMAINS["r"].check(self.r_b, "r_b", ConfigError)
        if self.mode in ("acceleration", "ad-channel", "dephasing-channel"):
            DOMAINS["nu"].check(self.nu, "nu", ConfigError)
        if self.mode in ("ad-channel", "dephasing-channel"):
            rate = "g_over_gamma_ad" if self.mode == "ad-channel" else "g_over_gamma"
            DOMAINS[rate].check(self.g_over_gamma, "g-over-gamma", ConfigError)
        if not isinstance(self.bell, BellIndex):
            raise ConfigError(f"bell must be a BellIndex, got {self.bell!r}")
        return self

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


def _x_params(cfg: SweepConfig, grid: np.ndarray) -> XStateParams:
    """The X parameters of the swept state at every grid value."""
    if cfg.mode == "nu":
        return bell_mixture(grid)
    if cfg.mode == "acceleration":
        return accelerated_params(cfg.nu, grid, grid if cfg.r_b == "track" else cfg.r_b)
    if cfg.mode == "ad-channel":
        return damped_params(bell_mixture(cfg.nu), ad_survival(cfg.g_over_gamma, grid))
    if cfg.mode == "dephasing-channel":
        return dephased_params(bell_mixture(cfg.nu), dephasing_coherence(cfg.g_over_gamma, grid))
    if cfg.mode == "swap":
        pair = bell_mixture(grid)
        return swapped_params(pair, pair, cfg.bell)
    raise ConfigError(f"unknown mode {cfg.mode!r}")


def evaluate_grid(cfg: SweepConfig, grid) -> np.ndarray:
    """Rows (param, s, z, e_x, e_y, i_ab) of the sweep `cfg` at the values `grid`.

    The (n, 6) table is filled in blocks of _BLOCK_ROWS rows, one stacked
    `x_report` pass per block, so the temporaries stay small for any grid.
    Every guard of the per-state path applies to each row and raises its
    error for the first failing one, block by block.
    """
    grid = np.asarray(grid, dtype=float)
    table = np.empty((len(grid), 6))
    table[:, 0] = grid
    for start in range(0, len(grid), _BLOCK_ROWS):
        block = grid[start:start + _BLOCK_ROWS]
        table[start:start + len(block), 1:] = x_report(_x_params(cfg, block))
    return table


def run_sweep(cfg: SweepConfig) -> np.recarray:
    """Evaluate the grid, write the CSV and its plot script, return the records.

    With jobs > 1 the grid goes to a process pool of at most one worker per
    CPU, since the pool starts all its workers up front, in one contiguous
    chunk per worker.  Both files are first written in full to temporary
    files beside the output and then renamed into place, CSV first; if
    either write fails, any earlier pair is left as it was.  An entry
    already at a temporary file's name raises FileExistsError and is left
    alone (see _write_files).  A file whose old bytes equal the new ones is
    not renamed over: an identical rerun leaves both files as they were,
    with the same inode, mtime and permissions, and a changed file is
    replaced exactly as on a first run.
    """
    cfg.validate()
    grid = cfg.grid()
    if cfg.jobs > 1:
        workers = min(cfg.jobs, os.cpu_count() or 1)
        chunks = np.array_split(grid, min(workers, grid.size))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            table = np.concatenate(list(pool.map(partial(evaluate_grid, cfg), chunks)))
    else:
        table = evaluate_grid(cfg, grid)
    csv_path = Path(cfg.out)
    _write_files({
        csv_path: _csv_chunks(table),
        csv_path.with_suffix(".gnuplot"): (_plot_text(csv_path.name, cfg.mode).encode(),),
    })
    return _read_only(table.view(RECORD)[:, 0])


def _read_only(rows: np.ndarray) -> np.recarray:
    """`rows` of dtype RECORD as a record array that rejects assignment."""
    rows = rows.view(_RECORD_ROWS).view(np.recarray)
    rows.flags.writeable = False
    return rows


def _write_files(contents: dict[Path, Iterable]) -> None:
    """Write each file's chunks to a temporary file beside it, then publish each that changed.

    `contents` maps each path to an iterable of bytes-like chunks, written
    with os.write as they come.  Each temporary is `.<name>.<pid>.tmp`,
    created with O_EXCL: if any entry, a symlink included, already has that
    name, FileExistsError is raised and the entry left as it is.  Each chunk
    is also compared with the next bytes of the file already at the path,
    if that is a regular file (see _write_temp).  Every temporary file is
    written in full before the first rename; then, in the dict's order,
    each is renamed over its path, unless the old file held exactly the new
    bytes: that temporary is removed and the old file left as it was, with
    its inode, mtime and permissions.  On any failure, including one raised
    while a chunk is produced, the temporary files this call created and
    has not yet published are removed.  A path that is a directory, which
    no rename can replace, raises IsADirectoryError before anything is
    written.
    """
    for path in contents:
        if os.path.isdir(path) and not os.path.islink(path):  # cheaper than Path.is_dir
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    temps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in contents}
    created = []
    try:
        unchanged = []
        for path, chunks in contents.items():
            fd = os.open(temps[path], os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            created.append(temps[path])
            unchanged.append(_write_temp(fd, chunks, path))
        for (path, tmp), same in zip(temps.items(), unchanged):
            if same:
                os.unlink(tmp)
            else:
                os.replace(tmp, path)
            created.remove(tmp)
    except BaseException:
        for tmp in created:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise


def _write_temp(fd: int, chunks: Iterable, path: Path) -> bool:
    """Write `chunks` to the new file open at `fd` and close it; return whether `path` holds them.

    `path` counts only if it is a regular file when opened, which follows no
    symlink and never blocks on a FIFO.  Its bytes are read one chunk at a
    time, as each chunk is written, and none once a chunk differs or runs
    past the old file's size, so memory stays bounded by the largest chunk.
    """
    try:
        old, left = _open_regular(path)
        try:
            same = old is not None
            for chunk in chunks:
                view = memoryview(chunk).cast("B")
                left -= len(view)
                same = same and left >= 0 and _holds(old, view)
                while view:
                    view = view[os.write(fd, view):]
            return same and left == 0
        finally:
            if old is not None:
                os.close(old)
    finally:
        os.close(fd)


def _open_regular(path: Path) -> tuple[int | None, int]:
    """A read-only descriptor of `path` and its size if it is a regular file, else (None, 0)."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
    except OSError:  # absent, a symlink, unreadable: nothing to compare with
        return None, 0
    info = os.fstat(fd)
    if stat.S_ISREG(info.st_mode):
        return fd, info.st_size
    os.close(fd)
    return None, 0


def _holds(fd: int, view: memoryview) -> bool:
    """Whether the next len(view) bytes read from `fd` equal `view`."""
    # bytearray == memoryview is one memcmp; memoryview == bytes compares
    # element by element, far slower
    held = bytearray(len(view))
    return os.readv(fd, [held]) == len(view) and held == view


def _csv_chunks(table) -> Iterator:
    """The CSV of an (n, 6) float table, one record per row, as bytes-like chunks; see write_csv.

    `table` may also be an array of dtype RECORD.  The shape, dtype and
    finiteness checks run before this returns, so a bad table raises before
    any file is opened; the chunks are then the rows in blocks of
    _BLOCK_ROWS, the first led by the header, each rendered when it is asked
    for, so the renderer's temporaries stay small for any grid.

    A block whose values are all non-negative renders in one numpy pass:
    each value v is written as the 13 digits of m = rint(q), where
    q = v * 10**(12 - e) and e = floor(log10 v), through tables of 4-digit
    groups and of exponents; a zero renders with e = 0 and m = 0.  The scale
    10**(12 - e) is a correctly rounded double and the product is rounded
    once, so q lies within 0.0023 of the exact v * 10**(12 - e), and rint(q)
    is its correct rounding unless q lies within 0.005 of a half-integer.
    Exact ties, which "%.12e" rounds half to even, lie in that band.  A value
    in the band, or whose q falls outside [1e12, 1e13 - 1) (log10 off by one
    near a power of ten, or e outside [-98, 98]), is formatted on its own by
    "%.12e" and spliced in.  A block with a negative value or a 3-digit
    exponent renders through _ROW_FORMAT as a whole.  Either way the bytes
    are those of _ROW_FORMAT.
    """
    table = np.asarray(table)
    if table.dtype.names is not None:
        if table.dtype != RECORD:
            raise ValueError(
                f"write_csv needs an (n, 6) table or records of dtype RECORD, got {table.dtype}"
            )
        table = np.ascontiguousarray(table).view(float).reshape(-1, 6)
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != 6:
        raise ValueError(f"write_csv needs an (n, 6) table, got shape {table.shape}")
    finite = np.isfinite(table)
    if not finite.all():
        row = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise NonFiniteRecordError(f"non-finite sweep record in row {row}: {table[row].tolist()}")
    blocks = (table[start:start + _BLOCK_ROWS] for start in range(0, len(table), _BLOCK_ROWS))
    return _head_joined((CSV_HEADER + "\n").encode(), map(_block_bytes, blocks))


def _head_joined(head: bytes, chunks: Iterator) -> Iterator:
    """`chunks` with `head` joined to the first, so the two take one write and one read."""
    yield head + next(chunks, b"")
    yield from chunks


def _block_bytes(block: np.ndarray):
    """The CSV rows of a finite (k, 6) block as bytes-like ASCII, as _ROW_FORMAT renders them."""
    if np.signbit(block).any():
        return (_ROW_FORMAT * len(block) % tuple(block.ravel().tolist())).encode()
    v = block.ravel()
    zero = v == 0
    # e + 98 for e = floor(log10 v); a zero gets e = 0 and q = m = 0.  take's
    # clip mode clamps e to [-98, 98], which puts q outside [1e12, 1e13 - 1).
    exponent = (np.log10(v + zero) + 98).astype(np.intp)
    q = v * _SCALE.take(exponent, mode="clip")
    m = np.rint(q)
    # q < 1e12 holds for every zero, and ^ exempts them
    slow = (np.abs(q - m) >= 0.495) | (q >= 1e13 - 1) | ((q < 1e12) ^ zero)
    m[slow] = 0.0
    # m's lead digit and three 4-digit groups.  m is an integer below 2**53,
    # so each quotient m / 10**k is exact or at least 1e-12 from an integer,
    # and its floor is exact.
    quotients = np.floor(m / _DIVISORS)
    groups = (quotients[1:] - quotients[:-1] * 1e4).astype(np.intp)
    out = np.empty((len(block), len(_ROW_TEMPLATE)), np.uint8)
    out[:] = _ROW_TEMPLATE
    cells = out.reshape(-1, _CELL)
    cells[:, 0] = quotients[0] + ord("0")
    cells[:, 2:14].view(np.uint32).T[...] = _DIGIT_GROUPS[groups]
    cells[:, 14:18].view(np.uint32)[:, 0] = _EXPONENTS.take(exponent, mode="clip")
    slow = np.flatnonzero(slow)
    if slow.size:
        text = (_FIELD_FORMAT * slow.size % tuple(v[slow].tolist())).encode()
        if len(text) != (_CELL - 1) * slow.size:  # a 3-digit exponent
            return (_ROW_FORMAT * len(block) % tuple(v.tolist())).encode()
        cells[slow, :_CELL - 1] = np.frombuffer(text, np.uint8).reshape(-1, _CELL - 1)
    return out.data


def write_csv(table, path: Path | str) -> Path:
    """UTF-8 CSV with LF endings and 13-significant-digit scientific fields.

    `table` is an (n, 6) float array, one record per row in CSV_HEADER's
    column order, or an array of dtype RECORD such as run_sweep and load_csv
    return, so write_csv(load_csv(p), q) copies p byte for byte.  Any other
    shape or structured dtype raises ValueError and a non-finite value raises
    NonFiniteRecordError, naming the first such row, before anything is
    written.  The file goes to a temporary beside `path` and is renamed into
    place, unless `path` is a regular file that already holds exactly these
    bytes: it is then left as it was, with the same inode, mtime and
    permissions.
    """
    path = Path(path)
    _write_files({path: _csv_chunks(table)})
    return path


def load_csv(path: Path | str) -> np.recarray:
    """Parse a CSV produced by write_csv back into a read-only record array."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: not a sweep CSV (bad header)")
    body = lines[1:]
    # loadtxt warns on empty input, so a header-only file skips it
    rows = np.loadtxt(body, dtype=RECORD, delimiter=",", ndmin=1) if body else np.empty(0, RECORD)
    return _read_only(rows)


def _plot_text(csv_name: str, mode: str) -> str:
    """The gnuplot script for the CSV `csv_name` beside it: S solid, Z dashed."""
    name = "'" + csv_name.replace("'", "''") + "'"  # a gnuplot single-quoted string
    return "\n".join(
        [
            f"# render with: gnuplot -persist {Path(csv_name).stem}.gnuplot",
            "set datafile separator ','",
            f"set xlabel '{_SWEPT[mode][1]}'",
            "set ylabel 'steering / squeezing'",
            "set yrange [-0.02:1.05]",
            "set key top right",
            f"plot {name} skip 1 using 1:2 with lines lw 2 dashtype 1 title 'S', \\",
            f"     {name} skip 1 using 1:3 with lines lw 2 dashtype 2 title 'Z'",
        ]
    ) + "\n"


def figure_presets(outdir: Path | str) -> dict[str, SweepConfig]:
    """The bundled sweep configurations, one per standard curve set.

    Grid densities default to 201 points; gamma*t ranges are chosen so each
    run decays to its asymptote within the window.
    """
    outdir = Path(outdir)

    def cfg(name: str, **kw) -> SweepConfig:
        return SweepConfig(out=str(outdir / f"{name}.csv"), **kw)

    presets = {
        "mixture": cfg("mixture", mode="nu", start=0.0, stop=1.0, points=201),
        "accel-single": cfg(
            "accel-single", mode="acceleration", start=0.0, stop=R_MAX, points=201,
            nu=1.0, r_b=0.0,
        ),
        "accel-joint": cfg(
            "accel-joint", mode="acceleration", start=0.0, stop=R_MAX, points=201,
            nu=1.0, r_b="track",
        ),
        "ad-slow": cfg(
            "ad-slow", mode="ad-channel", start=0.0, stop=100.0, points=201,
            nu=1.0, g_over_gamma=0.01,
        ),
        "ad-fast": cfg(
            "ad-fast", mode="ad-channel", start=0.0, stop=30.0, points=201,
            nu=1.0, g_over_gamma=0.1,
        ),
        "ad-weak": cfg(
            "ad-weak", mode="ad-channel", start=0.0, stop=30.0, points=201,
            nu=0.1, g_over_gamma=0.1,
        ),
        "dephasing-slow": cfg(
            "dephasing-slow", mode="dephasing-channel", start=0.0, stop=60.0, points=201,
            nu=1.0, g_over_gamma=0.01,
        ),
        "dephasing-fast": cfg(
            "dephasing-fast", mode="dephasing-channel", start=0.0, stop=40.0, points=201,
            nu=1.0, g_over_gamma=0.1,
        ),
        "dephasing-weak": cfg(
            "dephasing-weak", mode="dephasing-channel", start=0.0, stop=40.0, points=201,
            nu=0.1, g_over_gamma=0.1,
        ),
        "swap": cfg(
            "swap", mode="swap", start=0.0, stop=1.0, points=201, bell=BellIndex.PSI_PLUS,
        ),
    }
    return presets
