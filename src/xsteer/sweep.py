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
_csv_chunks), and each block is compared, as it is rendered, with the next
bytes of the file already at the output.  A temporary file beside the
output is created only at the first block that differs: a file whose bytes
would not change creates no temporary and is left as it was, with its
inode, mtime and permissions.  Blocks that matched are rendered again, not
copied, and the temporaries of the CSV and of the plot script are written
in full and then renamed into place, CSV first (see _write_files).
"""

from __future__ import annotations

import contextlib
import errno
import itertools
import numbers
import os
import stat
from collections.abc import Callable, Iterable, Iterator
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
from .qstate import DOMAINS, R_MAX, BellIndex, XStateParams, bell_mixture, check_float, shown

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
    are integers and the other numeric fields real numbers that a float can
    hold; a bool is neither.  `out` must name a file: ".", "/" and "//" do
    not.  The grid is computed in float64 from float(start) and
    float(stop) by np.linspace's own steps (see grid): it equals np.linspace
    of those two floats byte for byte, and np.float32 or Fraction ends give
    the float64 grid of their float() values.  `r_b` is either such a
    number or the string "track", meaning r_b follows the swept r_a.  The
    closed forms read the fixed parameters `nu`, a numeric `r_b` and
    `g_over_gamma` as their float() values too, check their domains on
    those and compute with them.
    `jobs` > 1 evaluates contiguous chunks of the grid in a process pool.

    `validate` checks these rules and that the grid lies in the swept
    parameter's domain, which `grid` needs.  The domains of the fixed
    parameters (`nu` in [0, 1], `r_b` in [0, pi/4], `g_over_gamma` positive
    and, for ad-channel, below 2) are checked by the closed forms that take
    them (see _x_params) on every run_sweep, before anything is written; a
    mode ignores the fixed parameters it does not use.
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
            value = getattr(self, name)
            if not _is_real(value):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            check_float(value, name, ConfigError)  # compared exactly, but swept as a float
        if self.r_b != "track":
            if not _is_real(self.r_b):
                raise ConfigError(f"r_b must be a number or 'track', got {self.r_b!r}")
            check_float(self.r_b, "r_b", ConfigError)
        if not 2 <= self.points <= MAX_POINTS:
            raise ConfigError(f"points must lie in [2, {MAX_POINTS}], got {shown(self.points)}")
        if not self.start < self.stop:
            raise ConfigError(
                f"grid needs start < stop, got {shown(self.start)}:{shown(self.stop)}"
            )
        if not self.out:
            raise ConfigError("out: an output path is required")
        if not isinstance(self.out, (str, os.PathLike)):
            raise ConfigError(f"out must be a path, got {self.out!r}")
        if "\0" in str(self.out):
            raise ConfigError(f"out must not hold a NUL byte, got {str(self.out)!r}")
        if "\n" in str(self.out):  # the plot script would run the rest as gnuplot commands
            raise ConfigError(f"out must not hold a line break, got {str(self.out)!r}")
        try:
            str(self.out).encode()  # the plot script names the CSV in UTF-8
        except UnicodeEncodeError:
            raise ConfigError(f"out must be valid UTF-8, got {str(self.out)!r}") from None
        csv_path, plot_path, _ = _output_names(self.out)  # refuses a path with an empty name
        if plot_path == csv_path:
            raise ConfigError(f"out must not end in .gnuplot, its plot script's suffix: {self.out}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {shown(self.jobs)}")
        swept = DOMAINS[_SWEPT[self.mode][0]]
        if not (swept.contains(self.start) and swept.contains(self.stop)):
            raise ConfigError(f"{self.mode} sweeps need a grid inside {swept}")
        if not isinstance(self.bell, BellIndex):
            raise ConfigError(f"bell must be a BellIndex, got {self.bell!r}")
        return self

    def grid(self) -> np.ndarray:
        """The `points` grid values: np.linspace's arithmetic on float(start) and float(stop).

        The values i * step + start for i in range(points), with
        step = (stop - start) / (points - 1), and the last value set to stop;
        where step underflows to 0, each i is divided by points - 1 and then
        multiplied by stop - start, as np.linspace does.
        """
        start, stop = float(self.start), float(self.stop)
        div = self.points - 1
        delta = stop - start
        step = delta / div
        grid = np.arange(self.points, dtype=float)
        if step == 0:  # a denormal span, which linspace scales after dividing
            grid /= div
            grid *= delta
        else:
            grid *= step
        grid += start
        grid[-1] = stop
        return grid


def _x_params(cfg: SweepConfig, grid: np.ndarray) -> XStateParams:
    """The X parameters of the swept state at every grid value.

    The closed forms read the fixed parameters as float(), as `grid` reads
    the grid's ends, and check their domains on those values, so an
    np.float32 or Fraction value computes as its float64 value.
    """
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
    chunk per worker.  The CSV goes to `out` as POSIX pathlib spells it and
    the plot script beside it, named with `.gnuplot` in place of the suffix
    Path.suffix reports; both paths and the CSV's name, which the script
    reads, are worked out once as strings (see _output_names).  Each file
    whose bytes change is first written in full to a temporary file beside
    the output, and the temporaries are then renamed into place, CSV first;
    if either write fails, any earlier
    pair is left as it was.  A file whose old bytes equal the new ones gets
    no temporary: an identical rerun creates, writes and renames nothing,
    and leaves both files as they were, with the same inode, mtime and
    permissions; a changed file is replaced exactly as on a first run.  An
    entry already at the temporary name of a file that changes raises
    FileExistsError and is left alone (see _write_files).
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
    csv_path, plot_path, csv_name = _output_names(cfg.out)
    _write_files({
        csv_path: _csv_chunks(table),
        plot_path: lambda: (_plot_text(csv_name, cfg.mode).encode(),),
    })
    return _read_only(table.view(RECORD)[:, 0])


def _output_names(out) -> tuple[str, str, str]:
    """The CSV path `out` names, its plot script's path and the CSV's file name.

    The paths are spelled as POSIX pathlib spells Path(out) and
    Path(out).with_suffix(".gnuplot"), without building Path objects:
    repeated separators and "." parts collapse, trailing separators are
    dropped, and a leading "//" stays while three or more become "/".
    ".gnuplot" replaces the suffix Path.suffix reports, the name's last "."
    and what follows it unless that dot leads or ends the name, so "b."
    gives "b..gnuplot" and ".csv" gives ".csv.gnuplot".  A path with an
    empty name, such as "." or "/", names no file: ConfigError, where
    Path.with_suffix raises ValueError.
    """
    path = os.fspath(out)
    parts = path.split("/")
    if "." in parts or "" in parts[1:] or not path:  # not yet spelled as pathlib spells it
        body = path.lstrip("/")
        root = "//" if len(path) - len(body) == 2 else "/" if path != body else ""
        parts = [part for part in body.split("/") if part and part != "."]
        if not parts:
            raise ConfigError(f"out must name a file, got {path!r}")
        path = root + "/".join(parts)
    name = parts[-1]
    dot = name.rfind(".")  # the suffix starts here unless the dot leads or ends the name
    end = len(path) - len(name) + dot if 0 < dot < len(name) - 1 else len(path)
    return path, path[:end] + ".gnuplot", name


def _read_only(rows: np.ndarray) -> np.recarray:
    """`rows` of dtype RECORD as a record array that rejects assignment."""
    rows = rows.view(_RECORD_ROWS).view(np.recarray)
    rows.flags.writeable = False
    return rows


def _write_files(contents: dict[str, Callable[[], Iterable]]) -> None:
    """Publish each file whose bytes would change: write it to a temporary beside it, then rename.

    `contents` maps each path, a str spelled as _output_names spells it, to
    a function of no arguments that returns its bytes-like chunks afresh on
    each call.  The file already at each path is opened once, before
    anything is written (see _open_old); a path that is a directory, which
    no rename can replace, raises IsADirectoryError there.  Each chunk is
    then compared with the old file's next bytes, and the temporary
    `.<name>.<pid>.tmp` in the path's directory is created only at the first
    difference (see _write_changed): a file whose bytes would not change
    creates, writes and renames nothing, and is left as it was, with its
    inode, mtime and permissions.  A temporary is created with O_EXCL: if
    any entry, a symlink included, already has its name, FileExistsError is
    raised and the entry left as it is.  Every temporary is written in full
    before the first rename; then, in the dict's order, each is renamed over
    its path.  On any failure, including one raised while a chunk is
    rendered, the temporary files this call created and has not yet
    published are removed.
    """
    old = []
    created = {}
    try:
        for path in contents:
            old.append(_open_old(path))
        for (path, render), (fd, size) in zip(contents.items(), old):
            _write_changed(path, render, fd, size, created)
        for tmp, path in list(created.items()):
            os.replace(tmp, path)
            del created[tmp]
    except BaseException:
        for tmp in created:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise
    finally:
        for fd, _ in old:
            if fd is not None:
                os.close(fd)


def _write_changed(path: str, render: Callable, old: int | None, size: int, created: dict) -> None:
    """Write render()'s chunks to a temporary for `path`, unless the old file at `old` holds them.

    Each chunk is compared with the next bytes of the old file, `size`
    bytes open at `old` (None: no old file), read one chunk at a time and
    not at all once a chunk runs past `size`.  The first difference is the
    first chunk that differs or runs past `size`, or the end of the chunks
    short of `size`.  There the temporary is created and entered in
    `created`, which maps each temporary to its path; the chunks that
    matched are rendered again by a second render(), not read from `old`,
    and the chunks from the first difference on are written after them.
    """
    chunks = iter(render())
    matched = spent = 0
    differing = None
    for chunk in chunks:
        view = memoryview(chunk).cast("B")
        if old is None or matched + len(view) > size or not _holds(old, view):
            differing = view
            break
        matched += len(view)
        spent += 1
    if old is not None and differing is None and matched == size:
        return
    tmp = _temporary_name(path)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    created[tmp] = path
    try:
        if spent:
            for chunk in itertools.islice(render(), spent):
                _write_all(fd, chunk)
        if differing is not None:
            _write_all(fd, differing)
        for chunk in chunks:
            _write_all(fd, chunk)
    finally:
        os.close(fd)


def _temporary_name(path: str) -> str:
    """The temporary `.<name>.<pid>.tmp` beside `path`, cut to a 255-byte name if need be.

    255 bytes is NAME_MAX on Linux.  A longer one loses leading characters
    of <name>, as few as fit, counted in the bytes the file system sees.
    The tail is kept since it tells a CSV's temporary from its plot
    script's: the plot script's name ends in ".gnuplot", and the CSV name
    of a valid SweepConfig does not, unless it is ".gnuplot" itself, which
    is never cut.
    """
    head, name = os.path.split(path)
    tail = f".{os.getpid()}.tmp"
    while len(os.fsencode(name)) + len(tail) + 1 > 255:
        name = name[1:]
    return os.path.join(head, f".{name}{tail}")


def _write_all(fd: int, chunk) -> None:
    """Write the bytes-like `chunk` to `fd`, resuming short writes."""
    view = memoryview(chunk).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _open_old(path: str) -> tuple[int | None, int]:
    """A read-only descriptor of the regular file at `path` and its size, else (None, 0).

    The open follows no symlink and never blocks on a FIFO.  A directory at
    `path`, readable or not, raises IsADirectoryError.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
    except FileNotFoundError:
        return None, 0
    except OSError:  # a symlink, or unreadable: nothing to compare with
        _refuse_directory(path, os.lstat(path).st_mode)
        return None, 0
    info = os.fstat(fd)
    if stat.S_ISREG(info.st_mode):
        return fd, info.st_size
    os.close(fd)
    _refuse_directory(path, info.st_mode)
    return None, 0


def _refuse_directory(path: str, mode: int) -> None:
    """Raise IsADirectoryError for `path` if `mode` is a directory's."""
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _holds(fd: int, view: memoryview) -> bool:
    """Whether the next len(view) bytes read from `fd` equal `view`."""
    # bytearray == memoryview is one memcmp; memoryview == bytes compares
    # element by element, far slower
    held = bytearray(len(view))
    return os.readv(fd, [held]) == len(view) and held == view


def _csv_chunks(table) -> Callable[[], Iterator]:
    """A renderer of the CSV of an (n, 6) float table, one record per row; see write_csv.

    `table` may also be an array of dtype RECORD.  The shape, dtype and
    finiteness checks run before this returns, so a bad table raises before
    any file is opened.  Each call of the returned function gives fresh
    chunks, the rows in blocks of _BLOCK_ROWS, the first led by the header,
    each rendered when asked for, so its temporaries stay small.

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
    head = (CSV_HEADER + "\n").encode()
    starts = range(0, len(table), _BLOCK_ROWS)
    return lambda: _head_joined(head, (_block_bytes(table[i:i + _BLOCK_ROWS]) for i in starts))


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
    written.  Unless `path` is a regular file that already holds exactly
    these bytes, the file is rendered to a temporary beside `path`, created
    at the first block that differs, and is renamed into place.  A file that
    holds them is left as it was, with the same inode, mtime and
    permissions, and no temporary is created.
    """
    path = Path(path)
    _write_files({str(path): _csv_chunks(table)})
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
            f"# render with: gnuplot -persist {_output_names(csv_name)[1]}",
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

    Each takes its mode's default grid (see _SWEPT) and SweepConfig's
    defaults unless it names a field; gamma*t ranges are chosen so each run
    decays to its asymptote within the window.
    """
    outdir = Path(outdir)

    def cfg(name: str, mode: str, **kw) -> tuple[str, SweepConfig]:
        start, stop, points = _SWEPT[mode][2]
        fields = {"start": start, "stop": stop, "points": points, **kw}
        return name, SweepConfig(mode=mode, out=str(outdir / f"{name}.csv"), **fields)

    return dict([
        cfg("mixture", "nu"),
        cfg("accel-single", "acceleration"),
        cfg("accel-joint", "acceleration", r_b="track"),
        cfg("ad-slow", "ad-channel", g_over_gamma=0.01),
        cfg("ad-fast", "ad-channel", stop=30.0),
        cfg("ad-weak", "ad-channel", stop=30.0, nu=0.1),
        cfg("dephasing-slow", "dephasing-channel", stop=60.0, g_over_gamma=0.01),
        cfg("dephasing-fast", "dephasing-channel"),
        cfg("dephasing-weak", "dephasing-channel", nu=0.1),
        cfg("swap", "swap"),
    ])
