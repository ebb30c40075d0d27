"""Command-line front end for the sweep engine.

Exit codes: 0 success, 2 invalid configuration (including parameters that
give an invalid state or channel), 3 I/O failure (including a success line
or help text that cannot be written to stdout), 4 internal consistency
failure (a Bell outcome of zero probability, or a non-finite value in a
record to be written).

A setting's value given as text, a flag's or a JSON string, goes through its
`convert`; a JSON number goes to `SweepConfig` as parsed, so that
`SweepConfig.validate` reads it once and refuses one that no float can hold.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
from typing import Callable, NamedTuple

from .processes import ChannelParameterError, ZeroProbabilityOutcomeError
from .qstate import BellIndex, InvalidStateError
from .sweep import (
    _SWEPT,
    MODES,
    ConfigError,
    NonFiniteRecordError,
    SweepConfig,
    _is_integer,
    _is_real,
    run_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class _Setting(NamedTuple):
    """One sweep setting, given as a flag or as a JSON config key."""

    field: str  # its SweepConfig field; "grid" fills start, stop and points
    kind: str  # the values it takes, in words, for its error messages
    json_type: Callable[[object], bool]  # whether a JSON value has the right type
    convert: Callable  # a flag's text or a JSON string to the field's value
    help: str


def _mode(value: str) -> str:
    if value not in MODES:
        raise ValueError(value)
    return value


def _grid(text: str) -> tuple[float, float, int]:
    start, stop, points = text.split(":")
    return float(start), float(stop), int(points)


def _is_str(value) -> bool:
    return isinstance(value, str)


_MODES_TEXT = ", ".join(MODES)
_BELLS_TEXT = ", ".join(b.value for b in BellIndex)

# In the order their values are converted, so the first bad one is reported.
# Range rules live in SweepConfig.validate, not here.  Each default a help
# names is SweepConfig's own: build_parser fills in the field's default, which
# the dataclass keeps as the class attribute of that name.
_SETTINGS = {
    "mode": _Setting("mode", f"one of {_MODES_TEXT}", _is_str, _mode,
                     f"which parameter sweep to run: {_MODES_TEXT}"),
    "grid": _Setting("grid", "start:stop:points", _is_str, _grid,
                     "grid as start:stop:points (defaults per mode)"),
    "bell": _Setting("bell", f"one of {_BELLS_TEXT}", _is_str, BellIndex,
                     f"Bell outcome for swap mode: {_BELLS_TEXT} (default {{bell.value}})"),
    "nu": _Setting("nu", "a number", _is_real, float, "fixed mixing parameter (default {nu})"),
    "rb": _Setting("r_b", 'a number or "track"', lambda v: _is_real(v) or v == "track",
                   lambda v: "track" if v == "track" else float(v),
                   "acceleration of qubit B: a number in [0, pi/4] or 'track' (default {r_b})"),
    "g_over_gamma": _Setting("g_over_gamma", "a number", _is_real, float,
                             "decay-rate ratio g/gamma for channel modes (default {g_over_gamma})"),
    "out": _Setting("out", "a string", _is_str, str, "output CSV path"),
    "jobs": _Setting("jobs", "an integer", _is_integer, int,
                     "at least 1, then ignored: a sweep runs in one process (default {jobs})"),
}


class _HelpRequested(Exception):
    """--help was given; the exception's text is the help, for main to write."""


class _Parser(argparse.ArgumentParser):
    """Splits argv into each flag's text; every rejection is a ConfigError.

    --help stops parsing with _HelpRequested, not argparse's exit, which
    ignores a help text that cannot be written.
    """

    def parse_known_args(self, args=None, namespace=None):
        # every flag but --help takes a value, so "--flag value" is read as
        # "--flag=value" and a value that starts with "-", such as -1e-3, is
        # not taken for a flag; argparse still resolves abbreviations
        args = list(sys.argv[1:] if args is None else args)
        joined = []
        while args:
            arg = args.pop(0)
            if arg.startswith("--") and "=" not in arg and not "--help".startswith(arg) and args:
                arg = f"{arg}={args.pop(0)}"
            joined.append(arg)
        return super().parse_known_args(joined, namespace)

    def error(self, message):
        raise ConfigError(message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help().rstrip("\n"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sweep",
        description="Sweep steering (S) and entropy-squeezing (Z) measures over "
        "a state or process parameter, writing a CSV and a gnuplot script.",
    )
    for key, setting in _SETTINGS.items():
        help_text = setting.help.format_map(vars(SweepConfig))
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, help=help_text)
    parser.add_argument("--config", help="JSON config file; explicit flags win on conflict")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config: {path} is not UTF-8: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigError(f"config: {path} must hold a JSON object")
        unknown = set(data) - set(_SETTINGS)
        if unknown:
            raise ConfigError(f"config: unknown keys {sorted(unknown)}")
        for key, value in data.items():
            if not _SETTINGS[key].json_type(value):
                kind = _SETTINGS[key].kind
                raise ConfigError(f"config: {key} must be {kind}, got {json.dumps(value)}")
    except ConfigError:
        raise
    except ValueError as exc:  # JSONDecodeError, or an int past Python's int-to-str digit limit
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # raised by json.loads or json.dumps
        raise ConfigError(f"config: {path} nests too deep: {exc}") from exc
    return data


def _build_config(args: argparse.Namespace) -> SweepConfig:
    """The sweep the flags and config file ask for; a flag wins over the file."""
    values = _load_config_file(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items() if v is not None and k != "config")
    for key in ("mode", "out"):
        if key not in values:
            raise ConfigError(f"{key}: required (flag --{key} or config key '{key}')")
    fields = {}
    for key, setting in _SETTINGS.items():
        if key in values:
            value = values[key]  # text, or a JSON number that SweepConfig.validate reads
            try:
                fields[setting.field] = setting.convert(value) if isinstance(value, str) else value
            except ValueError as exc:
                raise ConfigError(f"{key} must be {setting.kind}, got {value!r}") from exc
    start, stop, points = fields.pop("grid", _SWEPT[fields["mode"]][2])
    return SweepConfig(start=start, stop=stop, points=points, **fields)


def _sweep(argv) -> tuple[int, str]:
    """Run the sweep `argv` asks for: its exit code and the line that reports it, or the help."""
    try:
        cfg = _build_config(build_parser().parse_args(argv))
        records = run_sweep(cfg)
    except _HelpRequested as exc:
        return EXIT_OK, str(exc)
    except (ConfigError, InvalidStateError, ChannelParameterError) as exc:
        return EXIT_CONFIG, f"sweep: invalid config: {exc}"
    except OSError as exc:
        return EXIT_IO, f"sweep: I/O failure: {exc}"
    except (ZeroProbabilityOutcomeError, NonFiniteRecordError) as exc:
        return EXIT_INTERNAL, f"sweep: internal consistency failure: {exc}"
    return EXIT_OK, f"wrote {cfg.out} ({len(records)} rows) and companion .gnuplot script"


def _write_line(stream, line: str) -> OSError | None:
    """Write `line` and a line break to `stream` and flush it; the OSError that stops it, else None.

    A stream that fails is closed, which drops the bytes it still holds, so
    the interpreter does not fail on them again when it flushes the standard
    streams at exit.  None, Python's standard stream for a descriptor closed
    at start-up, fails with EBADF.
    """
    if stream is None:
        return OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        stream.write(line + "\n")
        stream.flush()
    except OSError as exc:
        with contextlib.suppress(OSError):
            stream.close()
        return exc
    return None


def main(argv=None) -> int:
    """Run the sweep `argv` asks for and report it in one line: exit code 0, 2, 3 or 4.

    Success, or the help text --help asks for, is reported on stdout and
    each failure on stderr.  A success line or help text that cannot be
    written makes the run an I/O failure; a failure line that cannot be
    written leaves the failure's own exit code.
    """
    code, line = _sweep(argv)
    if code == EXIT_OK:
        failure = _write_line(sys.stdout, line)
        if failure is None:
            return EXIT_OK
        code, line = EXIT_IO, f"sweep: I/O failure: cannot write to stdout: {failure}"
    _write_line(sys.stderr, line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
