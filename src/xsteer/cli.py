"""Command-line front end for the sweep engine.

Exit codes: 0 success, 2 invalid configuration (including parameters that
give an invalid state or channel), 3 I/O failure, 4 internal consistency
failure (dual-path disagreement, a negative outcome probability, a Bell
outcome of zero probability, or a non-finite value in a record to be written).
"""

from __future__ import annotations

import argparse
import json
import sys

from .measures import NegativeProbabilityError, PathDisagreementError
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweep",
        description="Sweep steering (S) and entropy-squeezing (Z) measures over "
        "a state or process parameter, writing a CSV and a gnuplot script.",
    )
    parser.add_argument("--mode", choices=MODES, help="which parameter sweep to run")
    parser.add_argument("--grid", help="grid as start:stop:points (defaults per mode)")
    parser.add_argument("--nu", type=float, help="fixed mixing parameter (default 1.0)")
    parser.add_argument(
        "--rb", help="acceleration of qubit B: a number in [0, pi/4] or 'track' (default 0)"
    )
    parser.add_argument(
        "--g-over-gamma", type=float, dest="g_over_gamma",
        help="decay-rate ratio g/gamma for channel modes (default 0.1)",
    )
    parser.add_argument(
        "--bell", choices=[b.value for b in BellIndex],
        help="Bell outcome for swap mode (default psi)",
    )
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--config", help="JSON config file; explicit flags win on conflict")
    parser.add_argument("--jobs", type=int, help="parallel workers (default 1)")
    return parser


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:points, got {text!r}")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"grid must be start:stop:points, got {text!r}") from exc
    return start, stop, points


def _parse_rb(value) -> float | str:
    if value == "track":
        return "track"
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"rb must be a number or 'track', got {value!r}") from exc


def _parse_bell(value: str) -> BellIndex:
    try:
        return BellIndex(value)
    except ValueError as exc:
        raise ConfigError(f"bell must be one of {[b.value for b in BellIndex]}") from exc


# Each config key: the JSON value it takes, as (description, test), then the
# SweepConfig field and parser of each optional setting, in the order of their checks.
_KEYS = {
    "mode": ("a string", lambda v: isinstance(v, str), None, None),
    "grid": ("a string", lambda v: isinstance(v, str), None, None),
    "out": ("a string", lambda v: isinstance(v, str), None, None),
    "bell": ("a string", lambda v: isinstance(v, str), "bell", _parse_bell),
    "nu": ("a number", _is_real, "nu", float),
    "rb": ('a number or "track"', lambda v: _is_real(v) or v == "track", "r_b", _parse_rb),
    "g_over_gamma": ("a number", _is_real, "g_over_gamma", float),
    "jobs": ("an integer", _is_integer, "jobs", int),
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config: {path} must hold a JSON object")
    unknown = set(data) - set(_KEYS)
    if unknown:
        raise ConfigError(f"config: unknown keys {sorted(unknown)}")
    for key, value in data.items():
        kind, accepts, _, _ = _KEYS[key]
        if not accepts(value):
            raise ConfigError(f"config: {key} must be {kind}, got {json.dumps(value)}")
    return data


def _build_config(args: argparse.Namespace) -> SweepConfig:
    """The sweep the flags and config file ask for; a flag wins over the file."""
    values = _load_config_file(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items() if v is not None and k != "config")
    mode = values.get("mode")
    if mode is None:
        raise ConfigError("mode: required (flag --mode or config key 'mode')")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if "out" not in values:
        raise ConfigError("out: required (flag --out or config key 'out')")
    start, stop, points = _parse_grid(values["grid"]) if "grid" in values else _SWEPT[mode][2]
    fields = {field: parse(values[key])
              for key, (_, _, field, parse) in _KEYS.items() if field and key in values}
    return SweepConfig(mode, start, stop, points, values["out"], **fields)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        records = run_sweep(cfg)
    except (ConfigError, InvalidStateError, ChannelParameterError) as exc:
        print(f"sweep: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"sweep: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (PathDisagreementError, NegativeProbabilityError, ZeroProbabilityOutcomeError,
            NonFiniteRecordError) as exc:
        print(f"sweep: internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(f"wrote {cfg.out} ({len(records)} rows) and companion .gnuplot script")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
