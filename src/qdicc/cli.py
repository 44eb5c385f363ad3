"""Command-line interface: single-point solves, force-plane sweeps, regime maps.

Exit codes: 0 success, 2 configuration/parse error or unwritable output,
3 violated physics precondition, 4 numerical failure.  Sweep output is
deterministic: the same config produces byte-identical CSV regardless of
the worker count.
"""
from __future__ import annotations

import argparse
import sys
from itertools import chain

import numpy as np

from . import __version__, engine
from .config import (COLUMNS, build_sweep_spec, build_system, load_config,
                     point_baths, raw_baths, record_fields)
from .engine import Regime
from .errors import ConfigError, NumericalError, PreconditionError, QdiccError
# unused here: perfbench's tracer test asserts that it patches this binding;
# it goes when the benchmark spans are re-targeted (ROADMAP item 1)
from .icc import analyze_point  # noqa: F401

REGIME_CODES = {
    Regime.EQUILIBRIUM.value: "0",
    Regime.NORMAL.value: ".",
    Regime.CROSS_EFFECT_ENERGY.value: "x",
    Regime.CROSS_EFFECT_PARTICLE.value: "y",
    Regime.PSEUDO_ICC_ENERGY.value: "e",
    Regime.PSEUDO_ICC_PARTICLE.value: "n",
    Regime.ICC_ENERGY.value: "E",
    Regime.ICC_PARTICLE.value: "N",
    "": "!",
}


def _worker_count(text: str) -> int:
    """argparse type of --threads: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    """argparse type of --tol-sign: a finite float of at least 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (np.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdicc",
        description="Coulomb-coupled quantum-dot transport: steady-state "
                    "currents, entropy production and inverse-current regimes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve a single configuration and print one flat record"),
        ("sweep", "stream a CSV of records over a force-plane grid"),
        ("classify-map", "emit a compact regime-code grid with a legend"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a key = value config file")
        cmd.add_argument("--out", default="-", help="output path, or - for stdout")
        cmd.add_argument("--threads", type=_worker_count, default=1,
                         help="worker processes for sweeps (default 1)")
        cmd.add_argument("--tol-sign", type=_tolerance, default=1e-10,
                         help="current magnitude treated as numerically zero")
    return parser


def _solve_record(cfg: dict, tol_sign: float) -> tuple[str, ...]:
    axis_keys = [k for k in cfg if k.endswith(("_min", "_max", "_steps"))]
    if axis_keys:
        raise ConfigError(
            f"solve takes point forces, not sweep axes ({', '.join(sorted(axis_keys))}); "
            "use the sweep or classify-map command"
        )
    sys_params = build_system(cfg)
    raw = cfg["setup"] == "raw"
    if raw:
        baths, beta, mu_l = raw_baths(cfg), cfg["beta_l"], cfg["mu_l"]
    else:
        f_e, f_n = cfg.get("F_E", 0.0), cfg.get("F_N", 0.0)
        baths, beta, mu_l = point_baths(cfg, f_e, f_n)
    batch = engine.evaluate(sys_params, *baths, tol_sign=tol_sign)
    engine.raise_for_status(batch.status[0])
    if raw:
        f_e, f_n = batch.forces[1:, 0]
    return record_fields(f_e, f_n, beta, mu_l, batch, _STATUS_WORDS)[0]


def _row_status(cls: type) -> str:
    if issubclass(cls, NumericalError):
        return "error:numerical"
    if issubclass(cls, (PreconditionError, ValueError)):
        return "error:precondition"
    return "error:config"


# the status column's word for each engine status code
_STATUS_WORDS = {engine.OK: "ok", **{code: _row_status(cls) for code, (cls, _msg)
                                     in engine.ERRORS.items()}}


def _sweep_row(payload) -> list[tuple[str, ...]]:
    """All records for one F_E grid line, from one engine call; importable
    so workers can pickle it."""
    sys_params, cfg, tol_sign, f_e, f_n_values = payload
    f_n = np.asarray(f_n_values, dtype=float)
    try:
        baths, beta, mu_l = point_baths(cfg, f_e, f_n)
    except (QdiccError, ValueError) as exc:
        return record_fields(f_e, f_n, None, None, None, _row_status(type(exc)))
    batch = engine.evaluate(sys_params, *baths, tol_sign=tol_sign)
    return record_fields(f_e, f_n, beta, mu_l, batch, _STATUS_WORDS)


def _iter_sweep_rows(cfg: dict, tol_sign: float, threads: int):
    """Validate the sweep once, then return its spec and an iterator over
    its records in row-major order; a bad config raises here, before any
    output."""
    spec = build_sweep_spec(cfg)
    sys_params = build_system(cfg)
    f_n_values = tuple(float(v) for v in spec.f_n_values())
    payloads = [(sys_params, cfg, tol_sign, float(f_e), f_n_values)
                for f_e in spec.f_e_values()]

    def rows():
        if threads > 1:
            # imported here: the pool machinery costs every CLI start ~20 ms
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=threads) as pool:
                for row_block in pool.map(_sweep_row, payloads):
                    yield from row_block
        else:
            for payload in payloads:
                yield from _sweep_row(payload)

    return spec, rows()


def _write_lines(out: str, lines) -> None:
    if out == "-":
        for line in lines:
            sys.stdout.write(line + "\n")
        return
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    record = _solve_record(cfg, args.tol_sign)
    _write_lines(args.out, (f"{name} = {value}" for name, value in zip(COLUMNS, record)))
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    _spec, rows = _iter_sweep_rows(cfg, args.tol_sign, args.threads)
    _write_lines(args.out, chain([",".join(COLUMNS)], map(",".join, rows)))
    return 0


def _cmd_classify_map(args) -> int:
    cfg = load_config(args.config)
    spec, records = _iter_sweep_rows(cfg, args.tol_sign, args.threads)
    legend = " ".join(
        f"{code}={name or 'error'}" for name, code in REGIME_CODES.items()
    )
    header = [
        "# regime map, one code per grid cell",
        f"# rows: F_E from {spec.f_e_min:g} to {spec.f_e_max:g} in {spec.f_e_steps} steps",
        f"# columns: F_N from {spec.f_n_min:g} to {spec.f_n_max:g} in {spec.f_n_steps} steps",
        f"# legend: {legend}",
    ]
    regime_col = COLUMNS.index("regime")
    codes = (REGIME_CODES[record[regime_col]] if record[-1] == "ok" else "!"
             for record in records)
    # one map row per f_n_steps codes, taken from the one shared iterator
    map_rows = map("".join, zip(*[codes] * spec.f_n_steps))
    _write_lines(args.out, chain(header, map_rows))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "classify-map": _cmd_classify_map,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, ValueError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
