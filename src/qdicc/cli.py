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
from .config import (COLUMNS, build_sweep_spec, build_system, line_baths,
                     line_records, load_config, point_baths, raw_baths,
                     record_fields)
from .errors import ConfigError, NumericalError, PreconditionError, QdiccError
from .icc import Regime, analyze_point
from .thermo import forces_macro

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
        cmd.add_argument("--tol-sign", type=float, default=1e-10,
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
    if cfg["setup"] == "raw":
        baths = raw_baths(cfg)
        fs = forces_macro(baths)
        f_e, f_n = fs.f_e_r, fs.f_n_r
        beta, mu_l = baths.l.beta, baths.l.mu
    else:
        f_e = cfg.get("F_E", 0.0)
        f_n = cfg.get("F_N", 0.0)
        baths, beta, mu_l = point_baths(cfg, f_e, f_n)
    point = analyze_point(sys_params, baths, tol_sign=tol_sign)
    return record_fields(f_e, f_n, beta, mu_l, point, "ok")


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
    cfg, tol_sign, f_e, f_n_values = payload
    sys_params = build_system(cfg)
    f_n = np.asarray(f_n_values, dtype=float)
    try:
        betas, mus, gammas = line_baths(cfg, f_e, f_n)
    except (QdiccError, ValueError) as exc:
        status = _row_status(type(exc))
        return [record_fields(f_e, v, None, None, None, status) for v in f_n_values]
    batch = engine.evaluate(sys_params, betas, mus, gammas, tol_sign=tol_sign)
    return line_records(f_e, f_n, betas[0], mus[0], batch, _STATUS_WORDS)


def _iter_sweep_rows(cfg: dict, tol_sign: float, threads: int):
    """Validate the sweep, then return an iterator over its records in
    row-major order; a bad config raises here, before any output."""
    spec = build_sweep_spec(cfg)
    build_system(cfg)  # fail fast on bad system parameters
    f_n_values = tuple(float(v) for v in spec.f_n_values())
    payloads = [(cfg, tol_sign, float(f_e), f_n_values) for f_e in spec.f_e_values()]

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

    return rows()


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
    rows = _iter_sweep_rows(cfg, args.tol_sign, args.threads)
    _write_lines(args.out, chain([",".join(COLUMNS)], map(",".join, rows)))
    return 0


def _cmd_classify_map(args) -> int:
    cfg = load_config(args.config)
    spec = build_sweep_spec(cfg)
    records = _iter_sweep_rows(cfg, args.tol_sign, args.threads)
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
