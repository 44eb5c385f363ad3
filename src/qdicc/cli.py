"""Command-line interface: single-point solves, force-plane sweeps, regime maps.

Exit codes: 0 success, 2 configuration/parse error or unwritable output,
3 violated physics precondition, 4 numerical failure.  Sweep output is
deterministic: the same config produces byte-identical CSV regardless of
the worker count.
"""
from __future__ import annotations

import argparse
import os
import sys
from itertools import chain

import numpy as np

from . import __version__, engine
from .config import (COLUMNS, build_sweep_spec, build_system, load_config,
                     point_baths, raw_baths, record_fields)
from .errors import ConfigError, NumericalError, PreconditionError
# unused here: perfbench's tracer test asserts that it patches this binding;
# it goes when the benchmark spans are re-targeted (ROADMAP item 1)
from .icc import analyze_point  # noqa: F401

# the map's code of each engine regime code; index -1 marks a failed or
# unclassified cell
MAP_CODES = "0.xyenEN!"
_MAP_BYTES = np.frombuffer(MAP_CODES.encode(), np.uint8)

# grid points per engine call at most (unless one F_E line holds more):
# bounds the arrays of a block on large grids
_BLOCK_POINTS = 4096


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
                         help="worker processes for sweeps (default 1; at most "
                              "one per F_E line and per CPU)")
        cmd.add_argument("--tol-sign", type=_tolerance, default=engine.TOL_SIGN,
                         help="current magnitude treated as numerically zero")
    return parser


def _solve_record(cfg: dict, tol_sign: float) -> list[str]:
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
    return b"".join(record_fields(f_e, f_n, beta, mu_l, batch)).decode().rstrip("\n").split(",")


def _block_batch(payload):
    """One engine call over a block of consecutive F_E grid lines, in
    row-major order: ``(f_e, f_n, beta, mu_l, batch)``.  ``build_sweep_spec``
    has checked the block's baths, so every failure is a batch row's
    status."""
    sys_params, cfg, tol_sign, f_e_values, f_n_values = payload
    f_e = np.repeat(f_e_values, len(f_n_values))
    f_n = np.tile(f_n_values, len(f_e_values))
    baths, beta, mu_l = point_baths(cfg, f_e, f_n)
    return f_e, f_n, beta, mu_l, engine.evaluate(sys_params, *baths, tol_sign=tol_sign)


def _sweep_row(payload) -> list[bytes]:
    """The CSV text of one block of F_E grid lines, in chunks; importable
    so workers can pickle it."""
    return record_fields(*_block_batch(payload))


def _map_row(payload) -> list[bytes]:
    """The map rows of one block of F_E grid lines, read off the engine's
    status and regime codes; importable so workers can pickle it."""
    batch = _block_batch(payload)[-1]
    codes = np.where(batch.status == engine.OK, batch.regime, -1)
    rows = _MAP_BYTES[codes].reshape(-1, len(payload[-1]))
    return [np.concatenate((rows, np.full((len(rows), 1), ord("\n"), np.uint8)), axis=1).tobytes()]


def _iter_chunks(cfg: dict, tol_sign: float, threads: int, render):
    """Validate the sweep once, then return its spec and an iterator over
    the byte chunks that ``render(payload)`` gives for each block of F_E
    grid lines, in grid order; a bad config raises here, before any
    output."""
    spec = build_sweep_spec(cfg)
    sys_params = build_system(cfg)
    f_e_values, f_n_values = spec.f_e_values(), spec.f_n_values()

    # a pool starts every worker it is given: no more than lines or CPUs
    workers = min(threads, spec.f_e_steps, os.cpu_count() or 1)
    # lines per block: a bounded engine call, and a block for every worker
    size = max(1, min(_BLOCK_POINTS // spec.f_n_steps, -(-spec.f_e_steps // workers)))
    payloads = [(sys_params, cfg, tol_sign, f_e_values[i:i + size], f_n_values)
                for i in range(0, spec.f_e_steps, size)]

    def blocks():
        if workers > 1:
            # imported here: the pool machinery costs every CLI start ~20 ms
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                yield from pool.map(render, payloads)
        else:
            yield from map(render, payloads)

    return spec, chain.from_iterable(blocks())


def _write_lines(out: str, chunks) -> None:
    """Write each bytes chunk of ``chunks`` to the file ``out``, or as text
    to standard output for ``-``."""
    if out == "-":
        sys.stdout.writelines(chunk.decode() for chunk in chunks)
    else:
        with open(out, "wb") as fh:
            fh.writelines(chunks)


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    record = _solve_record(cfg, args.tol_sign)
    _write_lines(args.out, ["".join(f"{name} = {value}\n"
                                    for name, value in zip(COLUMNS, record)).encode()])
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    _spec, chunks = _iter_chunks(cfg, args.tol_sign, args.threads, _sweep_row)
    _write_lines(args.out, chain([(",".join(COLUMNS) + "\n").encode()], chunks))
    return 0


def _cmd_classify_map(args) -> int:
    cfg = load_config(args.config)
    spec, chunks = _iter_chunks(cfg, args.tol_sign, args.threads, _map_row)
    legend = " ".join(f"{code}={name}" for name, code in
                      zip([r.value for r in engine.REGIMES] + ["error"], MAP_CODES))
    header = [
        "# regime map, one code per grid cell",
        f"# rows: F_E from {spec.f_e_min:g} to {spec.f_e_max:g} in {spec.f_e_steps} steps",
        f"# columns: F_N from {spec.f_n_min:g} to {spec.f_n_max:g} in {spec.f_n_steps} steps",
        f"# legend: {legend}",
    ]
    _write_lines(args.out, chain(["".join(line + "\n" for line in header).encode()], chunks))
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
