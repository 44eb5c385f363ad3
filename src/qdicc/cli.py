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
from contextlib import suppress
from itertools import chain, islice

import numpy as np

from . import __version__, engine
from .config import (COLUMNS, build_sweep_spec, build_system, load_config,
                     point_baths, record_fields)
from .errors import ConfigError, NumericalError, PreconditionError

# the map's code of each engine regime code; index -1 marks a failed or
# unclassified cell
MAP_CODES = "0.xyenEN!"
_MAP_BYTES = np.frombuffer(MAP_CODES.encode(), np.uint8)

# grid points per engine call at most: bounds the arrays of a block on
# large grids
_BLOCK_POINTS = 4096


def _checked(kind, ok, must: str):
    """argparse type: ``kind(text)`` where ``ok`` holds of it, else an
    error that says what the value must be."""
    def read(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {must}, got {value}")
        return value
    return read


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdicc",
        description="Coulomb-coupled quantum-dot transport: steady-state "
                    "currents, entropy production and inverse-current regimes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler in (
        ("solve", "solve a single configuration and print one flat record", _cmd_solve),
        ("sweep", "stream a CSV of records over a force-plane grid", _cmd_sweep),
        ("classify-map", "emit a compact regime-code grid with a legend", _cmd_classify_map),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--config", required=True, help="path to a key = value config file")
        cmd.add_argument("--out", default="-", help="output path, or - for stdout")
        cmd.add_argument("--threads", type=_checked(int, lambda v: v >= 1, "at least 1"),
                         default=1, help="worker processes for sweeps (default 1; at most "
                                         "one per F_E line and per usable CPU)")
        cmd.add_argument("--tol-sign", type=_checked(float, lambda v: 0 <= v < np.inf,
                                                     "finite and non-negative"),
                         default=engine.TOL_SIGN,
                         help="current magnitude treated as numerically zero")
    return parser


def _block_batch(payload):
    """One engine call over a block of grid points at the forces ``f_e``,
    ``f_n``: the record fields ``(f_e, f_n, beta, mu_l)`` of ``point_baths``,
    then the batch.  ``build_sweep_spec`` has checked a sweep block's
    baths, so every failure is a batch row's status; for ``solve``'s 1x1
    grid, ``point_baths`` raises on a missing bath key or a derived beta
    that is not positive, and a raw config's baths give its forces."""
    sys_params, cfg, tol_sign, f_e, f_n = payload[:5]
    baths, *fields = point_baths(cfg, f_e, f_n)
    return (*fields, engine.evaluate(sys_params, *baths, tol_sign=tol_sign))


def _sweep_row(payload) -> list[bytes]:
    """The CSV text of one block of grid points, in chunks; importable so
    workers can pickle it."""
    return record_fields(*_block_batch(payload))


def _map_row(payload) -> list[bytes]:
    """The map text of one block: each point's code, read off the engine's
    status and regime codes, and a newline after each ``line_ends`` point;
    importable so workers can pickle it."""
    batch = _block_batch(payload)[-1]
    codes = _MAP_BYTES[np.where(batch.status == engine.OK, batch.regime, -1)]
    return [np.insert(codes, np.flatnonzero(payload[5]) + 1, ord("\n")).tobytes()]


def _iter_chunks(cfg: dict, tol_sign: float, threads: int, render):
    """Validate the sweep once, then return its spec and an iterator over
    the byte chunks that ``render(payload)`` gives for each block, in grid
    order; a bad config raises here, before any output.  Point ``i *
    F_N_steps + j`` is line i, column j; a block is a run of at most
    ``_BLOCK_POINTS`` consecutive points, a block for every worker, and its
    payload ``(sys_params, cfg, tol_sign, f_e, f_n, line_ends)`` holds each
    point's forces and whether it ends its line."""
    spec = build_sweep_spec(cfg)
    sys_params = build_system(cfg)
    f_e_values, f_n_values = spec.f_e_values(), spec.f_n_values()
    points = spec.f_e_steps * spec.f_n_steps

    # a pool starts every worker it is given: no more than lines or usable CPUs
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(threads, spec.f_e_steps, cpus)
    size = min(_BLOCK_POINTS, -(-points // workers))
    grid = (np.divmod(np.arange(start, min(start + size, points)), spec.f_n_steps)
            for start in range(0, points, size))
    payloads = ((sys_params, cfg, tol_sign, f_e_values[line], f_n_values[column],
                 column == spec.f_n_steps - 1) for line, column in grid)

    def blocks():
        if workers > 1:
            # imported here: the pool machinery costs every CLI start ~20 ms
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # pool.map would take every payload at once: workers + 1 in flight
                pending = [pool.submit(render, item) for item in islice(payloads, workers)]
                while pending:
                    pending += [pool.submit(render, item) for item in islice(payloads, 1)]
                    yield pending.pop(0).result()
        else:
            yield from map(render, payloads)

    return spec, chain.from_iterable(blocks())


def _write_lines(out: str, chunks) -> None:
    """Write each bytes chunk of ``chunks`` to the file ``out``, or as text
    to standard output for ``-``."""
    if out == "-":
        # None when the process started with its standard output closed
        if sys.stdout is None:
            raise OSError("standard output is closed")
        sys.stdout.writelines(chunk.decode() for chunk in chunks)
    else:
        with open(out, "wb") as fh:
            fh.writelines(chunks)


def _cmd_solve(cfg: dict, args) -> int:
    axis_keys = [k for k in cfg if k.endswith(("_min", "_max", "_steps"))]
    if axis_keys:
        raise ConfigError(
            f"solve takes point forces, not sweep axes ({', '.join(sorted(axis_keys))}); "
            "use the sweep or classify-map command"
        )
    # the 1x1 grid of the sweep at the point forces
    fields = _block_batch((build_system(cfg), cfg, args.tol_sign,
                           np.array([cfg.get("F_E", 0.0)]), np.array([cfg.get("F_N", 0.0)])))
    engine.raise_for_status(fields[-1].status[0])
    record = b"".join(record_fields(*fields)).decode().rstrip("\n").split(",")
    _write_lines(args.out, ["".join(f"{name} = {value}\n"
                                    for name, value in zip(COLUMNS, record)).encode()])
    return 0


def _cmd_sweep(cfg: dict, args) -> int:
    _spec, chunks = _iter_chunks(cfg, args.tol_sign, args.threads, _sweep_row)
    _write_lines(args.out, chain([(",".join(COLUMNS) + "\n").encode()], chunks))
    return 0


def _cmd_classify_map(cfg: dict, args) -> int:
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


def _report(code: int, line: str) -> int:
    """Print ``line`` on standard error unless it is closed (None, or a
    stream on a dead descriptor), and return ``code``."""
    if sys.stderr is not None:
        with suppress(OSError):
            print(line, file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(load_config(args.config), args)
    except ConfigError as exc:
        return _report(2, f"config error: {exc}")
    except OSError as exc:
        return _report(2, f"output error: {exc}")
    except (PreconditionError, ValueError) as exc:
        return _report(3, f"precondition error: {exc}")
    except NumericalError as exc:
        return _report(4, f"numerical error: {exc}")


def __getattr__(name):
    # perfbench's tracer test reads cli.analyze_point and asserts that it is
    # icc's current binding; resolved on access so that the sweep path does
    # not import icc.  It goes when that test is re-targeted (ROADMAP item 1).
    if name == "analyze_point":
        from .icc import analyze_point
        return analyze_point
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    raise SystemExit(main())
