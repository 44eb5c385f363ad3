"""qdicc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload plane_sweep|tail_census|relax \\
        --seed N --seconds S --trace 0|1 [--out records.jsonl]

Run from the root of a source checkout; the package is imported from
``src/`` (never from an installed copy), single process, on whatever
backend ``qdicc`` selects (the pure-numpy fallback when numba is absent).
Set-up probes (``setup_probe.py``) run between the timed segments, so
that they sample the same window.

Prints a readable report, a ``fingerprint`` line, and as the last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits 1 if an output check fails, 2 if the sources are
missing.  ``--out`` appends the result and fingerprint to a JSON-lines file
that ``compare.py`` reads.  See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import checks
import inputs as inputs_mod
from spans import ERROR_CLASSES, TARGETS, layer_name, span_names
from worker import Units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SETUP_PROBE = HERE / "setup_probe.py"
REFERENCE = HERE / "reference" / "plane_sweep_seed0.json"
WORKLOADS = ("plane_sweep", "tail_census", "relax")
SEGMENTS = 6             # census and relax: worker processes the window is split into
PROBE_INTERVAL_S = 4.0   # one set-up probe per this much of the run, run in the
                         # gaps between sweep commands or segments
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
    "ok_frac": "fraction", "contract_frac": "fraction",
    "op_us_p50": "us", "op_us_p99": "us",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in span_names():
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for layer in ("bench", "import", *map(layer_name, TARGETS)):
        units[f"{layer}.self_s"] = "s"
    for cls in (*ERROR_CLASSES, "typed", "untyped"):
        units[f"errors.{cls}"] = "count"
    units.update({"warnings.runtime": "count", "cli.out_bytes": "bytes",
                  "kernels.rk4_evolve.steps": "count",
                  "trace.overhead_frac": "fraction", "trace.accounted_frac": "fraction"})
    return units


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence, 0 < q <= 1."""
    return float(sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)])


class Child:
    """A finished child process: exit code, spawn-to-exit wall time, peak RSS."""

    def __init__(self, argv: list[str], work: Path, env: dict):
        with open(work / "child.stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.stderr_tail = (work / "child.stderr").read_text(errors="replace")[-2000:]


class Run:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        self.inputs = inputs_mod.make(args.workload, args.seed)
        self.problems: list[str] = []
        self.report: list[str] = []
        self.probes: list[dict] = []
        self.start = time.perf_counter()

    def child(self, argv: list[str]) -> Child:
        return Child([sys.executable, *argv], self.work, self.env)

    def worker(self, mode: str, *rest: str) -> tuple[Child, dict | None]:
        out = self.work / f"{mode}.json"
        out.unlink(missing_ok=True)
        child = self.child([str(WORKER), mode, str(out), *rest])
        if child.code != 0 or not out.exists():
            self.problems.append(f"worker {mode} exited {child.code}: {child.stderr_tail}")
            return child, None
        return child, json.loads(out.read_text())

    # -- set-up --------------------------------------------------------------
    def probe_args(self) -> list[str]:
        """The first point's inputs, as ``setup_probe.py`` arguments."""
        if self.args.workload == "plane_sweep":
            return [str(self.config_path())]
        if self.args.workload == "tail_census":
            (f_e, f_n), extra = self.inputs["draws"][0], {}
        else:
            spec = self.inputs["specs"][0]
            f_e, f_n = spec["F_E"], spec["F_N"]
            extra = {"rho0": ",".join(map(repr, spec["rho0"]))}
        values = {**self.inputs["system"], **self.inputs["leads"], "F_E": f_e, "F_N": f_n}
        return [f"{k}={v!r}" for k, v in values.items()] + [f"{k}={v}" for k, v in extra.items()]

    def setup_probes(self, n: int) -> None:
        """Time the set-up in ``n`` fresh interpreters."""
        out = self.work / "setup.json"
        for _ in range(n):
            out.unlink(missing_ok=True)
            child = self.child([str(SETUP_PROBE), str(out), self.args.workload,
                                *self.probe_args()])
            if child.code != 0 or not out.exists():
                raise SystemExit(f"set-up probe exited {child.code}: {child.stderr_tail}")
            self.probes.append(json.loads(out.read_text()))

    def probes_due(self) -> None:
        """Catch up on set-up probes, so that they sample the whole run."""
        due = 1 + int((time.perf_counter() - self.start) / PROBE_INTERVAL_S)
        self.setup_probes(max(0, due - len(self.probes)))

    def fingerprint(self, info: dict) -> dict:
        return {
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "python": platform.python_version(),
            "numpy": info["numpy"],
            "numba_present": importlib.util.find_spec("numba") is not None,
            "numba_enabled": info["numba_enabled"],
        }

    def config_path(self) -> Path:
        path = self.work / "plane.cfg"
        if not path.exists():
            path.write_text(inputs_mod.config_text(self.inputs["config"]))
        return path

    # -- workloads -----------------------------------------------------------
    def plane_sweep(self) -> dict:
        cfg = self.inputs["config"]
        csv_path = self.work / "sweep.csv"
        sweep = ["sweep", "--config", str(self.config_path()), "--out", str(csv_path),
                 "--threads", "1"]
        trace_out = self.work / "cli-trace.json"
        n_points = cfg["F_E_steps"] * cfg["F_N_steps"]
        units = Units(self.args.seconds, self.args.trace, min_units=2)
        digests, checked = set(), None
        while units.more():
            traced = units.next_traced()
            csv_path.unlink(missing_ok=True)
            if traced:
                trace_out.unlink(missing_ok=True)
                child = self.child([str(WORKER), "cli-trace", str(trace_out), *sweep])
            else:
                child = self.child(["-m", "qdicc", *sweep])
            unit = units.add(child.wall, n_points, traced, rss=child.peak_rss_mb,
                             code=child.code)
            self.probes_due()
            if child.code != 0 or not csv_path.exists():
                self.problems.append(f"sweep exited {child.code}: {child.stderr_tail}")
                continue
            data = csv_path.read_bytes()
            unit["bytes"] = len(data)
            digests.add(hashlib.sha256(data).hexdigest())
            if checked is None:
                reference = None
                if self.args.seed == 0 and REFERENCE.exists():
                    reference = json.loads(REFERENCE.read_text())
                problems, checked = checks.check_sweep_csv(data.decode(), cfg, reference)
                self.problems.extend(problems)
            if traced:
                units.add_trace(json.loads(trace_out.read_text()))
        if len(digests) > 1:
            self.problems.append("sweep output bytes differ between identical commands")
        # exit codes 2-4 are the CLI's typed failures; anything else is a traceback
        crashed = [u for u in units.units if u["code"] != 0]
        untyped = sum(u["ops"] for u in crashed if u["code"] not in (2, 3, 4))
        done = [u for u in units.units if u["code"] == 0]
        outcomes = {status: n * len(done)
                    for status, n in (checked or {}).get("status", {}).items()}
        if crashed:
            outcomes["command_failed"] = n_points * len(crashed)
        if checked:
            self.report.append(f"regime histogram {checked['regime']}  "
                               f"sha256 {checked['regime_sha256'][:16]}")
        return units.result(
            outcomes=outcomes, untyped=untyped,
            peak_rss_mb=max(u["rss"] for u in units.units if not u["traced"]),
            out_bytes=statistics.median(u.get("bytes", 0) for u in units.units))

    def in_process(self) -> dict:
        """The window as SEGMENTS worker processes, set-up probes in between."""
        path = self.work / "inputs.json"
        path.write_text(json.dumps(self.inputs))
        mode = "census" if self.args.workload == "tail_census" else "relax"
        total = Units(0.0, self.args.trace)
        outcomes, untyped, rss, names, fastest = Counter(), 0, 0.0, None, None
        for _ in range(SEGMENTS):
            child, part = self.worker(mode, str(path), str(self.args.seconds / SEGMENTS),
                                      str(self.args.trace))
            if part is None:
                raise SystemExit(f"{mode} worker failed: {self.problems[-1]}")
            self.probes_due()
            total.units += part["units"]
            if self.args.trace:
                total.add_trace(part["trace"])
            outcomes.update(part["outcomes"])
            untyped += part["untyped"]
            self.problems += [p for p in part["problems"] if p not in self.problems]
            rss = max(rss, child.peak_rss_mb)
            if mode == "census":
                if names is not None and part["names"] != names:
                    self.problems.append("outcomes differ between census workers")
                names = part["names"]
                fastest = list(map(min, fastest or part["fastest_s"], part["fastest_s"]))
        res = total.result(outcomes=dict(outcomes), untyped=untyped, peak_rss_mb=rss,
                           out_bytes=0)
        if mode == "census":
            # each draw's fastest call over all passes: a call disturbed by the
            # neighbours in one pass is timed again in the next
            ok = sorted(x for name, x in zip(names, fastest) if name == "ok") or sorted(fastest)
            passes = sum(1 for u in res["units"] if not u["traced"])
            res.update(lat_p50_us=percentile(ok, 0.50) * 1e6,
                       lat_p99_us=percentile(ok, 0.99) * 1e6,
                       lat_note=f"per call, over {len(ok)} ok draws, each draw's "
                                f"fastest of {passes} passes",
                       assembled_s=math.fsum(fastest),
                       wall_note=f"one pass of {len(names)} calls, each call at its "
                                 f"fastest of {passes} passes")
        return res

    # -- metrics -------------------------------------------------------------
    def execute(self) -> tuple[dict, dict]:
        # the first interpreter also writes the bytecode caches: not counted
        self.setup_probes(1)
        self.probes.clear()
        self.start = time.perf_counter()
        self.probes_due()
        res = self.plane_sweep() if self.args.workload == "plane_sweep" else self.in_process()
        # the lower quartile: probes that ran while the neighbours were busy
        # measure the neighbours, as the slower timed units do
        setup_s = statistics.quantiles([p["setup_s"] for p in self.probes], n=4)[0]
        fingerprint = self.fingerprint(self.probes[-1])
        attempted = sum(u["ops"] for u in res["units"])
        failed = attempted - res["outcomes"].get("ok", 0)
        plain = [u for u in res["units"] if not u["traced"]]
        # the least disturbed unit: on a shared host, slower units measure the
        # neighbours' load rather than the program
        best = min(plain, key=lambda u: u["wall"])
        wall_s = res.get("assembled_s", best["wall"])
        if "lat_note" not in res:
            # the ops inside one call are not timed one by one
            per_op_us = wall_s / best["ops"] * 1e6
            res.update(lat_p50_us=per_op_us, lat_p99_us=per_op_us,
                       lat_note="the fastest unit's wall time per op")
        unit_word = {"plane_sweep": "sweep commands", "tail_census": "census passes",
                     "relax": "evolve calls"}[self.args.workload]
        walls = sorted(u["wall"] for u in plain)
        detail = {
            "setup_s": f"lower quartile of {len(self.probes)} fresh interpreters, "
                       f"one per {PROBE_INTERVAL_S:g} s of the run",
            "wall_s": f"{res.get('wall_note', 'the fastest unit')}; {len(plain)} "
                      f"{unit_word} of {best['ops']} ops, fastest {walls[0]:.4g}, "
                      f"median {statistics.median(walls):.4g}, slowest {walls[-1]:.4g}",
            "ops_per_s": "ops per second of wall_s",
            "peak_rss_mb": "process running the workload",
            "ok_frac": f"{attempted - failed}/{attempted} ok",
            "contract_frac": f"{attempted - res['untyped']}/{attempted} ok or typed error",
            "op_us_p50": res["lat_note"],
            "op_us_p99": res["lat_note"],
        }
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "ops_per_s": best["ops"] / wall_s,
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
            "contract_frac": (attempted - res["untyped"]) / attempted,
            "op_us_p50": res["lat_p50_us"],
            "op_us_p99": res["lat_p99_us"],
        }
        lines = [f"{k:<16} {values[k]:<22.10g} {END_TO_END[k]:<8} {detail[k]}"
                 for k in END_TO_END]
        lines.append(f"fail_frac        {failed / attempted:.6g}  "
                     f"untyped_err_frac {res['untyped'] / attempted:.6g}")
        lines.append("outcomes " + json.dumps(res["outcomes"], sort_keys=True))
        metrics = {k: {"value": float(values[k]), "unit": END_TO_END[k]} for k in END_TO_END}
        if self.args.trace:
            metrics, trace_lines = self.layer_metrics(res, best["wall"])
            lines += trace_lines
        lines = self.report + lines
        lines.append("checks: " + ("passed" if not self.problems
                                   else f"FAILED ({len(self.problems)})"))
        lines += [f"  {p}" for p in self.problems]
        result = {"correct": not self.problems, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        return result, {"fingerprint": fingerprint, "lines": lines}

    def layer_metrics(self, res: dict, untraced_wall: float):
        trace = res["trace"]
        traced = [u for u in res["units"] if u["traced"]]
        n = len(traced)
        traced_wall = min(u["wall"] for u in traced)
        units = per_layer_units()
        values = dict.fromkeys(units, 0.0)
        total_self = 0.0  # of the program's spans, not the benchmark's own
        for name, (self_s, calls) in trace["self_times"].items():
            values[f"{name}.self_s"] = self_s / n
            values[f"{name}.calls"] = calls / n
            layer = name.split(".", 1)[0]
            values[f"{layer}.self_s"] += self_s / n
            if layer != "bench":
                total_self += self_s
        for key, count in trace["counts"].items():
            if key in values:
                values[key] = count / n
        values["warnings.runtime"] = trace["warnings"] / n
        values["cli.out_bytes"] = res["out_bytes"]
        values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        values["trace.accounted_frac"] = total_self / sum(u["wall"] for u in traced)
        metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
        spans = sorted(((values[f"{s}.self_s"], s, values[f"{s}.calls"])
                        for s in span_names()), reverse=True)
        lines = [f"traced units {n}, traced wall {traced_wall:.4f} s, untraced "
                 f"{untraced_wall:.4f} s, overhead {values['trace.overhead_frac']:+.3f}, "
                 f"accounted {values['trace.accounted_frac']:.4f}"]
        lines += [f"  {name:<40} self {s:.6f} s  calls {c:g}" for s, name, c in spans if c]
        lines += [f"  {k} {values[k]:g}" for k in units
                  if k.startswith(("errors.", "warnings.")) and values[k]]
        return metrics, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qdicc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result as a JSON line to this file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qdicc" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'qdicc'}; run from a "
              "qdicc source checkout", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_work"
    work = scratch / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        result, info = Run(args, work).execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("\n".join(info["lines"]))
    print("fingerprint " + json.dumps(info["fingerprint"], sort_keys=True))
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "fingerprint": info["fingerprint"],
                  "result": result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
