"""Child-process side of the benchmark.

Each mode runs in a fresh interpreter started by ``run.py`` so that peak
RSS belongs to the workload alone, and writes one JSON object to the path
given as its first argument::

    worker.py census    OUT INPUTS SECONDS TRACE
    worker.py relax     OUT INPUTS SECONDS TRACE
    worker.py cli-trace OUT CLI-ARGS...       one traced ``qdicc`` command

``census`` and ``relax`` time units for SECONDS, at least one; with
TRACE = 1 the units alternate untraced and traced, so one run gives the
per-layer spans and the tracing overhead.  ``run.py`` starts several of
them per run, with set-up probes in between.
"""
from __future__ import annotations

import json
import math
import os
import sys
import time
import warnings
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import checks  # noqa: E402
from spans import Tracer, is_typed  # noqa: E402


def import_qdicc():
    import qdicc
    if not os.path.abspath(qdicc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qdicc imported from {qdicc.__file__}, not from {SRC}")
    return qdicc


def _baths(qdicc, leads: dict, f_e: float, f_n: float):
    beta, mu_l = qdicc.invert_forces(f_e, f_n, leads["beta_r"], leads["mu_r"])
    return qdicc.icc_reduction(beta, leads["beta_r"], mu_l, leads["mu_r"],
                               leads["mu_u"], leads["gamma"])


class Units:
    """Timed units of one run and the traced totals."""

    def __init__(self, seconds: float, trace: bool, min_units: int = 1):
        self.deadline = time.perf_counter() + seconds
        self.trace = trace
        self.min_units = min_units  # of each kind, whatever ``seconds`` says
        self.tracer = Tracer() if trace else None
        self.units: list[dict] = []
        self.self_times: dict[str, list] = {}
        self.warnings = 0

    def next_traced(self) -> bool:
        """Alternate untraced / traced units when tracing."""
        return self.trace and len(self.units) % 2 == 1

    def more(self) -> bool:
        untraced = sum(1 for u in self.units if not u["traced"])
        traced = len(self.units) - untraced
        if untraced < self.min_units or (self.trace and traced < self.min_units):
            return True
        return time.perf_counter() < self.deadline

    def add(self, wall: float, ops: int, traced: bool, **extra) -> dict:
        unit = {"wall": wall, "ops": ops, "traced": traced, **extra}
        self.units.append(unit)
        return unit

    def run(self, func, ops: int):
        """Time ``func()``, as a traced unit when it is the tracer's turn."""
        traced = self.next_traced()
        if not traced:
            t0 = time.perf_counter()
            out = func()
            self.add(time.perf_counter() - t0, ops, False)
            return out
        tracer = self.tracer
        tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                with tracer.span("bench.unit"):
                    out = func()
                wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        self.warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
        merge(self.self_times, tracer.drain())
        self.add(wall, ops, True)
        return out

    def result(self, **extra) -> dict:
        out = {"units": self.units, **extra}
        if self.trace:
            out["trace"] = {"self_times": self.self_times,
                            "counts": dict(self.tracer.counts),
                            "warnings": self.warnings}
        return out

    def add_trace(self, traced: dict) -> None:
        """Fold in the spans of a unit traced in another process."""
        merge(self.self_times, traced["self_times"])
        self.tracer.counts.update(traced["counts"])
        self.warnings += traced["warnings"]


def merge(total: dict, part: dict) -> None:
    for name, (self_s, calls) in part.items():
        entry = total.setdefault(name, [0.0, 0])
        entry[0] += self_s
        entry[1] += calls


def census_pass(analyze, system, baths_list, latencies) -> list:
    """One call of ``analyze(system, baths)`` per draw.

    Returns, per draw, the IccPoint or the exception's class (not the
    exception, whose traceback would keep the failed call's frames alive);
    an exception of any class is recorded and the pass goes on.  Appends
    each call's latency in seconds to ``latencies`` when it is not None.
    """
    clock = time.perf_counter
    outcomes = []
    for baths in baths_list:
        t0 = clock()
        try:
            outcome = analyze(system, baths)
        except Exception as exc:  # the census counts every failure class
            outcome = type(exc)
        if latencies is not None:
            latencies.append(clock() - t0)
        outcomes.append(outcome)
    return outcomes


def outcome_name(outcome) -> str:
    return outcome.__name__ if isinstance(outcome, type) else "ok"


def check_census_point(point, f_e: float, f_n: float, cfg: dict):
    """'ok', 'nonfinite' (a silent inf/nan) or a list of broken identities."""
    cs = point.currents
    numbers = [*cs.j_e, *cs.j_n, *cs.j_q, point.gamma_cw, point.x, point.y,
               point.m, point.n, point.pq, point.cop, point.efficiency,
               point.sigma_macro, point.sigma_micro, point.res_j_e, point.res_j_n]
    if not all(math.isfinite(v) for v in numbers if v is not None):
        return "nonfinite"
    _beta, _mu_l, closed = checks.closed_form_flux(f_e, f_n, cfg)
    errs = checks.identity_errors(point.res_j_e, point.res_j_n, point.sigma_macro,
                                  point.sigma_micro, point.gamma_cw, closed)
    return errs or "ok"


def census_tally(names: list[str], passes: int, verdicts: dict) -> Counter:
    """Outcome counts of ``passes`` passes over draws with outcome ``names``;
    ok draws that failed their check are counted under the verdict instead."""
    counts: Counter = Counter()
    for k, name in enumerate(names):
        counts[verdicts.get(k, name)] += passes
    return counts


def census(inputs_path: str, seconds: float, trace: bool) -> dict:
    with open(inputs_path) as fh:
        inputs = json.load(fh)
    qdicc = import_qdicc()
    system = qdicc.SystemParams(**inputs["system"])
    draws = inputs["draws"]
    baths_list = [_baths(qdicc, inputs["leads"], f_e, f_n) for f_e, f_n in draws]
    units = Units(seconds, trace)
    first, names, passes, problems = None, None, 0, []
    fastest = [math.inf] * len(draws)  # per draw, its fastest untraced call
    while units.more():
        lat = None if units.next_traced() else []
        outcomes = units.run(lambda: census_pass(qdicc.analyze_point, system,
                                                 baths_list, lat), len(draws))
        pass_names = [outcome_name(o) for o in outcomes]
        if first is None:
            first, names = outcomes, pass_names
        elif pass_names != names and not problems:
            problems.append("outcomes differ between passes over the same draws")
        passes += 1
        if lat is not None:
            fastest = list(map(min, fastest, lat))

    cfg = dict(inputs["system"], **inputs["leads"])
    verdicts, untyped_names = {}, {"NonFiniteOk"}
    for k, outcome in enumerate(first):
        if isinstance(outcome, type):
            if not is_typed(outcome):
                untyped_names.add(outcome.__name__)
            continue
        verdict = check_census_point(outcome, *draws[k], cfg)
        if verdict == "nonfinite":
            verdicts[k] = "NonFiniteOk"
        elif verdict != "ok":
            verdicts[k] = "IdentityBroken"
            if len(problems) < checks.MAX_REPORTED:
                problems.append(f"draw {k} {draws[k]}: " + "; ".join(verdict))
    counts = census_tally(names, passes, verdicts)
    return units.result(
        outcomes=dict(counts),
        untyped=sum(n for name, n in counts.items() if name in untyped_names),
        problems=problems, names=names, fastest_s=fastest)


def relax(inputs_path: str, seconds: float, trace: bool) -> dict:
    with open(inputs_path) as fh:
        inputs = json.load(fh)
    qdicc = import_qdicc()
    import numpy as np
    system = qdicc.SystemParams(**inputs["system"])
    dt, stride, chunks = inputs["dt"], inputs["stride"], inputs["chunks"]
    t_chunk = inputs["t_end"] / chunks
    n_steps = int(round(t_chunk / dt))
    specs = [(_baths(qdicc, inputs["leads"], s["F_E"], s["F_N"]), np.array(s["rho0"]))
             for s in inputs["specs"]]
    units = Units(seconds, trace)
    counts: Counter = Counter()
    problems: list[str] = []
    untyped = 0

    def piece(baths, rho):
        rc = qdicc.rate_constants(system, baths)
        w = qdicc.generator(rc)
        try:
            traj = qdicc.evolve(rho, w, dt, t_chunk, stride)
            return w, traj, qdicc.entropy_balance_transient(traj, rc)
        except Exception as exc:  # recorded as a failed evolve
            return w, None, exc

    trajectories = 0
    while units.more():
        baths, rho = specs[trajectories % len(specs)]
        trajectories += 1
        for k in range(chunks):  # one timed unit each
            if trajectories > 1 and not units.more():
                break  # the window is over; only the first trajectory runs to the end
            w, traj, bal = units.run(lambda: piece(baths, rho), n_steps)
            if isinstance(bal, Exception):
                counts[type(bal).__name__] += n_steps
                untyped += 0 if is_typed(type(bal)) else n_steps
                break
            rho_ss = qdicc.steady_state(w).rho.values if k == chunks - 1 else None
            errs = checks.check_relax(traj.times, traj.populations, bal.ds_dt,
                                      bal.sigma_dot, bal.phi_dot, w.matrix, rho_ss)
            if errs:
                counts["CheckFailed"] += n_steps
                problems.extend(f"trajectory {trajectories - 1} piece {k}: {e}"
                                for e in errs)
            else:
                counts["ok"] += n_steps
            rho = traj.populations[-1]
    return units.result(outcomes=dict(counts), untyped=untyped,
                        problems=problems[:checks.MAX_REPORTED])


def cli_trace(cli_args: list[str]) -> dict:
    tracer = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracer.span("bench.unit"):
            with tracer.span("import.qdicc"):
                import_qdicc()
                import qdicc.cli
            tracer.install()
            code = qdicc.cli.main(cli_args)
    return {"exit": code, "self_times": tracer.drain(), "counts": dict(tracer.counts),
            "warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught)}


def main(argv: list[str]) -> int:
    mode, out_path, rest = argv[0], argv[1], argv[2:]
    if mode == "census":
        result = census(rest[0], float(rest[1]), rest[2] == "1")
    elif mode == "relax":
        result = relax(rest[0], float(rest[1]), rest[2] == "1")
    elif mode == "cli-trace":
        result = cli_trace(rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return result.get("exit", 0)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
