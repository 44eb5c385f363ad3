"""Set-up probe: ``import qdicc`` plus building the first point's inputs.

    setup_probe.py OUT plane_sweep CONFIG
    setup_probe.py OUT tail_census|relax NAME=VALUE...

``run.py`` starts it in a fresh interpreter.  Nothing is imported before
the clock starts beyond what the interpreter loads on its own, and the
inputs arrive as arguments rather than a file, so the time is qdicc's
import and build cost alone.  The NAME=VALUE arguments are the system
(eps_b, eps_u, kappa), the leads (beta_r, mu_r, mu_u, gamma), the forces
F_E and F_N and, for ``relax``, rho0 as four comma-separated numbers.
Writes ``{"setup_s", "numpy", "numba_enabled"}`` as JSON to OUT.
"""
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SYSTEM_KEYS = ("eps_b", "eps_u", "kappa")


def main(argv: list[str]) -> int:
    out, workload, rest = argv[0], argv[1], argv[2:]
    sys.path.insert(0, SRC)
    values = dict(arg.split("=", 1) for arg in rest if "=" in arg)
    t0 = time.perf_counter()
    import qdicc
    if workload == "plane_sweep":
        import qdicc.cli  # noqa: F401  (what ``python -m qdicc`` loads)
        from qdicc.config import (build_sweep_spec, build_system, load_config,
                                  point_baths)
        cfg = load_config(rest[0])
        spec = build_sweep_spec(cfg)
        build_system(cfg)
        point_baths(cfg, float(spec.f_e_values()[0]), float(spec.f_n_values()[0]))
    else:
        num = {k: float(v) for k, v in values.items() if k != "rho0"}
        system = qdicc.SystemParams(**{k: num[k] for k in SYSTEM_KEYS})
        beta, mu_l = qdicc.invert_forces(num["F_E"], num["F_N"], num["beta_r"], num["mu_r"])
        baths = qdicc.icc_reduction(beta, num["beta_r"], mu_l, num["mu_r"], num["mu_u"],
                                    num["gamma"])
        if workload == "relax":
            qdicc.generator(qdicc.rate_constants(system, baths))
            qdicc.PopulationVector([float(x) for x in values["rho0"].split(",")])
    setup_s = time.perf_counter() - t0

    import json

    import numpy
    if not os.path.abspath(qdicc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qdicc imported from {qdicc.__file__}, not from {SRC}")
    with open(out, "w") as fh:
        json.dump({"setup_s": setup_s, "numpy": numpy.__version__,
                   "numba_enabled": bool(qdicc.NUMBA_ENABLED)}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
