"""Output checks, run after the timed section.

Each check returns a list of human-readable problems; an empty list passes.
The tolerances are those of the package's own acceptance tests.
"""
from __future__ import annotations

import hashlib
import math

SWEEP_HEADER = (
    "F_E", "F_N", "beta", "mu_l",
    "J_E_l", "J_E_r", "J_E_u", "J_N_l", "J_N_r", "J_N_u",
    "J_Q_l", "J_Q_r", "J_Q_u",
    "gamma_cw", "X", "Y", "M", "N", "PQ", "sigma_macro", "sigma_micro",
    "regime", "cop", "eta", "res_JE", "res_JN", "status",
)
_COL = {name: i for i, name in enumerate(SWEEP_HEADER)}
_TEXT_COLS = {_COL["regime"], _COL["status"]}
MAX_REPORTED = 20


def identity_errors(res_je, res_jn, sigma_macro, sigma_micro, gamma_cw,
                    gamma_closed) -> list[str]:
    """Conservation, second law, macro = micro, and the closed-form cycle flux."""
    errs = []
    if abs(res_je) > 1e-12 or abs(res_jn) > 1e-12:
        errs.append(f"conservation residuals {res_je:.3e}, {res_jn:.3e}")
    if abs(sigma_macro - sigma_micro) > 1e-10:
        errs.append(f"sigma_macro - sigma_micro = {sigma_macro - sigma_micro:.3e}")
    if min(sigma_macro, sigma_micro) < -1e-12:
        errs.append(f"negative entropy production {min(sigma_macro, sigma_micro):.3e}")
    scale = max(abs(gamma_cw), abs(gamma_closed))
    # relative agreement unless the cycle is exponentially suppressed
    if (abs(gamma_cw - gamma_closed) >= 1e-10 * scale if scale > 1e-4
            else abs(gamma_cw - gamma_closed) >= 1e-13):
        errs.append(f"gamma_cw {gamma_cw!r} vs closed form {gamma_closed!r}")
    return errs


def closed_form_flux(f_e: float, f_n: float, cfg: dict):
    """Baths (beta, mu_l) for forces in the icc setup and the cycle-flux oracle."""
    import qdicc
    beta = cfg["beta_r"] + f_e
    mu_l = (cfg["beta_r"] * cfg["mu_r"] - f_n) / beta
    baths = qdicc.icc_reduction(beta, cfg["beta_r"], mu_l, cfg["mu_r"],
                                cfg["mu_u"], cfg["gamma"])
    system = qdicc.SystemParams(eps_b=cfg["eps_b"], eps_u=cfg["eps_u"],
                                kappa=cfg["kappa"])
    return beta, mu_l, qdicc.cycle_flux_closed_form(system, baths)


def regime_digest(rows: list[tuple[str, str]]) -> str:
    """sha256 over the (regime, status) column pairs, one line per row."""
    h = hashlib.sha256()
    for regime, status in rows:
        h.update(f"{regime},{status}\n".encode())
    return h.hexdigest()


def check_sweep_csv(text: str, cfg: dict, reference: dict | None = None):
    """Check one ``qdicc sweep`` CSV against its config.

    Returns (problems, summary); summary holds the status and regime
    histograms and the regime digest compared with ``reference``.
    """
    import numpy as np

    problems: list[str] = []

    def report(msg):
        if len(problems) < MAX_REPORTED:
            problems.append(msg)

    lines = text.split("\n")
    if lines[-1] != "":
        report("output does not end with a newline")
    lines = lines[:-1]
    if not lines or tuple(lines[0].split(",")) != SWEEP_HEADER:
        return ["header does not match the documented schema"], {}
    grid = [(float(f_e), float(f_n))
            for f_e in np.linspace(cfg["F_E_min"], cfg["F_E_max"], cfg["F_E_steps"])
            for f_n in np.linspace(cfg["F_N_min"], cfg["F_N_max"], cfg["F_N_steps"])]
    body = lines[1:]
    if len(body) != len(grid):
        report(f"{len(body)} rows, expected {len(grid)}")
    statuses: dict[str, int] = {}
    regimes: dict[str, int] = {}
    pairs = []
    bad_rows = 0
    for k, line in enumerate(body):
        fields = line.split(",")
        if len(fields) != len(SWEEP_HEADER):
            report(f"row {k}: {len(fields)} fields")
            bad_rows += 1
            continue
        regime, status = fields[_COL["regime"]], fields[_COL["status"]]
        statuses[status] = statuses.get(status, 0) + 1
        regimes[regime] = regimes.get(regime, 0) + 1
        pairs.append((regime, status))
        try:
            values = [float(v) if v else None for i, v in enumerate(fields)
                      if i not in _TEXT_COLS]
        except ValueError:
            report(f"row {k}: unparsable number")
            bad_rows += 1
            continue
        v = dict(zip((n for i, n in enumerate(SWEEP_HEADER) if i not in _TEXT_COLS),
                     values))
        row_errs = []
        if any(x is not None and not math.isfinite(x) for x in values):
            row_errs.append("inf/nan in row")
        if k < len(grid) and (v["F_E"], v["F_N"]) != grid[k]:
            row_errs.append(f"forces ({v['F_E']!r}, {v['F_N']!r}) not grid point {grid[k]}")
        if status == "ok" and not row_errs:
            beta, mu_l, closed = closed_form_flux(v["F_E"], v["F_N"], cfg)
            if (abs(v["beta"] - beta) > 1e-14 * abs(beta)
                    or abs(v["mu_l"] - mu_l) > 1e-14 * max(1.0, abs(mu_l))):
                row_errs.append("beta/mu_l do not realise the row's forces")
            row_errs += identity_errors(v["res_JE"], v["res_JN"], v["sigma_macro"],
                                        v["sigma_micro"], v["gamma_cw"], closed)
        if row_errs:
            bad_rows += 1
            report(f"row {k}: " + "; ".join(row_errs))
    summary = {"rows": len(body), "bad_rows": bad_rows, "status": statuses,
               "regime": regimes, "regime_sha256": regime_digest(pairs)}
    if reference is not None:
        for key in ("rows", "status", "regime", "regime_sha256"):
            if summary[key] != reference[key]:
                report(f"{key} differs from the reference: {summary[key]} "
                       f"vs {reference[key]}")
    return problems, summary


def third_derivative_entropy(pops, w):
    """d^3/dt^3 of the Shannon entropy along dp/dt = W p, at each sample."""
    import numpy as np
    p1 = pops @ w.T
    p2 = p1 @ w.T
    p3 = p2 @ w.T
    return (-np.sum(p3 * np.log(pops), axis=1) - 3.0 * np.sum(p1 * p2 / pops, axis=1)
            + np.sum(p1 ** 3 / pops ** 2, axis=1))


def check_relax(times, pops, ds_dt, sigma_dot, phi_dot, w, rho_ss) -> list[str]:
    """Relaxation reaches the steady state, and the entropy balance closes.

    ``rho_ss`` None skips the first check, for a piece of a trajectory.

    ds_dt is a centered difference with spacing h, so ds_dt - (sigma + phi)
    = (h^2/6) S'''(xi) for some xi within the stencil.  The bound takes
    |S'''| at the stencil's three samples, doubled for its variation
    between them, plus a rounding floor.
    """
    import numpy as np
    problems = []
    if not (np.isfinite(pops).all() and np.isfinite(ds_dt).all()
            and np.isfinite(sigma_dot).all() and np.isfinite(phi_dot).all()):
        return ["non-finite trajectory or entropy balance"]
    dev = 0.0 if rho_ss is None else float(np.abs(pops[-1] - rho_ss).max())
    if dev > 1e-8:
        problems.append(f"final sample {dev:.3e} away from the steady state")
    h = float(times[1] - times[0])
    s3 = np.abs(third_derivative_entropy(pops, w))
    envelope = np.maximum(np.maximum(s3[:-2], s3[1:-1]), s3[2:])
    bound = 2.0 * h * h / 6.0 * envelope + 1e-11
    residual = np.abs(ds_dt - (sigma_dot + phi_dot))
    worst = int(np.argmax(residual - bound))
    if residual[worst] > bound[worst]:
        problems.append(f"entropy-balance residual {residual[worst]:.3e} above the "
                        f"O(h^2) bound {bound[worst]:.3e} at t={times[worst + 1]:g}")
    return problems
