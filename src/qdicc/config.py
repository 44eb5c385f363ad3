"""Plain-text configuration parsing and flat result records.

Config files are one ``key = value`` assignment per line with ``#``
comments.  Recognized keys:

==============  =====================================================
eps_b, eps_u    dot energies (eps_b < eps_u)
kappa           net inter-dot coupling, or
kappa_c,        Coulomb and spin-spin components (kappa = kappa_c -
kappa_s         kappa_s); pass one form, not both
beta_r, mu_r    right-lead inverse temperature and chemical potential
mu_u            upper-lead chemical potential (default: mu_r)
gamma           common tunneling rate (default 1.0)
setup           icc | thermoelectric | raw (default icc)
F_E, F_N        point forces for ``solve``
F_E_min/max/steps, F_N_min/max/steps   sweep axes
beta_l, beta_u, mu_l                   raw setup only
==============  =====================================================

In the ``icc`` setup (beta_l = beta_u) the forces are (f_e_r, f_n_r) and
the derived parameters are beta = beta_r + F_E and mu_l; in the
``thermoelectric`` setup (beta_l = beta_r) they are (f_e_u, f_n_r) with
derived beta_u = beta_r - F_E.  ``raw`` takes all six bath parameters
explicitly and supports ``solve`` only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import REGIMES, Batch
from .errors import ConfigError, PreconditionError
from .icc import IccPoint, Regime, icc_reduction, invert_forces, thermoelectric_reduction
from .model import BathConfig, Lead, Reservoir, SystemParams

COLUMNS: tuple[str, ...] = (
    "F_E", "F_N", "beta", "mu_l",
    "J_E_l", "J_E_r", "J_E_u",
    "J_N_l", "J_N_r", "J_N_u",
    "J_Q_l", "J_Q_r", "J_Q_u",
    "gamma_cw", "X", "Y", "M", "N", "PQ",
    "sigma_macro", "sigma_micro",
    "regime", "cop", "eta",
    "res_JE", "res_JN", "status",
)

_FLOAT_KEYS = {
    "eps_b", "eps_u", "kappa", "kappa_c", "kappa_s",
    "beta_r", "mu_r", "mu_u", "gamma",
    "F_E", "F_N",
    "F_E_min", "F_E_max", "F_N_min", "F_N_max",
    "beta_l", "beta_u", "mu_l",
}
_INT_KEYS = {"F_E_steps", "F_N_steps"}
_STR_KEYS = {"setup"}
KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS

SETUPS = ("icc", "thermoelectric", "raw")


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into a typed dict; unknown keys are errors."""
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key in _STR_KEYS:
            cfg[key] = value
        elif key in _INT_KEYS:
            try:
                cfg[key] = int(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} needs an integer, got {value!r}") from None
        else:
            try:
                cfg[key] = float(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} needs a number, got {value!r}") from None
    setup = cfg.setdefault("setup", "icc")
    if setup not in SETUPS:
        raise ConfigError(f"setup must be one of {SETUPS}, got {setup!r}")
    return cfg


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"missing required key(s): {', '.join(missing)}")


def build_system(cfg: dict) -> SystemParams:
    _require(cfg, "eps_b", "eps_u")
    has_parts = "kappa_c" in cfg or "kappa_s" in cfg
    if has_parts:
        if "kappa" in cfg:
            raise ConfigError("pass either kappa or (kappa_c, kappa_s), not both")
        _require(cfg, "kappa_c", "kappa_s")
        return SystemParams(eps_b=cfg["eps_b"], eps_u=cfg["eps_u"],
                            kappa_c=cfg["kappa_c"], kappa_s=cfg["kappa_s"])
    _require(cfg, "kappa")
    return SystemParams(eps_b=cfg["eps_b"], eps_u=cfg["eps_u"], kappa=cfg["kappa"])


def _leads(cfg: dict) -> tuple[float, float, float, float]:
    """(beta_r, mu_r, mu_u, gamma) with their documented defaults."""
    _require(cfg, "beta_r", "mu_r")
    return cfg["beta_r"], cfg["mu_r"], cfg.get("mu_u", cfg["mu_r"]), cfg.get("gamma", 1.0)


def point_baths(cfg: dict, f_e: float, f_n: float) -> tuple[BathConfig, float, float]:
    """Baths realizing forces (f_e, f_n) in the configured setup.

    Returns (baths, derived beta, mu_l); the derived beta is beta_l = beta_u
    for the two-force setup and beta_u for the thermoelectric one.
    """
    beta_r, mu_r, mu_u, gamma = _leads(cfg)
    setup = cfg["setup"]
    if setup == "icc":
        beta, mu_l = invert_forces(f_e, f_n, beta_r, mu_r)
        return icc_reduction(beta, beta_r, mu_l, mu_r, mu_u, gamma), beta, mu_l
    if setup == "thermoelectric":
        beta_u = beta_r - f_e
        if beta_u <= 0:
            raise ValueError(
                f"force F_E={f_e} needs beta_r > {f_e} to keep beta_u positive"
            )
        mu_l = mu_r - f_n / beta_r
        return (thermoelectric_reduction(beta_r, beta_u, mu_l, mu_r, mu_u, gamma),
                beta_u, mu_l)
    raise PreconditionError("raw setup does not support force coordinates")


def line_baths(cfg: dict, f_e: float, f_n: np.ndarray):
    """Baths of one F_E line of a two-force sweep, as the (l, r, u) triples
    of beta, mu and gamma that :func:`qdicc.engine.evaluate` takes; beta_l =
    beta_u is the derived beta and mu_l an array over ``f_n``.  Raises
    ValueError, as :func:`point_baths` does, when beta is not positive.
    """
    beta_r, mu_r, mu_u, gamma = _leads(cfg)
    beta, mu_l = invert_forces(f_e, f_n, beta_r, mu_r)
    return (beta, beta_r, beta), (mu_l, mu_r, mu_u), (gamma, gamma, gamma)


def raw_baths(cfg: dict) -> BathConfig:
    _require(cfg, "beta_l", "beta_r", "beta_u", "mu_l", "mu_r", "mu_u")
    for key in ("F_E", "F_N"):
        if key in cfg:
            raise ConfigError(f"{key} is not accepted in the raw setup")
    gamma = cfg.get("gamma", 1.0)
    return BathConfig(
        l=Reservoir(Lead.L, beta=cfg["beta_l"], mu=cfg["mu_l"], gamma=gamma),
        r=Reservoir(Lead.R, beta=cfg["beta_r"], mu=cfg["mu_r"], gamma=gamma),
        u=Reservoir(Lead.U, beta=cfg["beta_u"], mu=cfg["mu_u"], gamma=gamma),
    )


@dataclass(frozen=True)
class SweepSpec:
    """A rectangular force-plane grid plus the fixed system/bath parameters."""

    f_e_min: float
    f_e_max: float
    f_e_steps: int
    f_n_min: float
    f_n_max: float
    f_n_steps: int

    def __post_init__(self):
        if self.f_e_steps < 2 or self.f_n_steps < 2:
            raise ConfigError("sweep axes need at least 2 steps each")

    def f_e_values(self) -> np.ndarray:
        return np.linspace(self.f_e_min, self.f_e_max, self.f_e_steps)

    def f_n_values(self) -> np.ndarray:
        return np.linspace(self.f_n_min, self.f_n_max, self.f_n_steps)


def build_sweep_spec(cfg: dict) -> SweepSpec:
    if cfg["setup"] != "icc":
        raise PreconditionError(
            "sweeps classify the two-force plane and need setup = icc"
        )
    for key in ("F_E", "F_N"):
        if key in cfg:
            raise ConfigError(f"{key} conflicts with sweep axes; remove it")
    _require(cfg, "F_E_min", "F_E_max", "F_E_steps",
             "F_N_min", "F_N_max", "F_N_steps", "beta_r", "mu_r")
    spec = SweepSpec(
        f_e_min=cfg["F_E_min"], f_e_max=cfg["F_E_max"], f_e_steps=cfg["F_E_steps"],
        f_n_min=cfg["F_N_min"], f_n_max=cfg["F_N_max"], f_n_steps=cfg["F_N_steps"],
    )
    if cfg["beta_r"] + spec.f_e_min <= 0:
        raise ConfigError("beta_r + F_E_min must stay positive")
    return spec


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.16e}"


def record_fields(f_e: float, f_n: float, beta: float, mu_l: float,
                  point: IccPoint | None, status: str) -> tuple[str, ...]:
    """One flat output row in COLUMNS order; unfilled cells stay empty."""
    if point is None:
        body = [""] * 17 + ["", "", ""]
    else:
        cs = point.currents
        body = [
            _fmt(cs.j_e_l), _fmt(cs.j_e_r), _fmt(cs.j_e_u),
            _fmt(cs.j_n_l), _fmt(cs.j_n_r), _fmt(cs.j_n_u),
            _fmt(cs.j_q_l), _fmt(cs.j_q_r), _fmt(cs.j_q_u),
            _fmt(point.gamma_cw), _fmt(point.x), _fmt(point.y),
            _fmt(point.m), _fmt(point.n), _fmt(point.pq),
            _fmt(point.sigma_macro), _fmt(point.sigma_micro),
            point.regime.value if isinstance(point.regime, Regime) else "",
            _fmt(point.cop), _fmt(point.efficiency),
        ]
    diag = ["", ""] if point is None else [_fmt(point.res_j_e), _fmt(point.res_j_n)]
    return (_fmt(f_e), _fmt(f_n), _fmt(beta), _fmt(mu_l), *body, *diag, status)


# a failed row keeps its forces and status; every other cell stays empty
_EMPTY = ("",) * (len(COLUMNS) - 3)


def line_records(f_e: float, f_n: np.ndarray, beta: float, mu_l: np.ndarray,
                 batch: Batch, status_words) -> list[tuple[str, ...]]:
    """The rows of one sweep line in COLUMNS order, cell for cell as
    :func:`record_fields` writes them; ``status_words`` names each status
    code of the batch."""
    fmt = "{:.16e}".format

    def optional(value):  # NaN marks a cell the batch leaves undefined
        return "" if value != value else fmt(value)

    cells = np.vstack((
        np.broadcast_to(beta, f_n.shape), mu_l, batch.currents, batch.gamma_cw,
        batch.x, batch.y, batch.m, batch.n, batch.pq, batch.sigma_macro,
        batch.sigma_micro, batch.cop, batch.eta, batch.res_j_e, batch.res_j_n,
    )).T.tolist()
    f_e_cell = fmt(f_e)
    rows = []
    for f, code, regime, v in zip(f_n.tolist(), batch.status.tolist(),
                                  batch.regime.tolist(), cells):
        if code:
            rows.append((f_e_cell, fmt(f), *_EMPTY, status_words[code]))
            continue
        rows.append((
            f_e_cell, fmt(f), *map(fmt, v[:16]), optional(v[16]), fmt(v[17]),
            fmt(v[18]), REGIMES[regime].value if regime >= 0 else "",
            optional(v[19]), optional(v[20]), fmt(v[21]), fmt(v[22]),
            status_words[code],
        ))
    return rows
