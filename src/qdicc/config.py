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

from .engine import ERRORS, OK, REGIMES, Batch
from .errors import ConfigError, NumericalError, PreconditionError
from .icc import invert_forces
from .model import SystemParams

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
    except UnicodeDecodeError as exc:  # a ValueError, not a physics precondition
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from exc


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


def point_baths(cfg: dict, f_e, f_n):
    """Baths realizing forces (f_e, f_n) in the configured setup.

    Returns the (l, r, u) triples of beta, mu and gamma that
    :func:`qdicc.engine.evaluate` takes, the derived beta and mu_l; ``f_e``
    and ``f_n`` are scalars or arrays over the same grid points, and beta
    and mu_l follow their shapes.  The derived beta is beta_l = beta_u for
    the two-force setup and beta_u for the thermoelectric one; a derived
    beta that is not positive raises ValueError naming the first such
    force.  The engine's BAD_BATHS gate checks everything else.
    """
    beta_r, mu_r, mu_u, gamma = _leads(cfg)
    setup = cfg["setup"]
    if setup == "icc":
        beta, mu_l = invert_forces(f_e, f_n, beta_r, mu_r)
        betas = (beta, beta_r, beta)
    elif setup == "thermoelectric":
        beta = beta_r - f_e
        if np.any(beta <= 0):
            f_e = np.broadcast_to(f_e, np.shape(beta))[np.asarray(beta) <= 0][0]
            raise ValueError(
                f"force F_E={f_e} needs beta_r > {f_e} to keep beta_u positive"
            )
        mu_l = mu_r - f_n / beta_r
        betas = (beta_r, beta_r, beta)
    else:
        raise PreconditionError("raw setup does not support force coordinates")
    return (betas, (mu_l, mu_r, mu_u), (gamma, gamma, gamma)), beta, mu_l


def raw_baths(cfg: dict):
    """The (l, r, u) triples of beta, mu and gamma of the raw setup."""
    _require(cfg, "beta_l", "beta_r", "beta_u", "mu_l", "mu_r", "mu_u")
    for key in ("F_E", "F_N"):
        if key in cfg:
            raise ConfigError(f"{key} is not accepted in the raw setup")
    gamma = cfg.get("gamma", 1.0)
    return ((cfg["beta_l"], cfg["beta_r"], cfg["beta_u"]),
            (cfg["mu_l"], cfg["mu_r"], cfg["mu_u"]), (gamma, gamma, gamma))


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
    for key in ("F_E_min", "F_E_max", "F_N_min", "F_N_max",
                "beta_r", "mu_r", "mu_u", "gamma"):
        if key in cfg and not np.isfinite(cfg[key]):
            raise ConfigError(f"{key} must be finite, got {cfg[key]!r}")
    spec = SweepSpec(
        f_e_min=cfg["F_E_min"], f_e_max=cfg["F_E_max"], f_e_steps=cfg["F_E_steps"],
        f_n_min=cfg["F_N_min"], f_n_max=cfg["F_N_max"], f_n_steps=cfg["F_N_steps"],
    )
    # bounds the derived beta = beta_r + F_E of every line: point_baths cannot
    # fail inside a sweep
    if cfg["beta_r"] + min(spec.f_e_min, spec.f_e_max) <= 0:
        raise ConfigError("beta_r + F_E must stay positive along the whole F_E axis")
    return spec


# the status column's word for each engine status code
STATUS_WORDS = {OK: "ok", **{
    code: "error:numerical" if issubclass(cls, NumericalError) else "error:precondition"
    for code, (cls, _msg) in ERRORS.items()}}

# one %-template per row in COLUMNS order: an ok row's float cells, the
# optional PQ, regime, cop and eta cells as preformatted strings; a failed
# row keeps its forces and status, with every other cell empty
_OK_ROW = ",".join(["%.16e"] * 18 + ["%s"] + ["%.16e"] * 2 + ["%s"] * 3
                   + ["%.16e"] * 2 + [STATUS_WORDS[OK]])
_FAILED_ROW = "%.16e,%.16e" + "," * (len(COLUMNS) - 2) + "%s"

# the regime column's word for each engine regime code; -1 (not two-force
# reduced) reads the last entry, an empty cell
_REGIME_WORDS = [r.value for r in REGIMES] + [""]


def _optional(values: np.ndarray) -> list[str]:
    """%.16e cells, left empty where NaN marks a value the batch leaves
    undefined."""
    return ["" if v != v else "%.16e" % v for v in values.tolist()]


def record_fields(f_e, f_n, beta, mu_l, batch: Batch) -> list[str]:
    """The CSV lines of a batch in COLUMNS order, one per batch point.

    ``f_e``, ``f_n`` and the derived bath parameters ``beta`` and ``mu_l``
    of :func:`point_baths` broadcast to the batch.  Every row comes from a
    batch point: one that failed a gate keeps its forces and the
    :data:`STATUS_WORDS` word of its status, with every other cell empty.
    """
    shape = batch.status.shape
    cells = np.vstack((
        np.broadcast_to(f_e, shape), np.broadcast_to(f_n, shape),
        np.broadcast_to(beta, shape), np.broadcast_to(mu_l, shape),
        batch.currents, batch.gamma_cw, batch.x, batch.y, batch.m, batch.n,
        batch.sigma_macro, batch.sigma_micro, batch.res_j_e, batch.res_j_n,
    )).tolist()
    rows = zip(*cells[:18], _optional(batch.pq), *cells[18:20],
               [_REGIME_WORDS[r] for r in batch.regime.tolist()],
               _optional(batch.cop), _optional(batch.eta), *cells[20:])
    return [_FAILED_ROW % (row[0], row[1], STATUS_WORDS[code]) if code else _OK_ROW % row
            for code, row in zip(batch.status.tolist(), rows)]
