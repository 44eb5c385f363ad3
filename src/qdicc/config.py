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

from typing import NamedTuple

import numpy as np

from .engine import ERRORS, OK, REGIMES, Batch, invert_forces
from .errors import ConfigError, NumericalError, PreconditionError
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

# each key, the type its value is read as and what that value must be
_KEYS = {
    **dict.fromkeys("eps_b eps_u kappa kappa_c kappa_s beta_r mu_r mu_u gamma F_E F_N F_E_min "
                    "F_E_max F_N_min F_N_max beta_l beta_u mu_l".split(), (float, "a number")),
    **dict.fromkeys("F_E_steps F_N_steps".split(), (int, "an integer")),
    "setup": (str, "text"),
}

SETUPS = ("icc", "thermoelectric", "raw")

# the most grid points a sweep axis may take; an axis array is 8 bytes a point
MAX_AXIS_STEPS = 10**6


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
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        kind, needs = _KEYS[key]
        try:
            cfg[key] = kind(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} needs {needs}, got {value!r}") from None
    setup = cfg.setdefault("setup", "icc")
    if setup not in SETUPS:
        raise ConfigError(f"setup must be one of {SETUPS}, got {setup!r}")
    return cfg


def load_config(path: str) -> dict:
    try:
        # utf-8-sig drops the byte order mark some editors write
        with open(path, "r", encoding="utf-8-sig") as fh:
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
    _require(cfg, "beta_r", "mu_r")
    beta_r, mu_r = cfg["beta_r"], cfg["mu_r"]
    mu_u, gamma = cfg.get("mu_u", mu_r), cfg.get("gamma", 1.0)
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
        with np.errstate(all="ignore"):  # beta_r = 0 is left to BAD_BATHS
            mu_l = mu_r - np.divide(f_n, beta_r)
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


class SweepSpec(NamedTuple):
    """A rectangular force-plane grid, as a named tuple; built and checked
    by :func:`build_sweep_spec` only."""

    f_e_min: float
    f_e_max: float
    f_e_steps: int
    f_n_min: float
    f_n_max: float
    f_n_steps: int

    # with a finite span only the last point can overflow, and linspace sets it to max
    def f_e_values(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.linspace(self.f_e_min, self.f_e_max, self.f_e_steps)

    def f_n_values(self) -> np.ndarray:
        with np.errstate(over="ignore"):
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
    if spec.f_e_steps < 2 or spec.f_n_steps < 2:
        raise ConfigError("sweep axes need at least 2 steps each")
    if spec.f_e_steps > MAX_AXIS_STEPS or spec.f_n_steps > MAX_AXIS_STEPS:
        raise ConfigError(f"sweep axes take at most {MAX_AXIS_STEPS} steps each")
    if not np.isfinite([spec.f_e_max - spec.f_e_min, spec.f_n_max - spec.f_n_min]).all():
        raise ConfigError("sweep axes need a finite span max - min each")
    # bounds the derived beta = beta_r + F_E of every line: point_baths cannot
    # fail inside a sweep
    if cfg["beta_r"] + min(spec.f_e_min, spec.f_e_max) <= 0:
        raise ConfigError("beta_r + F_E must stay positive along the whole F_E axis")
    return spec


# the status column's word for each engine status code
STATUS_WORDS = {OK: "ok", **{
    code: "error:numerical" if issubclass(cls, NumericalError) else "error:precondition"
    for code, (cls, _msg) in ERRORS.items()}}

# A block's CSV is rendered as a matrix of 4-byte words, one row per CSV
# row: each float cell is 7 words ("[-]d." + 16 digits + "e±EE[E],"), the
# regime cell 5 words with its comma, the status cell 5 words with the
# newline.  Padding is NUL, and dropping every NUL byte of the matrix gives
# the text; an empty cell is its comma alone.
#
# The 17 significant digits of a finite x != 0 are D = round(y) for
# y = |x|·10^(16-E) in [10^16, 10^17).  y is computed in long double, and
# _slack bounds its error: where y's fraction lies farther than that from
# 1/2, round(y) is the exact D.  Every other cell, and every non-finite one,
# is rendered by "%.16e" itself, so each cell is byte for byte "%.16e" % x.
# Where long double is a plain double the slack exceeds 1/2, and every cell
# takes the % path.
_WORD = np.uint32

# the values floor(log10|x|) takes on finite doubles x != 0; every exponent
# table is indexed by E - _E_MIN
_E_MIN, _E_MAX = -324, 308
_EXPONENTS = np.arange(_E_MIN, _E_MAX + 1)


def _slack(info: np.finfo) -> np.ndarray:
    """Bound on the error of y = |x|·10^(16-E) at each exponent, for y and
    the power of ten rounded to the float type of ``info``.

    Half an ulp of y < 10^17 < 2^57; plus 10^17 half-ulps of 10^(16-E)
    where the power is not exact (negative, or 5^(16-E) wider than the
    mantissa); plus 2^-52 for the fraction's rounding to double.  For the
    x87 long double the first two are 2^-8 and 0.0054.
    """
    k = 16 - _EXPONENTS
    exact_power = (k >= 0) & (k <= int((info.nmant + 1) / np.log2(5)))
    eps = float(info.eps)
    return 2.0 ** 55 * eps + np.where(exact_power, 0.0, 1e17 * eps / 2) + 2.0 ** -52


def _fixed(words: list[bytes], width: int) -> np.ndarray:
    """Byte strings NUL-padded to ``width`` bytes, as rows of words."""
    return np.array(words, dtype=f"S{width}").view(np.uint8).reshape(-1, width).view(_WORD)


# 10^(16-E), parsed from text and so correctly rounded
_SCALE = np.fromstring(" ".join([f"1e{16 - e}" for e in _EXPONENTS.tolist()]),
                       dtype=np.longdouble, sep=" ")
_SLACK = _slack(np.finfo(np.longdouble))
# "e±EE[E]," of each exponent, as "%.16e" writes it: (2 words, exponents)
_EXPONENT = _fixed([b"e%+03d," % e for e in _EXPONENTS.tolist()], 8).T.copy()
_LEAD = _fixed([b"%s%d." % (sign, d) for sign in (b"", b"-") for d in range(10)],
              4)[:, 0]  # "[-]d." at 10·sign + d
# "0000" to "9999" as one word each: the digit on axis k is byte k of the word
_DIGITS = sum(np.arange(ord("0"), ord("9") + 1, dtype=_WORD).reshape((10,) + (1,) * (3 - k))
              << 8 * k for k in range(4)).astype("<u4").view(_WORD).ravel()
_BLANK = _fixed([b","], 28)[0]
_REGIME_CELLS = _fixed([r.value.encode() + b"," for r in REGIMES] + [b","], 20)
_STATUS_CELLS = _fixed([STATUS_WORDS[code].encode() + b"\n"
                        for code in range(len(STATUS_WORDS))], 20)

# the float cells of a row, in COLUMNS order; the regime cell follows the
# first _SPLIT of them
_FLOATS = [name for name in COLUMNS if name not in ("regime", "status")]
_SPLIT = COLUMNS.index("regime")
_OPTIONAL = np.array([name in ("PQ", "cop", "eta") for name in _FLOATS])  # empty if NaN
_FORCES = np.array([name in ("F_E", "F_N") for name in _FLOATS])  # kept by a failed row

# rows rendered at once: bounds the renderer's temporaries at any block size
_SUB_BLOCK = 512


def _divmod(x: np.ndarray, unit: int):
    """``np.divmod(x, unit)``; numpy's ``//`` by a constant is fast, its ``%``
    is not."""
    q = x // unit
    return q, x - q * unit


def _significands(v: np.ndarray):
    """``(d, i, exact)``: the 17 significant digits D of each finite x != 0
    of ``v`` as an integer, the table index of its exponent E, and where D
    is exact.  E = floor(log10|x|) and D = round(|x|·10^(16-E)) are taken
    once: D is exact only where that guess lands (10^16 <= floor(y) and
    D < 10^17) and y's fraction lies farther than _SLACK from 1/2.
    Elsewhere d is 0 and i the index of E = 0, so a zero needs nothing
    more, and every other value is left to "%.16e"."""
    finite = np.isfinite(v) & (v != 0)
    a = np.where(finite, np.abs(v), 1.0)
    i = np.floor(np.log10(a)).astype(np.intp) - _E_MIN
    # where long double is a double, 10^340 overflows and y may be inf
    with np.errstate(over="ignore", invalid="ignore"):
        y = a * _SCALE[i]
        whole = y.astype(np.int64)  # floor: y > 0
        frac = (y - whole).astype(np.float64)
    d = whole + (frac > 0.5)
    exact = (finite & (whole >= 10 ** 16) & (d < 10 ** 17)
             & (np.abs(frac - 0.5) > _SLACK[i]))
    return np.where(exact, d, 0), np.where(exact, i, -_E_MIN), exact


def _float_cells(v: np.ndarray, blank: np.ndarray) -> np.ndarray:
    """The ``"%.16e,"`` cell of each value of ``v`` as 7 words, only the
    comma where ``blank``."""
    d, i, exact = _significands(v)
    upper, lower = _divmod(d, 10 ** 8)  # lead digit and 8 digits, 8 digits
    lead, high = _divmod(upper.astype(np.int32), 10 ** 8)
    cells = np.empty(v.shape + (7,), _WORD)
    cells[..., 0] = _LEAD[10 * np.signbit(v) + lead]
    groups = (*_divmod(high, 10_000), *_divmod(lower.astype(np.int32), 10_000))
    for word, group in enumerate(groups, 1):
        cells[..., word] = _DIGITS[group]
    cells[..., 5], cells[..., 6] = _EXPONENT[0][i], _EXPONENT[1][i]
    cells[blank] = _BLANK
    slow = ~(exact | blank | (v == 0))
    if slow.any():
        text = (("%-27.16e," * np.count_nonzero(slow)) % tuple(v[slow].tolist())).encode()
        cells[slow] = np.frombuffer(text.replace(b" ", b"\0"), _WORD).reshape(-1, 7)
    return cells


def _render(v: np.ndarray, regime: np.ndarray, status: np.ndarray) -> bytes:
    """The CSV text of rows with float cells ``v`` (rows, len(_FLOATS))."""
    ok = status == OK
    blank = ~(ok[:, None] | _FORCES) | _OPTIONAL & np.isnan(v)
    cells = _float_cells(v, blank).reshape(len(v), -1)
    split = 7 * _SPLIT
    words = np.concatenate((cells[:, :split], _REGIME_CELLS[np.where(ok, regime, -1)],
                            cells[:, split:], _STATUS_CELLS[status]), axis=1)
    del cells  # the text is made with one copy of the cells, not two
    return words.tobytes().translate(None, b"\0")


def record_fields(f_e, f_n, beta, mu_l, batch: Batch) -> list[bytes]:
    """The CSV text of a batch in COLUMNS order, one line per batch point,
    as one chunk per sub-block of at most _SUB_BLOCK rows.

    ``f_e``, ``f_n`` and the derived bath parameters ``beta`` and ``mu_l``
    of :func:`point_baths` broadcast to the batch.  Every row comes from a
    batch point: one that failed a gate keeps its forces and the
    :data:`STATUS_WORDS` word of its status, with every other cell empty.
    Each cell is byte for byte ``"%.16e" % x``.  The chunks are written in
    turn, never joined, so the block's text is held once.
    """
    shape = batch.status.shape
    columns = (*(np.broadcast_to(x, shape) for x in (f_e, f_n, beta, mu_l)),
               *batch.currents, batch.gamma_cw, batch.x, batch.y, batch.m, batch.n,
               batch.pq, batch.sigma_macro, batch.sigma_micro, batch.cop, batch.eta,
               batch.res_j_e, batch.res_j_n)
    chunks = []
    for start in range(0, shape[0], _SUB_BLOCK):
        rows = slice(start, start + _SUB_BLOCK)
        chunks.append(_render(np.stack([c[rows] for c in columns], axis=1),
                              batch.regime[rows], batch.status[rows]))
    return chunks
