"""Entropy production, entropy flux and the entropic force set.

Two independent constructions are kept side by side on purpose:

* macroscopic - forces from reservoir parameters, entropy production as
  the beta-weighted sum of heat currents (equivalently the bilinear
  force-flux decomposition);
* microscopic - forces as logarithms of rate-constant ratios, entropy
  production in the network (rate-log) form whose six summands are each
  of the shape (a - b) ln(a/b) and hence individually non-negative.

At the steady state the two constructions agree term by term; their
disagreement is the single most sensitive bug detector in this code base,
so the equivalence is asserted in tests rather than coupled at runtime.

Only the flux set (J_E^u, J_E^r, J_N^r) and its conjugate forces are
represented; the other equivalent bilinear decompositions carry the same
total entropy production and are not implemented.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, engine
from .errors import UndefinedForceError
from .kinetics import RateConstants, Trajectory, population_values
from .model import BathConfig, SystemParams
from .transport import CurrentSet


@dataclass(frozen=True)
class ForceSet:
    """Entropic biases conjugate to (J_E^u, J_E^r, J_N^r).

    f_e_u = beta_l - beta_u, f_e_r = beta_l - beta_r (units k_B per energy)
    and f_n_r = beta_r mu_r - beta_l mu_l (units k_B).  They coincide with
    real thermodynamic forces only in the reduced two-force setups.
    """

    f_e_u: float
    f_e_r: float
    f_n_r: float

    def __post_init__(self):
        for name in ("f_e_u", "f_e_r", "f_n_r"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class MNFactors:
    """Left/right rate-asymmetry ratios of the two bottom-dot channels.

    m compares the A<->B channel across the two leads, n the C<->D channel.
    Both equal one for identical leads; their positions relative to one
    determine the signs of the channel fluxes at the steady state.
    """

    m: float
    n: float

    def __post_init__(self):
        if not (self.m > 0 and math.isfinite(self.m)):
            raise ValueError(f"m must be positive and finite, got {self.m}")
        if not (self.n > 0 and math.isfinite(self.n)):
            raise ValueError(f"n must be positive and finite, got {self.n}")


@dataclass(frozen=True)
class EntropyReport:
    """Entropy-rate bookkeeping; fields not produced by an operation are None.

    sigma_dot / phi_dot come from the microscopic network form,
    sigma_dot_macro from the beta-weighted heat currents, decomposition is
    the three bilinear products (J_E^u F_E^u, J_E^r F_E^r, J_N^r F_N^r).
    """

    sigma_dot: float | None = None
    phi_dot: float | None = None
    sigma_dot_macro: float | None = None
    decomposition: tuple[float, float, float] | None = None


def forces_macro(baths: BathConfig) -> ForceSet:
    """Entropic biases from reservoir parameters alone; a 1-point view of
    :func:`qdicc.engine.forces`."""
    return ForceSet(*(float(f) for f in engine.forces(*baths.triples[:2])))


def mn_factors(rc: RateConstants) -> MNFactors:
    """Rate-asymmetry ratios m and n of the two bottom-dot channels."""
    m, n, _c_l, status = engine.cycles(rc.values)
    engine.raise_for_status(status)
    return MNFactors(m=float(m), n=float(n))


def forces_micro(rc: RateConstants, sys: SystemParams) -> ForceSet:
    """Entropic biases reconstructed from rate-constant logarithms.

    They combine the affinities ln m, ln n and ln c_l of the ring's three
    cycles (:func:`qdicc.engine.cycles`): f_e_u = (1/kappa) ln c_l,
    f_e_r = (1/kappa) ln(n/m) and, with theta = eps_b/kappa,
    f_n_r = (1 + theta) ln m - theta ln n (= ln m - eps_b * f_e_r).
    Equals the macroscopic construction identically.
    """
    if sys.kappa == 0.0:
        raise UndefinedForceError("microscopic forces are undefined for kappa = 0")
    engine.raise_for_status(engine.log_domain(rc.values, np.ones(4)))
    m, n, c_l, status = engine.cycles(rc.values)
    engine.raise_for_status(status)
    # a rate product that under- or overflowed leaves c_l 0, inf or nan
    log_m, log_n, log_c = (math.log(v) if 0.0 < v < math.inf else math.nan
                           for v in (float(m), float(n), float(c_l)))
    inv_kappa, theta = 1.0 / sys.kappa, sys.theta
    forces = (inv_kappa * log_c, inv_kappa * (log_n - log_m),
              (1.0 + theta) * log_m - theta * log_n)
    _raise_unless_finite(forces)
    return ForceSet(*forces)


def entropy_production_macro(cs: CurrentSet, baths: BathConfig,
                             fs: ForceSet) -> EntropyReport:
    """Macroscopic entropy production rate at the steady state.

    Computed two ways: as -sum(beta_lam * J_Q^lam) and as the bilinear
    force-flux sum; the two are the same identity modulo the conservation
    laws, so a mismatch beyond 1e-12 raises.
    """
    sigma_q, decomposition, status = engine.entropy_macro(
        baths.triples[0], np.concatenate((cs.j_e, cs.j_n, cs.j_q)),
        (fs.f_e_u, fs.f_e_r, fs.f_n_r))
    engine.raise_for_status(status)
    return EntropyReport(sigma_dot_macro=float(sigma_q),
                         decomposition=tuple(float(d) for d in decomposition))


def _raise_unless_finite(*values) -> None:
    """Raise the engine's NONFINITE error unless every value is finite."""
    if not all(np.isfinite(v).all() for v in values):
        engine.raise_for_status(engine.NONFINITE)


def _network_form(rc: RateConstants, rho):
    """(sigma, phi, terms) of the network form, inside its log domain.

    The one-way fluxes k rho can underflow to 0 although k and rho pass the
    log domain; the kernel's warnings are masked and the callers check that
    what they return is finite.
    """
    values = population_values(rho)
    engine.raise_for_status(engine.log_domain(rc.values, values))
    with np.errstate(all="ignore"):
        return _kernels.schnakenberg(rc.values, values)


def entropy_production_micro(rc: RateConstants, rho) -> EntropyReport:
    """Network-form entropy production and flux rates at given populations.

    Valid at or away from the steady state; populations and rates must be
    strictly positive (zero populations belong to the boundary where the
    rate-log form diverges; they are rejected, never clamped).
    """
    sigma, phi, _terms = _network_form(rc, rho)
    _raise_unless_finite(sigma, phi)
    return EntropyReport(sigma_dot=float(sigma), phi_dot=float(phi))


def schnakenberg_terms(rc: RateConstants, rho) -> np.ndarray:
    """The six individually non-negative production summands, in the
    channel order of :func:`qdicc._kernels.channel_fluxes`."""
    terms = np.asarray(_network_form(rc, rho)[2])
    _raise_unless_finite(terms)
    return terms


@dataclass(frozen=True)
class TransientEntropyBalance:
    """Per-sample entropy balance along a trajectory (interior samples).

    ds_dt is the centered finite difference of the Shannon entropy;
    sigma_dot and phi_dot are the instantaneous network-form rates, so
    ds_dt ~ sigma_dot + phi_dot up to O(dt^2) discretization error.
    """

    times: np.ndarray
    ds_dt: np.ndarray
    sigma_dot: np.ndarray
    phi_dot: np.ndarray


def entropy_balance_transient(trajectory: Trajectory,
                              rc: RateConstants) -> TransientEntropyBalance:
    """Entropy balance along an evolve() trajectory, at interior samples.

    Requires at least three samples, times that are one finite value per
    sample in strictly increasing order, and strictly positive populations
    throughout (interior of the simplex).
    """
    times = np.asarray(trajectory.times, float)
    pops = np.asarray(trajectory.populations, float)
    if times.ndim != 1 or not (np.isfinite(times).all() and (np.diff(times) > 0.0).all()):
        raise ValueError("times must be 1-D, finite and strictly increasing")
    if pops.shape != (len(times), 4):
        raise ValueError(f"expected populations of shape ({len(times)}, 4), "
                         f"got shape {pops.shape}")
    if len(times) < 3:
        raise ValueError("need at least three samples for a centered difference")
    # one status per sample: any sample on the simplex boundary raises
    engine.raise_for_status(engine.log_domain(rc.values, pops.T).max())
    with np.errstate(all="ignore"):
        shannon = -np.sum(pops * np.log(pops), axis=1)
        ds_dt = (shannon[2:] - shannon[:-2]) / (times[2:] - times[:-2])
        sigma, phi, _terms = _kernels.schnakenberg(rc.values[:, None], pops[1:-1].T)
    _raise_unless_finite(ds_dt, sigma, phi)
    return TransientEntropyBalance(
        times=times[1:-1].copy(), ds_dt=ds_dt, sigma_dot=sigma, phi_dot=phi
    )
