"""Regime analysis for coupled transport with two parallel forces.

Setting beta_l = beta_u kills the upper-lead energy bias, leaving exactly
two forces (f_e_r, f_n_r) conjugate to (J_E^r, J_N^r), with entropy
production sigma = J_E^r f_e_r + J_N^r f_n_r >= 0.  In that plane:

* both forces parallel and one conjugate current running against both is
  the inverse-current regime (energy or particle flavor - never both,
  which would break the second law);
* one force zero and the non-conjugate current negative is the pseudo
  inverse-current precursor;
* anti-parallel forces with a current beaten by the opposing force is the
  conventional cross effect (thermoelectric operation).

The inverse regimes require the level swap eps_b + kappa < 0; with them the
device acts as an autonomous refrigerator (negative J_E^r) or engine
(negative J_N^r), with performance bounded by the ideal-refrigerator COP
and the Carnot efficiency respectively.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, engine
from .engine import REGIMES, Regime, invert_forces  # noqa: F401  (re-exported)
from .errors import PreconditionError
from .kinetics import RateConstants
from .model import BathConfig, Lead, Reservoir, SystemParams
from .steadystate import SteadyState
from .thermo import ForceSet
from .transport import CurrentSet


def icc_reduction(beta: float, beta_r: float, mu_l: float, mu_r: float,
                  mu_u: float, gamma: float = 1.0) -> BathConfig:
    """Bath configuration with beta_l = beta_u = beta (two-force setup).

    The upper-lead energy bias is identically zero, leaving the parallel
    force pair (f_e_r, f_n_r) that can exhibit inverse currents.
    """
    return BathConfig(
        l=Reservoir(Lead.L, beta=beta, mu=mu_l, gamma=gamma),
        r=Reservoir(Lead.R, beta=beta_r, mu=mu_r, gamma=gamma),
        u=Reservoir(Lead.U, beta=beta, mu=mu_u, gamma=gamma),
    )


def thermoelectric_reduction(beta: float, beta_u: float, mu_l: float,
                             mu_r: float, mu_u: float,
                             gamma: float = 1.0) -> BathConfig:
    """Bath configuration with beta_l = beta_r = beta.

    The right-lead energy bias vanishes and the remaining pair
    (f_e_u, f_n_r) drives conventional cross effects (engine/refrigerator
    operation against a single opposing force), never inverse currents.
    """
    return BathConfig(
        l=Reservoir(Lead.L, beta=beta, mu=mu_l, gamma=gamma),
        r=Reservoir(Lead.R, beta=beta, mu=mu_r, gamma=gamma),
        u=Reservoir(Lead.U, beta=beta_u, mu=mu_u, gamma=gamma),
    )


def xy_variables(rc: RateConstants, ss: SteadyState) -> tuple[float, float]:
    """Right-minus-left channel flux asymmetries (x, y) at the steady state.

    x refers to the A<->B channel and y to the C<->D channel; the right-lead
    particle current is (x + y)/2, and the individual right-lead channel
    fluxes recombine as (x + Gamma_cw)/2 and (y - Gamma_cw)/2.
    """
    g = _kernels.channel_fluxes(rc.values, ss.rho.values)
    x, y, status = engine.xy(rc.values, g, ss.gamma_cw)
    engine.raise_for_status(status)
    return float(x), float(y)


def pq_ratio(rc: RateConstants) -> float:
    """Cycle-direction predictor for the two-force setup.

    With the upper-lead energy bias zero, the combined-lead cycle affinity
    factorizes into the ratio

        p / q,  p = (1 + k_ab_r/k_ab_l) / (1 + k_ba_r/k_ba_l),
                q = (1 + k_cd_r/k_cd_l) / (1 + k_dc_r/k_dc_l),

    and the clockwise cycle flux has the sign of (p/q - 1): above one the
    cycle runs clockwise, below one anticlockwise, at one it stalls.

    Raises :class:`LogDomainError` unless every rate is strictly positive,
    and :class:`PreconditionError` when called outside the reduced setup
    (detected through the lead-l cycle product deviating from one).
    """
    engine.raise_for_status(engine.log_domain(rc.values, np.ones(4)))
    ratio, status = engine.pq_status(rc.values)
    engine.raise_for_status(status)
    return float(ratio)


def classify(fs: ForceSet, cs: CurrentSet, tol_sign: float = engine.TOL_SIGN) -> Regime:
    """Assign a regime label from the two-force set and right-lead currents.

    ``tol_sign`` separates numerically zero currents from genuine signals;
    a force counts as zero within :data:`qdicc.engine.TOL_FORCE`.  A 1-point
    view of :func:`qdicc.engine.classify`, which reads the label from one
    table of force categories and current signs in all four quadrants.
    Combinations that would make the entropy production rate negative raise
    :class:`SecondLawViolationError`.
    """
    code, status = engine.classify(fs.f_e_r, fs.f_n_r, cs.j_e_r, cs.j_n_r, tol_sign)
    engine.raise_for_status(status)
    return REGIMES[int(code)]


def _optional(value) -> float | None:
    """A float, or None where the engine marks the value undefined with NaN."""
    value = float(value)
    return None if np.isnan(value) else value


def cop(cs: CurrentSet, baths: BathConfig, fs: ForceSet) -> float | None:
    """Refrigeration coefficient of performance, defined in the
    inverse-energy-current regime (j_e_r < 0 against two positive forces).

    zeta = -J_E^r beta_r / (J_N^r f_n_r), bounded by the ideal value
    T_cold / (T_hot - T_cold) built from the two distinct temperatures;
    returns None outside the regime.  A 1-point view of
    :func:`qdicc.engine.merit`.
    """
    return _optional(engine.merit(baths.l.beta, baths.r.beta, cs.j_e_r, cs.j_n_r,
                                  fs.f_e_r, fs.f_n_r)[0])


def cop_ideal(baths: BathConfig) -> float:
    """Ideal-refrigerator COP T_cold / (T_hot - T_cold) from the two
    distinct inverse temperatures of the reduced setup."""
    beta_cold = max(baths.l.beta, baths.r.beta)
    beta_hot = min(baths.l.beta, baths.r.beta)
    if beta_cold == beta_hot:
        raise PreconditionError("ideal COP diverges without a thermal bias")
    return beta_hot / (beta_cold - beta_hot)


def efficiency(cs: CurrentSet, baths: BathConfig, fs: ForceSet) -> float | None:
    """Engine efficiency, defined in the inverse-particle-current regime
    (j_n_r < 0 against two positive forces, with j_e_r > 0 as input).

    eta = -J_N^r f_n_r / (beta J_E^r) with beta the cold-side inverse
    temperature; bounded by the Carnot value; None outside the regime.  A
    1-point view of :func:`qdicc.engine.merit`.
    """
    return _optional(engine.merit(baths.l.beta, baths.r.beta, cs.j_e_r, cs.j_n_r,
                                  fs.f_e_r, fs.f_n_r)[1])


def carnot_efficiency(baths: BathConfig) -> float:
    """Carnot bound (T_hot - T_cold) / T_hot from the two distinct
    inverse temperatures of the reduced setup."""
    beta_cold = max(baths.l.beta, baths.r.beta)
    beta_hot = min(baths.l.beta, baths.r.beta)
    return 1.0 - beta_hot / beta_cold


@dataclass(frozen=True)
class IccPoint:
    """Full diagnostic record of one solved bath configuration."""

    forces: ForceSet
    currents: CurrentSet
    gamma_cw: float
    x: float
    y: float
    m: float
    n: float
    pq: float | None
    regime: Regime | None
    cop: float | None
    efficiency: float | None
    sigma_macro: float
    sigma_micro: float
    res_j_e: float
    res_j_n: float


def analyze_point(sys: SystemParams, baths: BathConfig,
                  tol_sign: float = engine.TOL_SIGN) -> IccPoint:
    """Solve one configuration end to end and classify it.

    A 1-point view of :func:`qdicc.engine.evaluate`: a failing gate raises
    the typed exception of its status.  The cycle predictor, regime label
    and performance figures are only produced when the configuration
    actually is two-force reduced (upper-lead energy bias within
    :data:`qdicc.engine.TOL_FORCE` of zero); otherwise those fields are None.
    """
    b = engine.evaluate(sys, *baths.triples, tol_sign=tol_sign)
    engine.raise_for_status(b.status[0])
    cur = b.currents[:, 0]
    return IccPoint(
        forces=ForceSet(*(float(f) for f in b.forces[:, 0])),
        currents=CurrentSet(j_e=cur[0:3], j_n=cur[3:6], j_q=cur[6:9]),
        gamma_cw=float(b.gamma_cw[0]),
        x=float(b.x[0]),
        y=float(b.y[0]),
        m=float(b.m[0]),
        n=float(b.n[0]),
        pq=_optional(b.pq[0]),
        regime=REGIMES[b.regime[0]] if b.regime[0] >= 0 else None,
        cop=_optional(b.cop[0]),
        efficiency=_optional(b.eta[0]),
        sigma_macro=float(b.sigma_macro[0]),
        sigma_micro=float(b.sigma_micro[0]),
        res_j_e=float(b.res_j_e[0]),
        res_j_n=float(b.res_j_n[0]),
    )
