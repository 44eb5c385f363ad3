"""Batched engine: every steady-state quantity of N bath configurations at once.

The four states form a single ring A->B->D->C->A, so the matrix-tree
(Kirchhoff) theorem gives the stationary distribution in closed form
(T. L. Hill, J. Theor. Biol. 10, 442 (1966); J. Schnakenberg, Rev. Mod.
Phys. 48, 571 (1976)).  Each state's weight is a sum of 4 products of 3
rates, one per spanning tree; Z is the sum of the weights and the clockwise
cycle flux is (product of forward rates - product of backward rates) / Z.
Nothing is subtracted in the weights, so they cannot go negative, and every
formula vectorizes over a whole grid.

Arrays are channel-major: rates are (12, ...) in the channel order of
:mod:`qdicc._kernels`, populations (4, ...) in state order A, B, C, D.  The
same functions therefore serve one point (rates of shape (12,)) and a batch
(shape (12, N)).  Rates, channel fluxes and the network-form entropy come
from the array kernels of :mod:`qdicc._kernels`.

Per-point failures never raise here.  Every gate of the point pipeline is a
vectorized mask that sets the row's status code (the first failing gate in
pipeline order wins); :func:`raise_for_status` turns a code into the
typed exception that a 1-point view raises.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._kernels import (L_AB, L_BA, L_CD, L_DC, R_AB, R_BA, R_CD, R_DC, U_AC,
                       U_BD, U_CA, U_DB, channel_fluxes, rate_vector,
                       schnakenberg)
from .errors import (DegenerateNetworkError, DegenerateRateError,
                     LogDomainError, NumericalError, PreconditionError,
                     SecondLawViolationError)
from .model import SystemParams

# ring order A, B, D, C as state indices; the permutation is its own inverse
RING = (0, 1, 3, 2)


class Regime(enum.Enum):
    """Classification of a point in the (force, force) plane."""

    EQUILIBRIUM = "Equilibrium"
    NORMAL = "Normal"
    CROSS_EFFECT_ENERGY = "CrossEffectEnergy"
    CROSS_EFFECT_PARTICLE = "CrossEffectParticle"
    PSEUDO_ICC_ENERGY = "PseudoIccEnergy"
    PSEUDO_ICC_PARTICLE = "PseudoIccParticle"
    ICC_ENERGY = "IccEnergy"
    ICC_PARTICLE = "IccParticle"


# regime codes of a batch index this tuple; -1 means not classified
REGIMES: tuple[Regime, ...] = tuple(Regime)
_CODE = {regime: code for code, regime in enumerate(REGIMES)}


# Per-row status codes: 0 is ok, every other code names the gate a row
# failed, numbered in the order the point pipeline meets its gates.
(OK, BAD_BATHS, BAD_RATES, DEGENERATE, RESIDUAL, LEGS, XY, MN_DENOMINATOR,
 MN_RANGE, MACRO, LOG_DOMAIN, UNREDUCED, PQ_RANGE, ZERO_FORCE, SECOND_LAW,
 NONFINITE) = range(16)

# the typed exception and message each failing status stands for
ERRORS: dict[int, tuple[type[Exception], str]] = {
    BAD_BATHS: (ValueError, "bath parameters and forces must be finite, "
                            "with beta > 0 and gamma > 0"),
    BAD_RATES: (ValueError, "rate constants must be finite and non-negative"),
    DEGENERATE: (DegenerateNetworkError,
                 "steady state is degenerate: the spanning-tree "
                 "normalization is zero or not finite"),
    RESIDUAL: (NumericalError, "kernel residual exceeds tolerance"),
    LEGS: (NumericalError, "cycle legs disagree beyond tolerance"),
    XY: (NumericalError, "channel fluxes inconsistent with the cycle flux"),
    MN_DENOMINATOR: (DegenerateRateError, "rate-ratio denominator vanishes"),
    MN_RANGE: (ValueError, "m and n must be positive and finite"),
    MACRO: (NumericalError, "heat-current and force-flux entropy rates disagree"),
    LOG_DOMAIN: (LogDomainError, "network entropy form needs strictly "
                                 "positive rates and populations"),
    UNREDUCED: (PreconditionError, "cycle predictor is only valid when the "
                                   "upper-lead energy bias vanishes (beta_l = beta_u)"),
    PQ_RANGE: (DegenerateRateError, "cycle predictor: a rate product or ratio "
                                     "leaves the float range"),
    ZERO_FORCE: (NumericalError, "zero forces must carry zero currents"),
    SECOND_LAW: (SecondLawViolationError,
                 "currents oppose the forces so that the entropy production "
                 "rate would be negative"),
    NONFINITE: (NumericalError, "a result is not finite"),
}


def raise_for_status(code) -> None:
    """Raise the typed exception of a failing status; OK returns."""
    code = int(code)
    if code != OK:
        cls, message = ERRORS[code]
        raise cls(message)


def _first(cases, default=OK):
    """Per element, the value of the first (mask, value) case whose mask
    holds, else ``default``."""
    out = default
    for mask, value in reversed(cases):
        out = np.where(mask, value, out)
    return out


# neighbours of ring state j: j - 1, j - 2 (= j + 2) and j + 1 (= j - 3)
_PREV1, _PREV2, _NEXT1 = np.array((3, 0, 1, 2)), np.array((2, 3, 0, 1)), np.array((1, 2, 3, 0))


def ring(k):
    """Total forward and backward rates along the ring A->B->D->C->A, (4, ...).

    forward = (A->B, B->D, D->C, C->A), backward = (B->A, D->B, C->D, A->C),
    each summed over the leads that drive the transition.
    """
    fwd = np.array((k[L_AB] + k[R_AB], k[U_BD], k[L_DC] + k[R_DC], k[U_CA]))
    bwd = np.array((k[L_BA] + k[R_BA], k[U_DB], k[L_CD] + k[R_CD], k[U_AC]))
    return fwd, bwd


def ring_from_generator(w):
    """The ring rates read off the off-diagonal entries W[j, i] = rate i -> j."""
    w = np.asarray(w, dtype=float)
    return w[(1, 3, 2, 0), (0, 1, 3, 2)], w[(0, 1, 3, 2), (1, 3, 2, 0)]


def stationary(fwd, bwd):
    """Spanning-tree steady state of the ring, with its consistency gates.

    ``fwd`` and ``bwd`` are the (4, ...) ring rates of :func:`ring`.  Returns
    (rho, gamma_cw, legs, status): populations (4, ...) in state order, the
    clockwise cycle flux, the four cycle-leg net rates in ring order (A->B,
    B->D, D->C, C->A), and a status that is DEGENERATE where Z is zero or
    not finite, RESIDUAL where |W rho| exceeds 1e-12 times the largest
    rate, and LEGS where a leg differs from the cycle flux by more than that.
    """
    with np.errstate(all="ignore"):
        f1 = fwd[_PREV1]
        f12 = f1 * fwd[_PREV2]
        bb = bwd * bwd[_NEXT1]
        # the spanning trees rooted at ring state j collect t forward edges
        # from behind j and 3 - t backward edges from ahead of it, t = 0..3
        weights = bb * bwd[_PREV2] + f1 * bb + f12 * bwd + f12 * fwd[_NEXT1]
        z = weights.sum(axis=0)
        p = weights / z
        gamma_cw = (fwd.prod(axis=0) - bwd.prod(axis=0)) / z
        fp, bp = fwd * p, bwd * p[_NEXT1]
        legs = fp - bp
        outflow = fwd + bwd[_PREV1]
        residual = np.abs(fp[_PREV1] + bp - outflow * p).max(axis=0)
        tol = 1e-12 * np.maximum(1.0, outflow.max(axis=0))
        status = _first([(~(np.isfinite(z) & (z > 0.0)), DEGENERATE),
                         (~(residual <= tol), RESIDUAL),
                         (~(np.abs(legs - gamma_cw).max(axis=0) <= tol), LEGS)])
    return p[list(RING)], gamma_cw, legs, status


def currents(sys: SystemParams, g, mu):
    """Energy, particle and heat currents (9, ...) from the channel fluxes.

    Order: J_E (l, r, u), J_N (l, r, u), J_Q (l, r, u); positive values flow
    from the reservoir into the system, J_Q subtracts mu_lam per particle.
    """
    eps_b, eps_u, kappa = sys.eps_b, sys.eps_u, sys.kappa
    je = (eps_b * g[0] + (eps_b + kappa) * g[2],
          eps_b * g[1] + (eps_b + kappa) * g[3],
          eps_u * g[4] + (eps_u + kappa) * g[5])
    jn = (g[0] + g[2], g[1] + g[3], g[4] + g[5])
    jq = tuple(e - m * n for e, m, n in zip(je, mu, jn))
    return np.array((*je, *jn, *jq))


def xy(k, g, gamma_cw):
    """Right-minus-left flux asymmetries x (A<->B) and y (C<->D) and a mask
    of the rows where the right-lead fluxes recombine as (x + Gamma_cw)/2
    and (y - Gamma_cw)/2 to within 1e-12 times the largest rate."""
    x = g[1] - g[0]
    y = g[3] - g[2]
    tol = 1e-12 * np.maximum(1.0, k.max(axis=0))
    with np.errstate(invalid="ignore"):
        ok = ((np.abs(g[1] - 0.5 * (x + gamma_cw)) <= tol)
              & (np.abs(g[3] - 0.5 * (y - gamma_cw)) <= tol))
    return x, y, ok


def mn(k):
    """Left/right asymmetry ratios m (A<->B channel) and n (C<->D channel),
    with their denominators."""
    den_m = k[R_BA] * k[L_AB]
    den_n = k[R_DC] * k[L_CD]
    with np.errstate(all="ignore"):
        return (k[R_AB] * k[L_BA]) / den_m, (k[R_CD] * k[L_DC]) / den_n, den_m, den_n


def entropy_macro(beta, cur, forces):
    """Macroscopic entropy production -sum(beta_lam J_Q^lam) and the three
    force-flux products (J_E^u F_E^u, J_E^r F_E^r, J_N^r F_N^r).

    ``cur`` holds the 9 currents, ``forces`` is (f_e_u, f_e_r, f_n_r).
    """
    sigma = -(beta[0] * cur[6] + beta[1] * cur[7] + beta[2] * cur[8])
    return sigma, (cur[2] * forces[0], cur[1] * forces[1], cur[4] * forces[2])


def macro_agrees(sigma, decomposition):
    """Rows where the heat-current and force-flux forms agree to 1e-12
    relative; they are one identity modulo the conservation laws."""
    flux_form = decomposition[0] + decomposition[1] + decomposition[2]
    with np.errstate(invalid="ignore"):
        return np.abs(sigma - flux_form) <= 1e-12 * np.maximum(1.0, np.abs(sigma))


def cycle_ratio_l(k):
    """Eight-rate product around the cycle taken through lead l."""
    with np.errstate(all="ignore"):
        return (k[L_AB] * k[U_BD] * k[L_DC] * k[U_CA]) / (
            k[L_BA] * k[U_DB] * k[L_CD] * k[U_AC])


def pq_status(k):
    """Cycle-direction predictor p/q of the two-force setup (see
    :func:`qdicc.icc.pq_ratio`) and its status: PQ_RANGE where p/q or the
    lead-l cycle product is not a finite positive number (a rate product
    left the float range), UNREDUCED where that cycle product deviates from
    one.  Rates must be positive."""
    with np.errstate(all="ignore"):
        cycle = cycle_ratio_l(k)
        p = (1.0 + k[R_AB] / k[L_AB]) / (1.0 + k[R_BA] / k[L_BA])
        q = (1.0 + k[R_CD] / k[L_CD]) / (1.0 + k[R_DC] / k[L_DC])
        ratio = p / q
        in_range = (np.isfinite(cycle) & (cycle > 0.0)
                    & np.isfinite(ratio) & (ratio > 0.0))
        return ratio, _first([(~in_range, PQ_RANGE),
                              (~(np.abs(np.log(cycle)) <= 1e-9), UNREDUCED)])


def classify(f_e, f_n, j_e, j_n, tol_sign, tol_force):
    """Regime codes (indices into REGIMES) and status from the two forces and
    their conjugate right-lead currents.

    ``tol_sign`` separates numerically zero currents from genuine signals;
    ``tol_force`` decides when a force counts as zero.  The status is
    ZERO_FORCE for zero forces carrying a current and SECOND_LAW for
    combinations that would make the entropy production rate negative.
    """
    f_e, f_n, j_e, j_n = (np.asarray(v, dtype=float) for v in (f_e, f_n, j_e, j_n))
    fe_zero = np.abs(f_e) <= tol_force
    fn_zero = np.abs(f_n) <= tol_force
    sign_e = np.where(f_e > 0, 1.0, -1.0)
    sign_n = np.where(f_n > 0, 1.0, -1.0)
    equilibrium = fe_zero & fn_zero
    only_fe_zero = fe_zero & ~fn_zero
    only_fn_zero = fn_zero & ~fe_zero
    both = ~fe_zero & ~fn_zero
    parallel = both & ((f_e > 0) == (f_n > 0))
    anti = both & ~parallel
    # parallel forces share one sign, so each current is judged against it
    against_e = sign_e * j_e < -tol_sign
    against_n = sign_n * j_n < -tol_sign
    cross_e = j_e * f_e < -tol_sign * np.abs(f_e)
    cross_n = j_n * f_n < -tol_sign * np.abs(f_n)
    current = (np.abs(j_e) > tol_sign) | (np.abs(j_n) > tol_sign)
    status = _first([
        (equilibrium & current, ZERO_FORCE),
        ((parallel & against_e & against_n) | (only_fe_zero & against_n)
         | (only_fn_zero & against_e) | (anti & cross_e & cross_n), SECOND_LAW),
    ])
    regime = _first([
        (equilibrium, _CODE[Regime.EQUILIBRIUM]),
        (parallel & against_e, _CODE[Regime.ICC_ENERGY]),
        (parallel & against_n, _CODE[Regime.ICC_PARTICLE]),
        (only_fe_zero & (sign_n * j_e < -tol_sign), _CODE[Regime.PSEUDO_ICC_ENERGY]),
        (only_fn_zero & (sign_e * j_n < -tol_sign), _CODE[Regime.PSEUDO_ICC_PARTICLE]),
        (anti & cross_e, _CODE[Regime.CROSS_EFFECT_ENERGY]),
        (anti & cross_n, _CODE[Regime.CROSS_EFFECT_PARTICLE]),
    ], _CODE[Regime.NORMAL])
    return regime, status


def merit(beta_l, beta_r, j_e_r, j_n_r, f_e_r, f_n_r):
    """Refrigerator COP and engine efficiency of the two-force setup, NaN
    where a figure is undefined.

    Both need two positive forces.  The COP zeta = -J_E^r beta_r / (J_N^r
    f_n_r) is defined where J_E^r < 0 runs against them, the efficiency
    eta = -J_N^r f_n_r / (beta_l J_E^r) where J_N^r < 0 does while J_E^r > 0.
    """
    with np.errstate(all="ignore"):
        positive = (f_e_r > 0) & (f_n_r > 0)
        cop = np.where(positive & (j_e_r < 0), (-j_e_r * beta_r) / (j_n_r * f_n_r), np.nan)
        eta = np.where(positive & (j_n_r < 0) & (j_e_r > 0),
                       (-j_n_r * f_n_r) / (beta_l * j_e_r), np.nan)
    return cop, eta


@dataclass(frozen=True)
class Batch:
    """Everything :func:`evaluate` computes for N points, one entry per row.

    Channel-major fields: ``k`` (12, N), ``rho`` (4, N), ``legs`` (4, N),
    ``forces`` (3, N) as (f_e_u, f_e_r, f_n_r) and ``currents`` (9, N) as
    J_E, J_N, J_Q per lead (l, r, u).  ``pq`` is NaN where the point is not
    two-force reduced, ``regime`` is -1 there, and ``cop`` / ``eta`` are NaN
    outside their regimes.  Only rows whose ``status`` is OK carry
    meaningful values; those never hold inf or NaN in a defined entry.
    """

    status: np.ndarray
    k: np.ndarray
    rho: np.ndarray
    gamma_cw: np.ndarray
    legs: np.ndarray
    forces: np.ndarray
    currents: np.ndarray
    x: np.ndarray
    y: np.ndarray
    m: np.ndarray
    n: np.ndarray
    pq: np.ndarray
    sigma_macro: np.ndarray
    sigma_micro: np.ndarray
    regime: np.ndarray
    cop: np.ndarray
    eta: np.ndarray
    res_j_e: np.ndarray
    res_j_n: np.ndarray


def evaluate(sys: SystemParams, beta, mu, gamma, tol_sign: float = 1e-10,
             tol_force: float = 1e-12) -> Batch:
    """Solve and classify N bath configurations in one array pass.

    ``beta``, ``mu`` and ``gamma`` are (l, r, u) triples whose entries are
    scalars or arrays broadcasting to N points.  The regime, cycle predictor
    and figures of merit are produced only where the upper-lead energy bias
    vanishes (|f_e_u| <= tol_force).
    """
    bath = np.array(np.broadcast_arrays(*beta, *mu, *gamma), dtype=float)
    if bath.ndim == 1:
        bath = bath[:, None]
    beta, mu, gamma = bath[0:3], bath[3:6], bath[6:9]

    with np.errstate(all="ignore"):
        forces = np.array((beta[0] - beta[2], beta[0] - beta[1],
                           beta[1] * mu[1] - beta[0] * mu[0]))
        bad_baths = ~(np.isfinite(bath).all(axis=0) & np.isfinite(forces).all(axis=0)
                      & (beta > 0).all(axis=0) & (gamma > 0).all(axis=0))
        k = rate_vector(sys.eps_b, sys.eps_u, sys.kappa, beta, mu, gamma)
        bad_rates = ~(np.isfinite(k) & (k >= 0.0)).all(axis=0)

        rho, gamma_cw, legs, ss_status = stationary(*ring(k))

        g = channel_fluxes(k, rho)
        cur = currents(sys, g, mu)
        x, y, xy_ok = xy(k, g, gamma_cw)
        m, n, den_m, den_n = mn(k)
        sigma_macro, decomposition = entropy_macro(beta, cur, forces)
        log_domain = (k <= 0.0).any(axis=0) | (rho <= 0.0).any(axis=0)
        micro = schnakenberg(k, rho)[0]

        reduced = np.abs(forces[0]) <= tol_force
        ratio, pq_codes = pq_status(k)
        regime, cls_codes = classify(forces[1], forces[2], cur[1], cur[4],
                                     tol_sign, tol_force)
        regime = np.where(reduced, regime, -1)
        ratio = np.where(reduced, ratio, np.nan)

        cop, eta = merit(beta[0], beta[1], cur[1], cur[4], forces[1], forces[2])
        cop = np.where(regime == _CODE[Regime.ICC_ENERGY], cop, np.nan)
        eta = np.where(regime == _CODE[Regime.ICC_PARTICLE], eta, np.nan)
        res_j_e = cur[0] + cur[1] + cur[2]
        res_j_n = cur[3] + cur[4] + cur[5]

        nonfinite = (~np.isfinite(cur).all(axis=0)
                     | ~np.isfinite(np.array((gamma_cw, x, y, m, n, sigma_macro, micro,
                                              res_j_e, res_j_n))).all(axis=0)
                     | np.isinf(cop) | np.isinf(eta))
        status = _first([
            (bad_baths, BAD_BATHS),
            (bad_rates, BAD_RATES),
            (ss_status != OK, ss_status),
            (~xy_ok, XY),
            ((den_m == 0.0) | (den_n == 0.0), MN_DENOMINATOR),
            (~((m > 0) & np.isfinite(m) & (n > 0) & np.isfinite(n)), MN_RANGE),
            (~macro_agrees(sigma_macro, decomposition), MACRO),
            (log_domain, LOG_DOMAIN),
            (reduced & (pq_codes != OK), pq_codes),
            (reduced & (cls_codes != OK), cls_codes),
            (nonfinite, NONFINITE),
        ])

    return Batch(status=status, k=k, rho=rho, gamma_cw=gamma_cw, legs=legs,
                 forces=forces, currents=cur, x=x, y=y, m=m, n=n, pq=ratio,
                 sigma_macro=sigma_macro, sigma_micro=micro, regime=regime,
                 cop=cop, eta=eta, res_j_e=res_j_e, res_j_n=res_j_n)
