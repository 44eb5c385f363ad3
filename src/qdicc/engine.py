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
(shape (12, N)).  Rates, the generator, channel fluxes, currents and the
network-form entropy come from the array kernels of :mod:`qdicc._kernels`.

Per-point failures never raise here.  Each stage that owns a gate returns
a per-row status code next to its values, and :func:`evaluate` keeps the
first failing one in pipeline order, in one pass over the stacked codes;
:func:`raise_for_status` turns a code into the typed exception, with its
message, that a 1-point view raises.  :func:`classify` reads each point's
regime and status from one table of the two-force plane's rules.
"""
from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from ._kernels import (_CYCLES, _CYCLES_BACK, _SUCC, RING, channel_fluxes,
                       currents_vector, generator_matrix, rate_vector, schnakenberg)
from .errors import (DegenerateNetworkError, DegenerateRateError,
                     LogDomainError, NumericalError, PreconditionError,
                     SecondLawViolationError)
from .model import SystemParams


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


# Per-row status codes: 0 is ok, every other code names the gate a row
# failed, numbered in the order the point pipeline meets its gates.
(OK, BAD_BATHS, DEGENERATE, RESIDUAL, LEGS, XY, MN_DENOMINATOR, MN_RANGE,
 MACRO, LOG_DOMAIN, UNREDUCED, PQ_RANGE, ZERO_FORCE, SECOND_LAW,
 NONFINITE) = range(15)

# the typed exception and message each failing status stands for
ERRORS: dict[int, tuple[type[Exception], str]] = {
    BAD_BATHS: (ValueError, "bath parameters and forces must be finite, "
                            "with beta > 0 and gamma > 0"),
    DEGENERATE: (DegenerateNetworkError,
                 "steady state is degenerate: the spanning-tree "
                 "normalization is zero or not finite"),
    RESIDUAL: (NumericalError, "kernel residual exceeds tolerance"),
    LEGS: (NumericalError, "cycle legs disagree beyond tolerance"),
    XY: (NumericalError, "channel fluxes inconsistent with the cycle flux"),
    MN_DENOMINATOR: (DegenerateRateError, "rate-ratio denominator vanishes"),
    MN_RANGE: (ValueError, "m and n must be positive and finite"),
    MACRO: (NumericalError, "heat-current and force-flux entropy rates disagree"),
    LOG_DOMAIN: (LogDomainError, "rate-log forms (network entropy, microscopic "
                                 "forces, cycle predictor) need strictly positive "
                                 "rates and populations"),
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


# a force of at most this magnitude counts as zero
TOL_FORCE = 1e-12
# the default magnitude a current must exceed to count as nonzero
TOL_SIGN = 1e-10


def raise_for_status(code) -> None:
    """Raise the typed exception of a failing status; OK returns."""
    code = int(code)
    if code != OK:
        cls, message = ERRORS[code]
        raise cls(message)


# neighbours of ring state j: j - 1, j - 2 (= j + 2) and j + 1 (= j - 3)
_PREV1, _PREV2, _NEXT1 = np.array((3, 0, 1, 2)), np.array((2, 3, 0, 1)), np.array((1, 2, 3, 0))


def stationary(w):
    """Spanning-tree steady state of the ring, with its consistency gates.

    ``w`` is a generator of shape (4, 4, ...) with W[j, i] the total rate
    i -> j; only its ring entries are read, the forward rates (A->B, B->D,
    D->C, C->A) and the backward ones (B->A, D->B, C->D, A->C).  Returns
    (rho, gamma_cw, legs, status): populations (4, ...) in state order, the
    clockwise cycle flux, the four cycle-leg net rates in ring order (A->B,
    B->D, D->C, C->A), and a status that is DEGENERATE where Z is zero or
    not finite, RESIDUAL where |W rho| exceeds 1e-12 max_j |W_jj|, the
    largest total exit rate of a state (not the largest channel rate), and
    LEGS where a leg differs from the cycle flux by more than that.  The
    tolerance scales with the rates, as their rounding does.
    """
    fwd, bwd = w[_SUCC, RING], w[RING, _SUCC]
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
        tol = 1e-12 * outflow.max(axis=0)
        status = np.where(~(np.isfinite(z) & (z > 0.0)), DEGENERATE,
                          np.where(~(residual <= tol), RESIDUAL,
                                   np.where(np.abs(legs - gamma_cw).max(axis=0) <= tol,
                                            OK, LEGS)))
    return p[list(RING)], gamma_cw, legs, status


def xy(k, g, gamma_cw):
    """Right-minus-left flux asymmetries x (A<->B) and y (C<->D) and their
    status: XY where the right-lead fluxes do not recombine as
    (x + Gamma_cw)/2 and (y - Gamma_cw)/2 to within 1e-12 times the
    largest rate."""
    x = g[1] - g[0]
    y = g[3] - g[2]
    tol = 1e-12 * k.max(axis=0)
    with np.errstate(invalid="ignore"):
        ok = ((np.abs(g[1] - 0.5 * (x + gamma_cw)) <= tol)
              & (np.abs(g[3] - 0.5 * (y - gamma_cw)) <= tol))
    return x, y, np.where(ok, OK, XY)


def cycles(k):
    """m, n and c_l, the forward-to-backward rate-product ratios exp(A) of the
    cycles of ``_kernels._CYCLES`` (chords AB via r, CD via r, BD via u; A the
    affinity), and the status of m and n: MN_DENOMINATOR where a backward
    product vanishes, else MN_RANGE where m or n is not positive and finite."""
    with np.errstate(all="ignore"):
        products = []  # each walk's rates, multiplied left to right
        for first, *rest in _CYCLES + _CYCLES_BACK:
            product = k[first]
            for channel in rest:
                product = product * k[channel]
            products.append(product)
        fwd_m, fwd_n, fwd_l, bwd_m, bwd_n, bwd_l = products
        m, n = fwd_m / bwd_m, fwd_n / bwd_n
        return m, n, fwd_l / bwd_l, np.where(
            (bwd_m == 0.0) | (bwd_n == 0.0), MN_DENOMINATOR,
            np.where((m > 0) & np.isfinite(m) & (n > 0) & np.isfinite(n), OK, MN_RANGE))


def forces(beta, mu):
    """Entropic biases (f_e_u, f_e_r, f_n_r) from the (l, r, u) triples of
    beta and mu: beta_l - beta_u, beta_l - beta_r, beta_r mu_r - beta_l mu_l."""
    return np.array((beta[0] - beta[2], beta[0] - beta[1],
                     beta[1] * mu[1] - beta[0] * mu[0]))


def invert_forces(f_e, f_n, beta_r: float, mu_r: float):
    """Bath parameters (beta, mu_l) realizing given forces in the two-force setup.

    beta = beta_r + f_e and mu_l = (beta_r mu_r - f_n) / beta.  Composing
    with :func:`forces` gives the forces back only to rounding: with u =
    2^-53, f_e within u (beta + |f_e|) and f_n within 4u (|beta_r mu_r| +
    |f_n|); on ``inverse_plane.cfg``'s axes 58% of f_e and 20% of f_n values
    move, by at most 2.2e-16.  The CSV prints the requested forces and the
    regime reads the realized ones; TOL_FORCE absorbs the difference on the
    zero-force lines.  ``f_e`` and ``f_n`` are scalars or arrays, and a
    beta that is not positive raises ValueError naming the first such
    force.  An overflow or a nan is left in beta and mu_l, for the engine's
    BAD_BATHS gate to mark.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        beta = beta_r + f_e
        if np.any(beta <= 0):
            f_e = np.broadcast_to(f_e, np.shape(beta))[np.asarray(beta) <= 0][0]
            raise ValueError(
                f"force f_e={f_e} needs beta_r > {-f_e} to keep beta positive"
            )
        mu_l = (beta_r * mu_r - f_n) / beta
    return beta, mu_l


def entropy_macro(beta, cur, f):
    """Macroscopic entropy production -sum(beta_lam J_Q^lam), the three
    force-flux products (J_E^u F_E^u, J_E^r F_E^r, J_N^r F_N^r) and their
    status: MACRO where the two forms, one identity modulo the conservation
    laws, differ by more than 1e-12 max(1, |sigma|).

    ``cur`` holds the 9 currents, ``f`` is (f_e_u, f_e_r, f_n_r).
    """
    sigma = -(beta[0] * cur[6] + beta[1] * cur[7] + beta[2] * cur[8])
    decomposition = (cur[2] * f[0], cur[1] * f[1], cur[4] * f[2])
    flux_form = decomposition[0] + decomposition[1] + decomposition[2]
    with np.errstate(invalid="ignore"):
        agree = np.abs(sigma - flux_form) <= 1e-12 * np.maximum(1.0, np.abs(sigma))
    return sigma, decomposition, np.where(agree, OK, MACRO)


def log_domain(k, rho):
    """Status of the rate-log forms (network entropy, microscopic forces,
    cycle predictor): LOG_DOMAIN where a rate (12, ...) or a population
    (4, ...) is not strictly positive, else OK.  A form of the rates alone
    passes positive populations such as ``np.ones(4)``."""
    outside = (k <= 0.0).any(axis=0) | (rho <= 0.0).any(axis=0)
    return np.where(outside, LOG_DOMAIN, OK)


def pq_status(k):
    """Cycle-direction predictor p/q of the two-force setup (see
    :func:`qdicc.icc.pq_ratio`), p and q over the channels of the m and n
    cycles, and its status: PQ_RANGE where p/q is not a finite positive
    number (a rate ratio left the float range).  Rates must be positive;
    the caller decides reduction (:func:`evaluate` from the forces)."""
    with np.errstate(all="ignore"):
        p, q = [(1.0 + k[r_up] / k[l_up]) / (1.0 + k[r_down] / k[l_down])
                for (r_up, l_down), (r_down, l_up) in zip(_CYCLES[:2], _CYCLES_BACK[:2])]
        ratio = p / q
        return ratio, np.where(np.isfinite(ratio) & (ratio > 0.0), OK, PQ_RANGE)


# The regime rules: one line per force category, one column per pair of
# "against" bits (neither current, J_N^r, J_E^r, both); "!" marks
# SECOND_LAW, a combination that would make the entropy production negative.
_RULES_TEXT = """
equilibrium     Equilibrium  Equilibrium          Equilibrium        Equilibrium
parallel        Normal       IccParticle          IccEnergy          IccEnergy!
only_F_E_zero   Normal       Normal!              PseudoIccEnergy    PseudoIccEnergy!
only_F_N_zero   Normal       PseudoIccParticle    Normal!            PseudoIccParticle!
anti_parallel   Normal       CrossEffectParticle  CrossEffectEnergy  CrossEffectEnergy!
"""
# (regime code, status) at row 4 * category + 2 * against_e + against_n
_RULES = np.array([(REGIMES.index(Regime(cell.rstrip("!"))),
                    SECOND_LAW if cell.endswith("!") else OK)
                   for line in _RULES_TEXT.strip().splitlines()
                   for cell in line.split()[1:]]).T


def classify(f_e, f_n, j_e, j_n, tol_sign):
    """Regime codes (indices into REGIMES) and status from the two forces and
    their conjugate right-lead currents, read from the rules table.

    A force counts as zero within TOL_FORCE.  A current runs against when
    sign * J < -tol_sign, where sign is +1 if its conjugate force is
    positive and -1 if not, taken from the other force where its own is
    zero.  Beyond the table's SECOND_LAW, the status is ZERO_FORCE for zero
    forces carrying a current above ``tol_sign``, which must be finite and
    non-negative (ValueError).
    """
    if not (np.isfinite(tol_sign) and tol_sign >= 0):
        raise ValueError(f"tol_sign must be finite and non-negative, got {tol_sign}")
    fe_zero = np.abs(f_e) <= TOL_FORCE
    fn_zero = np.abs(f_n) <= TOL_FORCE
    sign_e = np.where(f_e > 0, 1.0, -1.0)
    sign_n = np.where(f_n > 0, 1.0, -1.0)
    # the line of the rules table: equilibrium 0, parallel 1, only F_E
    # zero 2, only F_N zero 3, anti-parallel 4
    category = np.where(fe_zero, 2 * ~fn_zero,
                        np.where(fn_zero, 3, np.where(sign_e == sign_n, 1, 4)))
    against_e = np.where(fe_zero, sign_n, sign_e) * j_e < -tol_sign
    against_n = np.where(fn_zero, sign_e, sign_n) * j_n < -tol_sign
    regime, status = _RULES[:, 4 * category + 2 * against_e + against_n]
    current = (np.abs(j_e) > tol_sign) | (np.abs(j_n) > tol_sign)
    return regime, np.where((category == 0) & current, ZERO_FORCE, status)


def merit(regime, beta_l, beta_r, j_e_r, j_n_r, f_e_r, f_n_r):
    """Refrigerator COP and engine efficiency of the two-force setup, NaN
    where a figure is undefined.

    The ``regime`` codes of :func:`classify` decide where: under two positive
    forces, zeta = -J_E^r beta_r / (J_N^r f_n_r) on IccEnergy points and
    eta = -J_N^r f_n_r / (beta_l J_E^r) on IccParticle points with J_E^r > 0.
    """
    with np.errstate(all="ignore"):
        positive = (f_e_r > 0) & (f_n_r > 0)
        cop = np.where(positive & (regime == REGIMES.index(Regime.ICC_ENERGY)),
                       (-j_e_r * beta_r) / (j_n_r * f_n_r), np.nan)
        eta = np.where(positive & (regime == REGIMES.index(Regime.ICC_PARTICLE)) & (j_e_r > 0),
                       (-j_n_r * f_n_r) / (beta_l * j_e_r), np.nan)
    return cop, eta


class Batch(NamedTuple):
    """Everything :func:`evaluate` computes for N points, one entry per row,
    as a named tuple (cheaper to create at import than a dataclass).

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


def evaluate(sys: SystemParams, beta, mu, gamma, tol_sign: float = TOL_SIGN) -> Batch:
    """Solve and classify N bath configurations in one array pass.

    ``beta``, ``mu`` and ``gamma`` are (l, r, u) triples whose entries are
    scalars or arrays broadcasting to N points.  The forces decide reduction:
    the regime, cycle predictor and figures of merit are produced only where
    the upper-lead energy bias vanishes (|f_e_u| <= TOL_FORCE).
    """
    bath = np.array(np.broadcast_arrays(*beta, *mu, *gamma), dtype=float).reshape(9, -1)
    beta, mu, gamma = bath[0:3], bath[3:6], bath[6:9]

    with np.errstate(all="ignore"):
        f = forces(beta, mu)
        bad_baths = ~(np.isfinite(bath).all(axis=0) & np.isfinite(f).all(axis=0)
                      & (beta > 0).all(axis=0) & (gamma > 0).all(axis=0))
        k = rate_vector(sys.eps_b, sys.eps_u, sys.kappa, beta, mu, gamma)

        rho, gamma_cw, legs, ss_status = stationary(generator_matrix(k))

        g = channel_fluxes(k, rho)
        cur = currents_vector(g, sys.eps_b, sys.eps_u, sys.kappa, mu)
        x, y, xy_status = xy(k, g, gamma_cw)
        m, n, _c_l, mn_status = cycles(k)
        sigma_macro, _decomposition, macro_status = entropy_macro(beta, cur, f)
        micro = schnakenberg(k, rho)[0]

        reduced = np.abs(f[0]) <= TOL_FORCE
        ratio, pq_codes = pq_status(k)
        regime, cls_codes = classify(f[1], f[2], cur[1], cur[4], tol_sign)
        regime = np.where(reduced, regime, -1)
        ratio = np.where(reduced, ratio, np.nan)

        cop, eta = merit(regime, beta[0], beta[1], cur[1], cur[4], f[1], f[2])
        res_j_e = cur[0] + cur[1] + cur[2]
        res_j_n = cur[3] + cur[4] + cur[5]

        nonfinite = (~np.isfinite(np.vstack((cur, gamma_cw, x, y, m, n, sigma_macro, micro,
                                             res_j_e, res_j_n))).all(axis=0)
                     | np.isinf(cop) | np.isinf(eta))
        # each row's status is its first failing gate in pipeline order
        codes = np.array((np.where(bad_baths, BAD_BATHS, OK),
                          ss_status, xy_status, mn_status, macro_status,
                          log_domain(k, rho), np.where(reduced, pq_codes, OK),
                          np.where(reduced, cls_codes, OK),
                          np.where(nonfinite, NONFINITE, OK)))
        status = np.choose((codes != OK).argmax(axis=0), codes)

    return Batch(status=status, k=k, rho=rho, gamma_cw=gamma_cw, legs=legs,
                 forces=f, currents=cur, x=x, y=y, m=m, n=n, pq=ratio,
                 sigma_macro=sigma_macro, sigma_micro=micro, regime=regime,
                 cop=cop, eta=eta, res_j_e=res_j_e, res_j_n=res_j_n)
