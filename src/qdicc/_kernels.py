"""Numeric kernels of the 4-state ring, in plain numpy.

Array kernels are channel-major: rate constants are (12, ...) in the
channel order below and populations (4, ...) in state order, so one
function serves a single point (rates of shape (12,)) and a batch (rates
of shape (12, N)).

Live kernels, each the one implementation of its quantity: rates
(:func:`rate_vector`), the generator (:func:`generator_matrix`), channel
fluxes (:func:`channel_fluxes`), the network-form entropy
(:func:`schnakenberg`) and the RK4 transient (:func:`rk4_evolve`: RK4's
one-step matrix applied to the deviation from a stationary anchor, one
matrix-vector product per step, with every step still policed), plus
the scalar occupation :func:`fermi_occ` behind ``model.fermi_plus``,
``model.fermi_minus`` and the closed-form cycle flux.  The tables
``_EXCITE``/``_RELAX``/``_LOWER``/``_UPPER`` are the one place in this
module that says which channel joins which states.

``solve4``, ``steady_rho``, ``cycle_legs`` and ``currents_vector`` are no
longer called by the package: the spanning-tree steady state of
:mod:`qdicc.engine` replaced the dense solve.  They remain only because the
span tracer in ``perfbench/spans.py`` looks each of them up by name.

Channel layout for the 12 directed reservoir-resolved rate constants::

    0..3   lead l:  A->B, B->A, C->D, D->C
    4..7   lead r:  A->B, B->A, C->D, D->C
    8..11  lead u:  A->C, C->A, B->D, D->B

States are indexed A=0, B=1, C=2, D=3 throughout.
"""
from __future__ import annotations

import numpy as np

from .errors import IntegrationError

L_AB, L_BA, L_CD, L_DC = 0, 1, 2, 3
R_AB, R_BA, R_CD, R_DC = 4, 5, 6, 7
U_AC, U_CA, U_BD, U_DB = 8, 9, 10, 11

# the six (lead, pair) channels: excitation channel, its reversal, and the
# lower and upper state of the pair; order AB via l, AB via r, CD via l,
# CD via r, AC via u, BD via u
_EXCITE = np.array((L_AB, R_AB, L_CD, R_CD, U_AC, U_BD))
_RELAX = np.array((L_BA, R_BA, L_DC, R_DC, U_CA, U_DB))
_LOWER = np.array((0, 0, 2, 2, 0, 1))
_UPPER = np.array((1, 1, 3, 3, 2, 3))

# rk4_evolve's simplex policing: normalization drift above RENORM_TOL is
# repaired, drift above DRIFT_TOL or a population below -NEGATIVE_TOL aborts;
# its two error messages quote the last two values
RENORM_TOL = 1e-12
DRIFT_TOL = 1e-9
NEGATIVE_TOL = 1e-9


def fermi_occ(beta, mu, omega):
    """Occupation [1 + exp(beta*(omega - mu))]^-1, overflow-safe branch form."""
    x = beta * (omega - mu)
    if x >= 0.0:
        e = np.exp(-x)
        return e / (1.0 + e)
    return 1.0 / (1.0 + np.exp(x))


def rate_vector(eps_b, eps_u, kappa, beta, mu, gamma):
    """The 12 directed rate constants gamma_lam * f^(+/-), shape (12, ...).

    ``beta``, ``mu`` and ``gamma`` are (l, r, u) triples of scalars (one
    point, rates of shape (12,)) or of arrays of one shape (N,) (a batch,
    rates of shape (12, N)).  Each excitation/de-excitation pair shares one
    occupation evaluation in an overflow-safe branch form, so the fermionic
    sum rule k+ + k- = gamma holds to within an ulp and both partners keep
    full relative accuracy even deep in the Fermi tails; computing the hole
    factor as 1 - f would lose all significance when f is close to one.
    """
    beta, mu, gamma = (np.asarray(v, dtype=float) for v in (beta, mu, gamma))
    # per channel pair in channel order: its lead (l, l, r, r, u, u) and energy
    lead = [0, 0, 1, 1, 2, 2]
    omega = np.array((eps_b, eps_b + kappa) * 2 + (eps_u, eps_u + kappa))
    omega = omega.reshape((6,) + (1,) * (beta.ndim - 1))
    x = beta[lead] * (omega - mu[lead])
    g = gamma[lead]
    e = np.exp(-np.abs(x))
    den = 1.0 + e
    small, big = e / den, 1.0 / den
    upper = x >= 0.0
    k = np.empty((12, *x.shape[1:]))
    k[0::2] = g * np.where(upper, small, big)  # even channels excite
    k[1::2] = g * np.where(upper, big, small)
    return k


def generator_matrix(k):
    """4x4 Markov generator W with W[j, i] = total rate i -> j.

    Each (lead, pair) channel of the tables above adds its excitation rate to
    W[upper, lower] and its relaxation rate to W[lower, upper]; forbidden
    channels (B<->C, A<->D) stay exactly zero; each diagonal entry is minus
    its column sum so columns sum to zero identically.
    """
    w = np.zeros((4, 4))
    np.add.at(w, (_UPPER, _LOWER), k[_EXCITE])
    np.add.at(w, (_LOWER, _UPPER), k[_RELAX])
    np.fill_diagonal(w, -w.sum(axis=0))
    return w


def solve4(a_in, b_in):
    """Solve a 4x4 dense system by Gaussian elimination with partial pivoting.

    Returns (x, ok); ok is False when a pivot vanishes.
    """
    a = a_in.copy()
    b = b_in.copy()
    n = 4
    for col in range(n):
        piv = col
        big = abs(a[col, col])
        for row in range(col + 1, n):
            v = abs(a[row, col])
            if v > big:
                big = v
                piv = row
        if big == 0.0:
            return b, False
        if piv != col:
            for j in range(n):
                tmp = a[col, j]
                a[col, j] = a[piv, j]
                a[piv, j] = tmp
            tmp = b[col]
            b[col] = b[piv]
            b[piv] = tmp
        inv = 1.0 / a[col, col]
        for row in range(col + 1, n):
            fac = a[row, col] * inv
            if fac != 0.0:
                for j in range(col, n):
                    a[row, j] -= fac * a[col, j]
                b[row] -= fac * b[col]
    x = np.empty(n)
    for row in range(n - 1, -1, -1):
        s = b[row]
        for j in range(row + 1, n):
            s -= a[row, j] * x[j]
        x[row] = s / a[row, row]
    return x, True


def steady_rho(w):
    """Kernel of the generator, normalized: solve W rho = 0 with the last
    row replaced by the probability constraint sum(rho) = 1."""
    a = w.copy()
    for j in range(4):
        a[3, j] = 1.0
    b = np.zeros(4)
    b[3] = 1.0
    return solve4(a, b)


def cycle_legs(w, rho):
    """Net rates along the four legs of the cycle A->B->D->C->A.

    Order: (A->B via l+r), (B->D via u), (D->C via l+r), (C->A via u).
    At steady state all four coincide with the clockwise cycle flux.
    """
    legs = np.empty(4)
    legs[0] = w[1, 0] * rho[0] - w[0, 1] * rho[1]
    legs[1] = w[3, 1] * rho[1] - w[1, 3] * rho[3]
    legs[2] = w[2, 3] * rho[3] - w[3, 2] * rho[2]
    legs[3] = w[0, 2] * rho[2] - w[2, 0] * rho[0]
    return legs


def channel_fluxes(k, rho):
    """Net excitation-direction fluxes (6, ...) of the (lead, pair) channels.

    Order: AB via l, AB via r, CD via l, CD via r, AC via u, BD via u.
    """
    return k[_EXCITE] * rho[_LOWER] - k[_RELAX] * rho[_UPPER]


def currents_vector(k, rho, eps_b, eps_u, kappa, mu_l, mu_r, mu_u):
    """Per-lead energy, particle and heat currents (l, r, u order).

    Positive values mean flow from the reservoir into the system.  Energy
    currents weight each channel flux by its transition energy; heat
    currents subtract mu_lam per transported particle.
    """
    g = channel_fluxes(k, rho)
    out = np.empty(9)
    je_l = eps_b * g[0] + (eps_b + kappa) * g[2]
    je_r = eps_b * g[1] + (eps_b + kappa) * g[3]
    je_u = eps_u * g[4] + (eps_u + kappa) * g[5]
    jn_l = g[0] + g[2]
    jn_r = g[1] + g[3]
    jn_u = g[4] + g[5]
    out[0] = je_l
    out[1] = je_r
    out[2] = je_u
    out[3] = jn_l
    out[4] = jn_r
    out[5] = jn_u
    out[6] = je_l - mu_l * jn_l
    out[7] = je_r - mu_r * jn_r
    out[8] = je_u - mu_u * jn_u
    return out


def schnakenberg(k, rho):
    """Entropy production rate, entropy flux rate and the six production
    summands, from the rate-log network form (J. Schnakenberg, Rev. Mod.
    Phys. 48, 571 (1976)).

    Each production summand is (a - b) ln(a / b) with a, b the one-way
    fluxes of a channel of :func:`channel_fluxes`, in its order, hence
    individually non-negative; the flux rate is minus the sum of (a - b)
    ln(k_excite / k_relax).  Rates (12, ...) and populations (4, ...) must
    broadcast: pass rates of shape (12, 1) to evaluate one rate set along a
    (4, n) trajectory.  Returns (sigma, phi, terms) with terms (6, ...).
    Requires strictly positive rates and populations; callers validate.
    """
    a = k[_EXCITE] * rho[_LOWER]
    b = k[_RELAX] * rho[_UPPER]
    flux = a - b
    terms = flux * np.log(a / b)
    phi = -(flux * np.log(k[_EXCITE] / k[_RELAX])).sum(axis=0)
    return terms.sum(axis=0), phi, terms


def rk4_evolve(w, rho0, dt, n_steps, sample_stride, anchor):
    """Fixed-step classic 4th-order integration of d(rho)/dt = W rho.

    On a linear system a classic RK4 step is rho <- R rho with the one-step
    matrix R = I + a(I + a/2 (I + a/3 (I + a/4))), a = dt W, so R is built
    once and each step is one matrix-vector product.  The product acts on
    the deviation d = rho - ``anchor`` from a stationary point of W (W
    anchor = 0 gives R anchor = anchor): the columns of R sum to 1 only up
    to rounding, and applied to rho itself that rounding builds up a
    normalization drift that grows with the step count, while on d it
    scales with the decaying deviation.  A zero ``anchor`` is plain R rho.

    Samples are recorded at step 0, every ``sample_stride`` steps and at the
    final step.  Every step is policed, so an oversized dt fails at the
    step where its iterate first leaves the simplex: normalization drift
    beyond ``DRIFT_TOL`` or a population below ``-NEGATIVE_TOL`` raises
    :class:`IntegrationError`; drift above ``RENORM_TOL`` is repaired by
    renormalization.

    Returns (times, samples) of shapes (n,) and (n, 4).
    """
    a, one = dt * w, np.eye(4)
    r = one + a.dot(one + a.dot(one + a.dot(one + a / 4.0) / 3.0) / 2.0)
    rho = np.array(rho0, dtype=float)
    d = rho - anchor
    times = [0.0]
    samples = [rho]
    for step in range(1, n_steps + 1):
        d = r.dot(d)
        rho = anchor + d

        total = rho.sum()
        drift = abs(total - 1.0)
        if drift > DRIFT_TOL:
            raise IntegrationError(
                f"normalization drift exceeded 1e-9 at step {step} (t={step * dt:g}); "
                "use a smaller dt")
        if rho.min() < -NEGATIVE_TOL:
            raise IntegrationError(
                f"population below -1e-9 at step {step} (t={step * dt:g}); "
                "use a smaller dt")
        if drift > RENORM_TOL:
            rho = rho * (1.0 / total)
            d = rho - anchor
        if step % sample_stride == 0 or step == n_steps:
            times.append(step * dt)
            samples.append(rho)
    return np.array(times), np.array(samples)
