"""Numeric kernels of the 4-state ring, in plain numpy.

Array kernels are channel-major: rate constants are (12, ...) in the
channel order below and populations (4, ...) in state order, so one
function serves a single point (rates of shape (12,)) and a batch (rates
of shape (12, N)).  Rates (:func:`rate_vector`), channel fluxes
(:func:`channel_fluxes`) and the network-form entropy
(:func:`schnakenberg`) each have exactly one implementation, here.

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

# rk4 failure codes
EVOLVE_OK = 0
EVOLVE_DRIFT = 1
EVOLVE_NEGATIVE = 2


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

    Forbidden channels (B<->C, A<->D) stay exactly zero; each diagonal entry
    is minus its column sum so columns sum to zero identically.
    """
    w = np.zeros((4, 4))
    w[1, 0] = k[L_AB] + k[R_AB]
    w[0, 1] = k[L_BA] + k[R_BA]
    w[3, 2] = k[L_CD] + k[R_CD]
    w[2, 3] = k[L_DC] + k[R_DC]
    w[2, 0] = k[U_AC]
    w[0, 2] = k[U_CA]
    w[3, 1] = k[U_BD]
    w[1, 3] = k[U_DB]
    for i in range(4):
        s = 0.0
        for j in range(4):
            if j != i:
                s += w[j, i]
        w[i, i] = -s
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


def rk4_evolve(w, rho0, dt, n_steps, sample_stride,
               renorm_tol, drift_tol, negative_tol):
    """Fixed-step classic 4th-order integration of d(rho)/dt = W rho.

    Samples are recorded at step 0, every ``sample_stride`` steps and at the
    final step.  Per step the simplex is policed: drift beyond ``drift_tol``
    or a population below ``-negative_tol`` aborts (fail codes 1 / 2);
    drift above ``renorm_tol`` is repaired by renormalization.

    Returns (times, samples, n_samples, fail_code, fail_step).
    """
    n_rec = n_steps // sample_stride + 2
    times = np.empty(n_rec)
    samples = np.empty((n_rec, 4))
    rho = rho0.copy()
    times[0] = 0.0
    samples[0, :] = rho
    n_out = 1
    k1 = np.empty(4)
    k2 = np.empty(4)
    k3 = np.empty(4)
    k4 = np.empty(4)
    tmp = np.empty(4)
    for step in range(1, n_steps + 1):
        for i in range(4):
            s = 0.0
            for j in range(4):
                s += w[i, j] * rho[j]
            k1[i] = s
        for i in range(4):
            tmp[i] = rho[i] + 0.5 * dt * k1[i]
        for i in range(4):
            s = 0.0
            for j in range(4):
                s += w[i, j] * tmp[j]
            k2[i] = s
        for i in range(4):
            tmp[i] = rho[i] + 0.5 * dt * k2[i]
        for i in range(4):
            s = 0.0
            for j in range(4):
                s += w[i, j] * tmp[j]
            k3[i] = s
        for i in range(4):
            tmp[i] = rho[i] + dt * k3[i]
        for i in range(4):
            s = 0.0
            for j in range(4):
                s += w[i, j] * tmp[j]
            k4[i] = s
        for i in range(4):
            rho[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])

        total = rho[0] + rho[1] + rho[2] + rho[3]
        drift = abs(total - 1.0)
        if drift > drift_tol:
            return times, samples, n_out, EVOLVE_DRIFT, step
        low = rho[0]
        for i in range(1, 4):
            if rho[i] < low:
                low = rho[i]
        if low < -negative_tol:
            return times, samples, n_out, EVOLVE_NEGATIVE, step
        if drift > renorm_tol:
            inv = 1.0 / total
            for i in range(4):
                rho[i] *= inv
        if step % sample_stride == 0 or step == n_steps:
            times[n_out] = step * dt
            samples[n_out, :] = rho
            n_out += 1
    return times, samples, n_out, EVOLVE_OK, n_steps
