"""Numeric kernels of the 4-state ring, in plain numpy.

Array kernels are channel-major: rate constants are (12, ...) in the
channel order below and populations (4, ...) in state order, so one
function serves a single point (rates of shape (12,)) and a batch (rates
of shape (12, N)).

Live kernels, each the one implementation of its quantity: the Fermi
occupations (:func:`occupations`, also behind ``model.fermi_plus``,
``model.fermi_minus`` and the closed-form cycle flux), rates
(:func:`rate_vector`), the generator (:func:`generator_matrix`), channel
fluxes (:func:`channel_fluxes`), the nine currents
(:func:`currents_vector`), the network-form entropy (:func:`schnakenberg`)
and the RK4 transient (:func:`rk4_evolve`: one matrix-vector product per
sample where RK4's one-step matrix is non-negative, else one per policed
step).  The tables ``_EXCITE``/``_RELAX``/``_LEAD``/``_LOWER``/
``_UPPER`` and the transition energies of :func:`channel_energies` say which
lead, which states and which energy each channel has;
``kinetics.CHANNEL_INDEX``, ``model.transition_energies`` and
``steadystate.cycle_flux_closed_form`` read them.  The incidence table
``_FEEDS`` drives the generator, whose ring entries ``engine.stationary``
reads in ``RING`` order, and its mask ``_BLOCKED`` of the pairs no channel
joins is what ``kinetics.Generator`` and ``model.TransitionTable.omega``
reject.
``_CYCLES`` lists the ring's three independent cycles by channel;
``engine.cycles`` reads it for M/N, the lead-l gate, p/q and
``thermo.forces_micro``, and no other module names a channel constant.

``solve4``, ``steady_rho`` and ``cycle_legs`` run in no command and behind
no public function: the spanning-tree steady state of :mod:`qdicc.engine`
replaced the dense solve.  They stay bound, as thin numpy code (LAPACK's
solve behind the ``(x, ok)`` contract, one index expression over ``RING``),
because the benchmark's span tracer looks each of them up by name and its
per-layer metrics list them; ROADMAP item 1 deletes them with those entries.

Channel layout for the 12 directed reservoir-resolved rate constants::

    0..3   lead l:  A->B, B->A, C->D, D->C
    4..7   lead r:  A->B, B->A, C->D, D->C
    8..11  lead u:  A->C, C->A, B->D, D->B

States are indexed A=0, B=1, C=2, D=3 throughout.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import IntegrationError

L_AB, L_BA, L_CD, L_DC = 0, 1, 2, 3
R_AB, R_BA, R_CD, R_DC = 4, 5, 6, 7
U_AC, U_CA, U_BD, U_DB = 8, 9, 10, 11

# the six (lead, pair) channels: excitation channel, its reversal, its lead
# (0, 1, 2 = l, r, u) and the lower and upper state of the pair; order AB
# via l, AB via r, CD via l, CD via r, AC via u, BD via u
_EXCITE = np.array((L_AB, R_AB, L_CD, R_CD, U_AC, U_BD))
_RELAX = np.array((L_BA, R_BA, L_DC, R_DC, U_CA, U_DB))
_LEAD = np.array((0, 1, 0, 1, 2, 2))
_LOWER = np.array((0, 0, 2, 2, 0, 1))
_UPPER = np.array((1, 1, 3, 3, 2, 3))
# the two channels of each lead (l, r, u), in table order
_LEAD_FIRST, _LEAD_SECOND = np.argsort(_LEAD, kind="stable").reshape(3, 2).T
# ring order A, B, D, C as state indices (the permutation is its own
# inverse), and the state after each ring state
RING = (0, 1, 3, 2)
_SUCC = RING[1:] + RING[:1]

# _FEEDS[j, i, c] is 1 where channel c carries i -> j, else 0
_FEEDS = np.zeros((4, 4, 12))
_FEEDS[_UPPER, _LOWER, _EXCITE] = _FEEDS[_LOWER, _UPPER, _RELAX] = 1.0
# the off-diagonal generator entries no channel feeds: B<->C and A<->D
_BLOCKED = ~(np.eye(4, dtype=bool) | _FEEDS.any(axis=2))
_DIAG = np.arange(4)
# each channel's reversal, and the ring's three independent cycles (chords AB
# via r, CD via r, BD via u) as the channels each runs, forward and backward
_REVERSE = np.empty(12, dtype=int)
_REVERSE[_EXCITE], _REVERSE[_RELAX] = _RELAX, _EXCITE
_CYCLES = ((R_AB, L_BA), (R_CD, L_DC), (L_AB, U_BD, L_DC, U_CA))
_CYCLES_BACK = tuple(tuple(_REVERSE[list(row)].tolist()) for row in _CYCLES)

# rk4_evolve's simplex policing: normalization drift above RENORM_TOL is
# repaired, drift above DRIFT_TOL or a population below -NEGATIVE_TOL aborts;
# its two error messages quote the last two values
RENORM_TOL = 1e-12
DRIFT_TOL = 1e-9
NEGATIVE_TOL = 1e-9


def occupations(x):
    """Fermi occupations (f(x), f(-x)) with f(x) = [1 + exp(x)]^-1.

    Overflow-safe branch form: both come from the one exp(-|x|), so
    f(x) + f(-x) = 1 holds to within an ulp and each keeps full relative
    accuracy deep in the Fermi tails, where 1 - f would lose all
    significance.  ``x`` is a scalar or an array.
    """
    e = np.exp(-np.abs(x))
    den = 1.0 + e
    small, big = e / den, 1.0 / den
    upper = x >= 0.0
    return np.where(upper, small, big), np.where(upper, big, small)


def channel_energies(eps_b, eps_u, kappa):
    """Transition energy omega of each table channel, shape (6,)."""
    return np.array((eps_b, eps_b, eps_b + kappa, eps_b + kappa, eps_u, eps_u + kappa))


def rate_vector(eps_b, eps_u, kappa, beta, mu, gamma):
    """The 12 directed rate constants gamma_lam * f^(+/-), shape (12, ...).

    ``beta``, ``mu`` and ``gamma`` are (l, r, u) triples of scalars (one
    point, rates of shape (12,)) or of arrays of one shape (N,) (a batch,
    rates of shape (12, N)).  Each table channel takes x = beta_lam (omega -
    mu_lam) of its lead and transition energy, its excitation rate
    gamma_lam f(x) and its relaxation rate gamma_lam f(-x) from one
    :func:`occupations` call, so the fermionic sum rule k+ + k- = gamma
    holds to within an ulp.
    """
    beta, mu, gamma = (np.asarray(v, dtype=float) for v in (beta, mu, gamma))
    omega = channel_energies(eps_b, eps_u, kappa).reshape((6,) + (1,) * (beta.ndim - 1))
    with np.errstate(over="ignore"):  # +-inf saturates the occupations to 0 or 1
        x = beta[_LEAD] * (omega - mu[_LEAD])
    excite, relax = occupations(x)
    g = gamma[_LEAD]
    k = np.empty((12, *x.shape[1:]))
    k[_EXCITE] = g * excite
    k[_RELAX] = g * relax
    return k


def generator_matrix(k):
    """Markov generator W with W[j, i] = total rate i -> j, (4, 4, ...).

    W[j, i] sums the rates of the channels that ``_FEEDS`` says carry
    i -> j; every entry has at most two non-zero terms, so the product is
    exact.  Forbidden pairs (B<->C, A<->D) stay exactly zero for finite
    rates, and each diagonal entry is minus its column sum so columns sum
    to zero identically.
    """
    w = _FEEDS.reshape(16, 12).dot(k).reshape((4, 4) + np.shape(k)[1:])
    w[_DIAG, _DIAG] = -w.sum(axis=0)
    return w


def solve4(a_in, b_in):
    """Solve a 4x4 dense system with LAPACK's gesv (Gaussian elimination,
    partial pivoting).  Returns (x, ok); on an exactly zero pivot, ok is
    False and x a copy of ``b_in``.  The inputs are not mutated."""
    try:
        return np.linalg.solve(a_in, b_in), True
    except np.linalg.LinAlgError:
        return b_in.copy(), False


def steady_rho(w):
    """Kernel of the generator, normalized: solve W rho = 0 with the last
    row replaced by the probability constraint sum(rho) = 1."""
    a = w.copy()
    a[3] = 1.0
    return solve4(a, np.eye(4)[3])


def cycle_legs(w, rho):
    """Net rates along the four legs of the cycle A->B->D->C->A (``RING``).

    Order: (A->B via l+r), (B->D via u), (D->C via l+r), (C->A via u).
    At steady state all four coincide with the clockwise cycle flux.
    """
    return w[_SUCC, RING] * rho[list(RING)] - w[RING, _SUCC] * rho[list(_SUCC)]


def channel_fluxes(k, rho):
    """Net excitation-direction fluxes (6, ...) of the (lead, pair) channels.

    Order: AB via l, AB via r, CD via l, CD via r, AC via u, BD via u.
    """
    return k[_EXCITE] * rho[_LOWER] - k[_RELAX] * rho[_UPPER]


def currents_vector(g, eps_b, eps_u, kappa, mu):
    """Energy, particle and heat currents (9, ...) from the channel fluxes.

    ``g`` is (6,) for one point or (6, N) for a batch, from
    :func:`channel_fluxes`; ``mu`` is the (l, r, u) triple of chemical
    potentials, of scalars or of (N,) arrays to match.  Order:
    J_E (l, r, u), J_N (l, r, u), J_Q (l, r, u); positive values flow from
    the reservoir into the system.  Each lead sums its two channels, J_E
    weighted by their transition energies; J_Q subtracts mu_lam per
    transported particle.
    """
    e = channel_energies(eps_b, eps_u, kappa).reshape((6,) + (1,) * (g.ndim - 1)) * g
    je = e[_LEAD_FIRST] + e[_LEAD_SECOND]
    jn = g[_LEAD_FIRST] + g[_LEAD_SECOND]
    return np.concatenate((je, jn, je - np.asarray(mu, dtype=float) * jn))


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
    once and a step is one matrix-vector product.  The product acts on the
    deviation d = rho - ``anchor`` from a stationary point of W (W anchor =
    0 gives R anchor = anchor): the columns of R sum to 1 only up to
    rounding, and applied to rho itself that rounding builds up a
    normalization drift that grows with the step count, while on d it
    scales with the decaying deviation.  A zero ``anchor`` is plain R rho.

    Samples are recorded at step 0, every ``sample_stride`` steps and at the
    final step.  Each recorded state is policed: normalization drift beyond
    ``DRIFT_TOL`` or a population below ``-NEGATIVE_TOL`` raises
    :class:`IntegrationError`; drift above ``RENORM_TOL`` is repaired by
    renormalization.

    The input selects how far a product reaches.  When R is entrywise >= 0
    (a NaN entry is not), and ``rho0`` is entrywise >= 0 and sums to 1 within
    ``RENORM_TOL``, the kernel jumps: one product with S = R^sample_stride
    (and one with a remainder power for a final partial stride) takes d
    from sample to sample, and the checks and the renormalization run at
    the samples only.  The outcome is that of policing every step: R's
    columns sum to 1, so a non-negative R maps the simplex into itself and
    no step between two samples can fail a check, and a renormalization, a
    scalar factor, commutes with the linear steps (R anchor = anchor); the
    sum condition leaves no renormalization pending at step 1.  Otherwise
    (dt near RK4's stability limit, or a ``rho0`` entry in
    [-NEGATIVE_TOL, 0)) every step is policed, so an oversized dt fails at
    the step where its iterate first leaves the simplex, and the error
    names that step.

    Returns (times, samples) of shapes (n,) and (n, 4), the samples written
    into one preallocated array and the times step * dt of the sampled
    steps.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # NaN fails the drift check
        a, one = dt * w, np.eye(4)
        r = one + a.dot(one + a.dot(one + a.dot(one + a / 4.0) / 3.0) / 2.0)
    steps = np.arange(0, n_steps + 1, sample_stride)
    tail = n_steps % sample_stride
    if tail:
        steps = np.append(steps, n_steps)
    samples = np.empty((len(steps), 4))
    samples[0] = rho0
    d = samples[0] - anchor
    v = samples[0].tolist()
    if (min(v) >= 0.0 and abs(v[0] + v[1] + v[2] + v[3] - 1.0) <= RENORM_TOL
            and r.min() >= 0.0):
        hop = np.linalg.matrix_power(r, sample_stride)
        last = np.linalg.matrix_power(r, tail) if tail else hop
        stops = itertools.chain(range(sample_stride, n_steps + 1, sample_stride),
                                (n_steps,) if tail else ())
    else:
        hop = last = r
        stops = range(1, n_steps + 1)
    k = 1
    for step in stops:
        d = (last if step == n_steps else hop).dot(d)
        rho = anchor + d

        # read once: numpy's 4-element sum and min cost ~3 us a pass here;
        # numpy adds 4 elements left to right (the builtin sum would not)
        v = rho.tolist()
        total = v[0] + v[1] + v[2] + v[3]
        drift = abs(total - 1.0)
        if not drift <= DRIFT_TOL:
            raise IntegrationError(
                f"normalization drift exceeded 1e-9 at step {step} (t={step * dt:g}); "
                "use a smaller dt")
        if min(v) < -NEGATIVE_TOL:
            raise IntegrationError(
                f"population below -1e-9 at step {step} (t={step * dt:g}); "
                "use a smaller dt")
        if drift > RENORM_TOL:
            rho = rho * (1.0 / total)
            d = rho - anchor
        if step % sample_stride == 0 or step == n_steps:
            samples[k] = rho
            k += 1
    return steps * dt, samples
