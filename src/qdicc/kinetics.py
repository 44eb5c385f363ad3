"""Rate constants, the 4-state Markov generator and transient evolution.

Every directed channel i -> j mediated by lead lam carries the rate constant
k_ij = gamma_lam * f(omega_ij), with f the entering (f+) or leaving (f-)
occupation factor depending on whether the bottom/upper dot gains or loses
its electron.  Pairs of opposite channels obey the fermionic sum rule
k_ij + k_ji = gamma_lam.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels, engine
from .errors import ForbiddenTransitionError
from .model import BathConfig, Lead, StateIndex, SystemParams

# excitation-direction (lead, lower, upper) channels in _kernels table order,
# for sum-rule checks
CHANNEL_PAIRS: tuple[tuple[Lead, StateIndex, StateIndex], ...] = tuple(
    (list(Lead)[lead], StateIndex(lower), StateIndex(upper)) for lead, lower, upper
    in zip(_kernels._LEAD.tolist(), _kernels._LOWER.tolist(), _kernels._UPPER.tolist()))

# (lead, from-state, to-state) -> flat channel index, read off the same tables
CHANNEL_INDEX: dict[tuple[Lead, StateIndex, StateIndex], int] = {
    **dict(zip(CHANNEL_PAIRS, _kernels._EXCITE.tolist())),
    **{(lead, upper, lower): idx for (lead, lower, upper), idx
       in zip(CHANNEL_PAIRS, _kernels._RELAX.tolist())},
}


@dataclass(frozen=True)
class RateConstants:
    """The 12 directed reservoir-resolved rate constants as a flat vector."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (12,):
            raise ValueError(f"expected 12 channel rates, got shape {v.shape}")
        if not (np.isfinite(v) & (v >= 0.0)).all():
            raise ValueError("rate constants must be finite and non-negative")
        object.__setattr__(self, "values", v)

    def rate(self, lead: Lead, i: StateIndex, j: StateIndex) -> float:
        """Rate constant of the directed channel i -> j via the given lead."""
        try:
            idx = CHANNEL_INDEX[(Lead(lead), StateIndex(i), StateIndex(j))]
        except KeyError:
            raise ForbiddenTransitionError(
                f"no channel {StateIndex(i).name} -> {StateIndex(j).name} via lead "
                f"{Lead(lead).value}"
            ) from None
        return float(self.values[idx])


@dataclass(frozen=True)
class PopulationVector:
    """Occupation probabilities of the four eigenstates (simplex point)."""

    values: np.ndarray

    NEGATIVE_TOL = 1e-12
    NORM_TOL = 1e-12

    def __post_init__(self):
        v = population_values(self.values)
        if np.any(v < -self.NEGATIVE_TOL):
            raise ValueError(f"negative population beyond tolerance: {v}")
        if abs(v.sum() - 1.0) > self.NORM_TOL:
            raise ValueError(f"populations must sum to 1, got {v.sum()!r}")
        object.__setattr__(self, "values", v)

    def __getitem__(self, state: StateIndex) -> float:
        return float(self.values[StateIndex(state)])


def population_values(rho) -> np.ndarray:
    """Four finite populations, on or off the simplex, as a float array;
    other input raises the ``ValueError`` of :class:`PopulationVector`."""
    if isinstance(rho, PopulationVector):
        return rho.values
    v = np.asarray(rho, dtype=float)
    if v.shape != (4,):
        raise ValueError(f"expected 4 populations, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("populations must be finite")
    return v


@dataclass(frozen=True)
class Generator:
    """Markov generator W with W[j, i] the total rate i -> j.

    Columns sum to zero (probability conservation) and the entries of the
    blocked transitions B<->C and A<->D are exactly zero.
    """

    matrix: np.ndarray

    COLUMN_SUM_TOL = 1e-14

    def __post_init__(self):
        w = np.asarray(self.matrix, dtype=float)
        if w.shape != (4, 4):
            raise ValueError(f"expected a 4x4 generator, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("generator entries must be finite")
        off = w[~np.eye(4, dtype=bool)]
        if np.any(off < 0):
            raise ValueError("off-diagonal generator entries must be non-negative")
        scale = max(1.0, float(np.abs(w).max()))
        if np.any(np.abs(w.sum(axis=0)) > self.COLUMN_SUM_TOL * scale):
            raise ValueError("generator columns must sum to zero")
        nonzero = np.argwhere(_kernels._BLOCKED & (w != 0.0)).tolist()
        if nonzero:
            i, j = nonzero[0]
            raise ValueError(f"blocked transition entry W[{i},{j}] must be zero")
        object.__setattr__(self, "matrix", w)


def rate_constants(sys: SystemParams, baths: BathConfig) -> RateConstants:
    """All 12 directed rate constants for the given system and reservoirs."""
    return RateConstants(_kernels.rate_vector(sys.eps_b, sys.eps_u, sys.kappa,
                                              *baths.triples))


def generator(rc: RateConstants) -> Generator:
    """Assemble the generator of the occupation-probability rate equations;
    a column sum that overflows is left to :class:`Generator` to reject."""
    with np.errstate(over="ignore"):
        w = _kernels.generator_matrix(rc.values)
    return Generator(w)


def net_transition_rate(rc: RateConstants, rho, i: StateIndex, j: StateIndex,
                        lead: Lead) -> float:
    """Net directed flux i -> j via one lead: k_ij rho_i - k_ji rho_j.

    Antisymmetric under channel reversal.  Vanishes channel by channel at
    global equilibrium (detailed balance).
    """
    values = population_values(rho)
    k_fwd = rc.rate(lead, i, j)
    k_bwd = rc.rate(lead, j, i)
    return k_fwd * float(values[StateIndex(i)]) - k_bwd * float(values[StateIndex(j)])


# the most RK4 steps one evolve call takes: 10x the acceptance transient
# (dt = 1e-3, t_end = 1e3); a larger t_end / dt raises ValueError at once
MAX_STEPS = 10**7


@dataclass(frozen=True)
class Trajectory:
    """Sampled population evolution: times[i] paired with populations[i, :]."""

    times: np.ndarray
    populations: np.ndarray

    def __len__(self):
        return len(self.times)


def evolve(rho0, w, dt: float, t_end: float, sample_stride: int = 1) -> Trajectory:
    """Integrate the rate equations with a fixed-step classic RK4 scheme.

    ``dt`` should satisfy dt <= 0.1 / max|W_ii| for comfortable accuracy;
    the integrator does not adapt.  The kernel applies RK4's one-step
    matrix to the deviation from the spanning-tree steady state of W (from
    zero where that steady state is degenerate, e.g. W = 0) and polices
    every step: normalization drift above 1e-12 is repaired by
    renormalizing, while drift beyond 1e-9 or a population below -1e-9
    makes the kernel itself raise :class:`IntegrationError` (shrink dt),
    which reaches the caller unchanged.  Samples are recorded every
    ``sample_stride`` steps (an integer >= 1) plus the initial and final
    states.
    ``rho0`` is four finite populations (a :class:`PopulationVector` or any
    sequence) on the simplex within the integrator's tolerances: they sum
    to 1 within 1e-9 and none is below -1e-9, or a ``ValueError`` names
    ``rho0``.  ``w`` is a :class:`Generator`; any other array is validated
    as one (4x4, finite, non-negative off the diagonal, zero column sums,
    zero blocked entries) and a ``ValueError`` names the first failure.
    ``dt``, ``t_end`` and the step count t_end / dt must be finite, and
    the step count at most :data:`MAX_STEPS` (10^7).
    """
    if not (np.isfinite(dt) and np.isfinite(t_end)):
        raise ValueError(f"dt and t_end must be finite, got dt={dt}, t_end={t_end}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    steps = float(t_end) / float(dt)  # a float overflow here is inf, not a warning
    if not np.isfinite(steps):
        raise ValueError(f"t_end / dt must be finite, got dt={dt}, t_end={t_end}")
    if steps > MAX_STEPS:
        raise ValueError(f"t_end / dt asks for {steps:.3g} steps, "
                         f"more than MAX_STEPS = {MAX_STEPS}")
    if t_end < dt:
        raise ValueError(f"t_end must be at least dt, got t_end={t_end}, dt={dt}")
    if not isinstance(sample_stride, numbers.Integral):
        raise ValueError(f"sample_stride must be an integer, got {sample_stride}")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    rho_arr = rho0.values if isinstance(rho0, PopulationVector) else np.asarray(rho0, float)
    if rho_arr.shape != (4,):
        raise ValueError(f"rho0 must hold 4 populations, got shape {rho_arr.shape}")
    if not np.isfinite(rho_arr).all():
        raise ValueError("rho0 must be finite")
    # the integrator's own simplex tolerances; Python floats keep this cheap
    v = rho_arr.tolist()
    if (abs(v[0] + v[1] + v[2] + v[3] - 1.0) > _kernels.DRIFT_TOL
            or min(v) < -_kernels.NEGATIVE_TOL):
        raise ValueError(f"rho0 must sum to 1 within {_kernels.DRIFT_TOL:g} with no "
                         f"population below {-_kernels.NEGATIVE_TOL:g}, got {v}")
    w_arr = (w if isinstance(w, Generator) else Generator(w)).matrix
    rho_ss, _, _, status = engine.stationary(w_arr)
    anchor = rho_ss if status == engine.OK else np.zeros(4)
    n_steps = int(round(steps))
    times, samples = _kernels.rk4_evolve(
        w_arr, rho_arr, float(dt), n_steps, int(sample_stride), anchor)
    return Trajectory(times=times, populations=samples)
