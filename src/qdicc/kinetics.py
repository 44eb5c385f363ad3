"""Rate constants, the 4-state Markov generator and transient evolution.

Every directed channel i -> j mediated by lead lam carries the rate constant
k_ij = gamma_lam * f(omega_ij), with f the entering (f+) or leaving (f-)
occupation factor depending on whether the bottom/upper dot gains or loses
its electron.  Pairs of opposite channels obey the fermionic sum rule
k_ij + k_ji = gamma_lam.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ForbiddenTransitionError, IntegrationError
from .model import BathConfig, Lead, StateIndex, SystemParams

# (lead, from-state, to-state) -> flat channel index, matching _kernels layout
CHANNEL_INDEX: dict[tuple[Lead, StateIndex, StateIndex], int] = {
    (Lead.L, StateIndex.A, StateIndex.B): _kernels.L_AB,
    (Lead.L, StateIndex.B, StateIndex.A): _kernels.L_BA,
    (Lead.L, StateIndex.C, StateIndex.D): _kernels.L_CD,
    (Lead.L, StateIndex.D, StateIndex.C): _kernels.L_DC,
    (Lead.R, StateIndex.A, StateIndex.B): _kernels.R_AB,
    (Lead.R, StateIndex.B, StateIndex.A): _kernels.R_BA,
    (Lead.R, StateIndex.C, StateIndex.D): _kernels.R_CD,
    (Lead.R, StateIndex.D, StateIndex.C): _kernels.R_DC,
    (Lead.U, StateIndex.A, StateIndex.C): _kernels.U_AC,
    (Lead.U, StateIndex.C, StateIndex.A): _kernels.U_CA,
    (Lead.U, StateIndex.B, StateIndex.D): _kernels.U_BD,
    (Lead.U, StateIndex.D, StateIndex.B): _kernels.U_DB,
}

# excitation-direction channels paired with their reversals, for sum-rule checks
CHANNEL_PAIRS: tuple[tuple[Lead, StateIndex, StateIndex], ...] = (
    (Lead.L, StateIndex.A, StateIndex.B),
    (Lead.L, StateIndex.C, StateIndex.D),
    (Lead.R, StateIndex.A, StateIndex.B),
    (Lead.R, StateIndex.C, StateIndex.D),
    (Lead.U, StateIndex.A, StateIndex.C),
    (Lead.U, StateIndex.B, StateIndex.D),
)


@dataclass(frozen=True)
class RateConstants:
    """The 12 directed reservoir-resolved rate constants as a flat vector."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (12,):
            raise ValueError(f"expected 12 channel rates, got shape {v.shape}")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
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

    # short accessors used heavily by the entropy/force formulas
    @property
    def k_ab_l(self):
        return float(self.values[_kernels.L_AB])

    @property
    def k_ba_l(self):
        return float(self.values[_kernels.L_BA])

    @property
    def k_cd_l(self):
        return float(self.values[_kernels.L_CD])

    @property
    def k_dc_l(self):
        return float(self.values[_kernels.L_DC])

    @property
    def k_ab_r(self):
        return float(self.values[_kernels.R_AB])

    @property
    def k_ba_r(self):
        return float(self.values[_kernels.R_BA])

    @property
    def k_cd_r(self):
        return float(self.values[_kernels.R_CD])

    @property
    def k_dc_r(self):
        return float(self.values[_kernels.R_DC])

    @property
    def k_ac_u(self):
        return float(self.values[_kernels.U_AC])

    @property
    def k_ca_u(self):
        return float(self.values[_kernels.U_CA])

    @property
    def k_bd_u(self):
        return float(self.values[_kernels.U_BD])

    @property
    def k_db_u(self):
        return float(self.values[_kernels.U_DB])


@dataclass(frozen=True)
class PopulationVector:
    """Occupation probabilities of the four eigenstates (simplex point)."""

    values: np.ndarray

    NEGATIVE_TOL = 1e-12
    NORM_TOL = 1e-12

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (4,):
            raise ValueError(f"expected 4 populations, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("populations must be finite")
        if np.any(v < -self.NEGATIVE_TOL):
            raise ValueError(f"negative population beyond tolerance: {v}")
        if abs(v.sum() - 1.0) > self.NORM_TOL:
            raise ValueError(f"populations must sum to 1, got {v.sum()!r}")
        object.__setattr__(self, "values", v)

    def __getitem__(self, state: StateIndex) -> float:
        return float(self.values[StateIndex(state)])


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
        for i, j in ((1, 2), (2, 1), (0, 3), (3, 0)):
            if w[i, j] != 0.0:
                raise ValueError(f"blocked transition entry W[{i},{j}] must be zero")
        object.__setattr__(self, "matrix", w)


def rate_constants(sys: SystemParams, baths: BathConfig) -> RateConstants:
    """All 12 directed rate constants for the given system and reservoirs."""
    res = (baths.l, baths.r, baths.u)
    return RateConstants(_kernels.rate_vector(
        sys.eps_b, sys.eps_u, sys.kappa, tuple(r.beta for r in res),
        tuple(r.mu for r in res), tuple(r.gamma for r in res)))


def generator(rc: RateConstants) -> Generator:
    """Assemble the generator of the occupation-probability rate equations."""
    return Generator(_kernels.generator_matrix(rc.values))


def net_transition_rate(rc: RateConstants, rho, i: StateIndex, j: StateIndex,
                        lead: Lead) -> float:
    """Net directed flux i -> j via one lead: k_ij rho_i - k_ji rho_j.

    Antisymmetric under channel reversal.  Vanishes channel by channel at
    global equilibrium (detailed balance).
    """
    values = rho.values if isinstance(rho, PopulationVector) else np.asarray(rho, float)
    k_fwd = rc.rate(lead, i, j)
    k_bwd = rc.rate(lead, j, i)
    return k_fwd * float(values[StateIndex(i)]) - k_bwd * float(values[StateIndex(j)])


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
    the integrator does not adapt.  Normalization drift above 1e-12 is
    repaired by renormalizing, but drift beyond 1e-9 or a population below
    -1e-9 aborts with :class:`IntegrationError` (shrink dt).  Samples are
    recorded every ``sample_stride`` steps plus the initial and final states.
    ``rho0`` is four populations (a :class:`PopulationVector` or any
    sequence); ``dt``, ``t_end`` and every entry of ``rho0`` and ``w`` must
    be finite.
    """
    if not (np.isfinite(dt) and np.isfinite(t_end)):
        raise ValueError(f"dt and t_end must be finite, got dt={dt}, t_end={t_end}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < dt:
        raise ValueError(f"t_end must be at least dt, got t_end={t_end}, dt={dt}")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    rho_arr = rho0.values if isinstance(rho0, PopulationVector) else np.asarray(rho0, float)
    w_arr = w.matrix if isinstance(w, Generator) else np.asarray(w, float)
    if rho_arr.shape != (4,):
        raise ValueError(f"rho0 must hold 4 populations, got shape {rho_arr.shape}")
    if not (np.isfinite(rho_arr).all() and np.isfinite(w_arr).all()):
        raise ValueError("rho0 and w must be finite")
    n_steps = int(round(t_end / dt))
    times, samples, n_out, code, step = _kernels.rk4_evolve(
        w_arr, rho_arr.astype(float), float(dt), n_steps, int(sample_stride),
        1e-12, 1e-9, 1e-9,
    )
    if code == _kernels.EVOLVE_DRIFT:
        raise IntegrationError(
            f"normalization drift exceeded 1e-9 at step {step} (t={step * dt:g}); "
            "use a smaller dt"
        )
    if code == _kernels.EVOLVE_NEGATIVE:
        raise IntegrationError(
            f"population below -1e-9 at step {step} (t={step * dt:g}); "
            "use a smaller dt"
        )
    return Trajectory(times=times[:n_out].copy(), populations=samples[:n_out].copy())
