"""Per-reservoir steady-state energy, particle and heat currents.

Sign convention: a positive current flows from the reservoir into the
system.  Total energy and particle currents are conserved at the steady
state; heat is not, because each lead discounts its own chemical potential.
"""
from __future__ import annotations

from typing import NamedTuple
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .kinetics import RateConstants, population_values
from .model import BathConfig, SystemParams
from .steadystate import SteadyState


@dataclass(frozen=True)
class CurrentSet:
    """Energy, particle and heat currents per lead, in (l, r, u) order;
    each value must be finite."""

    j_e: np.ndarray
    j_n: np.ndarray
    j_q: np.ndarray

    def __post_init__(self):
        for name in ("j_e", "j_n", "j_q"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"{name} must hold one value per lead")
            if not np.isfinite(v).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)

    @property
    def j_e_l(self):
        return float(self.j_e[0])

    @property
    def j_e_r(self):
        return float(self.j_e[1])

    @property
    def j_e_u(self):
        return float(self.j_e[2])

    @property
    def j_n_l(self):
        return float(self.j_n[0])

    @property
    def j_n_r(self):
        return float(self.j_n[1])

    @property
    def j_n_u(self):
        return float(self.j_n[2])

    @property
    def j_q_l(self):
        return float(self.j_q[0])

    @property
    def j_q_r(self):
        return float(self.j_q[1])

    @property
    def j_q_u(self):
        return float(self.j_q[2])


class ConservationReport(NamedTuple):
    """Signed residuals of the steady-state conservation identities."""

    sum_j_e: float
    sum_j_n: float
    j_n_u: float


def currents(rc: RateConstants, ss: SteadyState, sys: SystemParams,
             baths: BathConfig) -> CurrentSet:
    """Steady-state currents from the excitation-direction channel fluxes.

    J_E weights the bottom-dot channels by eps_b and eps_b + kappa and the
    upper-dot channels by eps_u and eps_u + kappa; J_N counts the same
    fluxes unweighted; J_Q subtracts mu_lam per transported particle.
    """
    g = _kernels.channel_fluxes(rc.values, population_values(ss.rho))
    out = _kernels.currents_vector(g, sys.eps_b, sys.eps_u, sys.kappa, baths.triples[1])
    return CurrentSet(j_e=out[0:3], j_n=out[3:6], j_q=out[6:9])


def conservation_report(cs: CurrentSet) -> ConservationReport:
    """Conservation residuals: sum of J_E, sum of J_N, and the upper-lead
    particle current (all identically zero at an exact steady state)."""
    return ConservationReport(
        sum_j_e=float(cs.j_e.sum()),
        sum_j_n=float(cs.j_n.sum()),
        j_n_u=float(cs.j_n[2]),
    )
