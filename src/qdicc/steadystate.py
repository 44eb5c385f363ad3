"""Steady-state populations and the clockwise cycle flux.

The four states form the single ring A->B->D->C->A, so the stationary
distribution comes in closed form from the matrix-tree theorem (see
:mod:`qdicc.engine`): each state's weight is a sum of spanning-tree
products of the rates read off the generator, with no linear solve and no
subtraction.  At the stationary point the four legs of the cycle carry a
common net rate, the clockwise cycle flux Gamma_cw; the upper-lead energy
current is kappa times this single number.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, engine
from .errors import PreconditionError
from .kinetics import Generator, PopulationVector
from .model import BathConfig, SystemParams


@dataclass(frozen=True)
class SteadyState:
    """Stationary populations plus the clockwise cycle flux Gamma_cw."""

    rho: PopulationVector
    gamma_cw: float
    legs: np.ndarray  # the four cycle-leg net rates, for diagnostics


def steady_state(w: Generator) -> SteadyState:
    """Stationary point of the generator, with cycle-flux consistency checks.

    A 1-point view of :func:`qdicc.engine.stationary`, which reads the ring
    rates off W.  Raises :class:`DegenerateNetworkError` when the
    spanning-tree normalization Z is zero or not finite, and
    :class:`NumericalError` when |W rho| or the spread of the four cycle
    legs exceeds 1e-12 times the largest total exit rate |W_jj|, which
    would indicate a corrupted generator rather than roundoff.  ``w`` is a
    :class:`Generator`; any other array is validated as one, as
    :func:`qdicc.kinetics.evolve` does, and a ``ValueError`` names the
    first failure.
    """
    w_arr = (w if isinstance(w, Generator) else Generator(w)).matrix
    rho, gamma_cw, legs, status = engine.stationary(w_arr)
    engine.raise_for_status(status)
    return SteadyState(rho=PopulationVector(rho), gamma_cw=float(gamma_cw), legs=legs)


def cycle_flux_closed_form(sys: SystemParams, baths: BathConfig) -> float:
    """Explicit cycle flux for equal tunneling rates on all three leads.

    Writing f1 = f+_l(w_ab) + f+_r(w_ab), f2 = f+_l(w_cd) + f+_r(w_cd),
    g1 = f+_u(w_ac) and g2 = f+_u(w_bd), the stationary cycle flux is

        Gamma_cw = gamma * (f1*[f2*(g2 - g1) + 2*g2*(g1 - 1)]
                            - 2*g1*f2*(g2 - 1))
                   / (3*f1*(g1 - g2) - 6 + 3*f2*(g2 - g1))

    which agrees with the spanning-tree steady state identically (the
    denominator is the negated spanning-tree normalization, the numerator
    the negated cycle affinity imbalance).  Requires gamma_l = gamma_r =
    gamma_u, and raises :class:`DegenerateNetworkError` where the
    denominator vanishes.
    """
    beta, mu, (g_l, g_r, g_u) = baths.triples
    gmax = max(g_l, g_r, g_u)
    if max(abs(g_l - g_r), abs(g_l - g_u)) > 1e-12 * gmax:
        raise PreconditionError(
            "closed-form cycle flux assumes equal tunneling rates; got "
            f"gamma=({g_l}, {g_r}, {g_u})"
        )
    # the six f+ in table order
    f = _kernels.rate_vector(sys.eps_b, sys.eps_u, sys.kappa, beta, mu,
                             (1.0, 1.0, 1.0))[_kernels._EXCITE]
    f1, f2, g1, g2 = f[0] + f[1], f[2] + f[3], f[4], f[5]
    num = f1 * (f2 * (g2 - g1) + 2.0 * g2 * (g1 - 1.0)) - 2.0 * g1 * f2 * (g2 - 1.0)
    den = 3.0 * f1 * (g1 - g2) - 6.0 + 3.0 * f2 * (g2 - g1)
    if den == 0.0:
        engine.raise_for_status(engine.DEGENERATE)
    return float(g_l * num / den)
