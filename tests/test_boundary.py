"""The public API's input checks: each rejects its bad input with its own
typed error and message."""
import re

import numpy as np
import pytest

from qdicc import (CurrentSet, ForceSet, Lead, MNFactors, PopulationVector,
                   PreconditionError, RateConstants, Reservoir, StateIndex,
                   SteadyState, SystemParams, Trajectory, analyze_point, cop_ideal,
                   currents, entropy_balance_transient, entropy_production_micro,
                   evolve, generator, net_transition_rate, rate_constants,
                   schnakenberg_terms)

from conftest import equal_baths

NAN, INF = float("nan"), float("inf")


SYS = SystemParams(1.0, 2.5, -1.5)
RC = rate_constants(SYS, equal_baths(1.0, 0.0))


def two_samples():
    return entropy_balance_transient(Trajectory(np.array([0.0, 1.0]), np.full((2, 4), 0.25)), RC)


def transient(times):
    """entropy_balance_transient on three uniform samples at ``times``."""
    return entropy_balance_transient(Trajectory(np.array(times), np.full((3, 4), 0.25)), RC)


def currents_of(j_e):
    return CurrentSet(j_e=np.array(j_e), j_n=np.zeros(3), j_q=np.zeros(3))


@pytest.mark.parametrize("call, error, message", [
    (lambda: SystemParams(1.0, 2.5, kappa_c=1.0), ValueError,
     "kappa_c and kappa_s must be supplied together"),
    (lambda: SystemParams(1.0, 2.5, kappa=INF), ValueError, "kappa must be finite, got inf"),
    (lambda: Reservoir(Lead.L, beta=1.0, mu=NAN), ValueError, "mu must be finite, got nan"),
    (lambda: RateConstants(np.zeros(11)), ValueError, "expected 12 channel rates, got shape (11,)"),
    (lambda: RateConstants(-np.ones(12)), ValueError,
     "rate constants must be finite and non-negative"),
    (lambda: PopulationVector(np.full(3, 1 / 3)), ValueError,
     "expected 4 populations, got shape (3,)"),
    (lambda: PopulationVector(np.array([NAN, 0.0, 0.0, 1.0])), ValueError,
     "populations must be finite"),
    (lambda: evolve(np.full(4, 0.25), np.zeros((4, 4)), dt=0.1, t_end=1.0, sample_stride=0),
     ValueError, "sample_stride must be >= 1"),
    *((lambda stride=stride: evolve(np.full(4, 0.25), np.zeros((4, 4)), dt=0.1, t_end=1.0,
                                    sample_stride=stride),
       ValueError, f"sample_stride must be an integer, got {stride}") for stride in (INF, 2.5)),
    (lambda: ForceSet(INF, 0.0, 0.0), ValueError, "f_e_u must be finite"),
    (lambda: MNFactors(0.0, 1.0), ValueError, "m must be positive and finite, got 0.0"),
    (lambda: MNFactors(1.0, INF), ValueError, "n must be positive and finite, got inf"),
    (two_samples, ValueError, "need at least three samples for a centered difference"),
    (lambda: entropy_balance_transient(Trajectory(np.arange(3.0), np.full((3, 3), 1 / 3)), RC),
     ValueError, "expected populations of shape (3, 4), got shape (3, 3)"),
    *((lambda times=times: transient(times), ValueError,
       "times must be 1-D, finite and strictly increasing")
      for times in ([[0.0], [1.0], [2.0]], [0.0, NAN, 2.0], [2.0, 1.0, 0.0])),
    (lambda: entropy_production_micro(RC, np.full(3, 1 / 3)), ValueError,
     "expected 4 populations, got shape (3,)"),
    (lambda: schnakenberg_terms(RC, np.full(5, 0.2)), ValueError,
     "expected 4 populations, got shape (5,)"),
    (lambda: net_transition_rate(RC, np.array([NAN, 0.5, 0.25, 0.25]), StateIndex.A,
                                 StateIndex.B, Lead.L), ValueError,
     "populations must be finite"),
    (lambda: currents(RC, SteadyState(np.full(3, 1 / 3), 0.0, np.zeros(4)), SYS,
                      equal_baths(1.0, 0.0)), ValueError,
     "expected 4 populations, got shape (3,)"),
    (lambda: CurrentSet(j_e=np.zeros(2), j_n=np.zeros(3), j_q=np.zeros(3)), ValueError,
     "j_e must hold one value per lead"),
    *((lambda j_e=j_e: currents_of(j_e), ValueError, "j_e must be finite")
      for j_e in ([0.1, NAN, -0.1], [0.0, -INF, 0.0])),
    (lambda: generator(rate_constants(SYS, equal_baths(1.0, 0.0, gamma=1e308))), ValueError,
     "generator entries must be finite"),
    (lambda: cop_ideal(equal_baths(1.0, 0.0)), PreconditionError,
     "ideal COP diverges without a thermal bias"),
    *((lambda tol=tol: analyze_point(SystemParams(1.0, 2.5, -1.5), equal_baths(1.0, 0.0),
                                     tol_sign=tol),
       ValueError, f"tol_sign must be finite and non-negative, got {tol}")
      for tol in (NAN, INF, -1.0)),
], ids=["kappa_c-alone", "kappa-inf", "mu-nan", "11-rates", "negative-rates",
        "3-populations", "population-nan", "sample_stride-0", "sample_stride-inf",
        "sample_stride-2.5", "force-inf", "m-zero",
        "n-inf", "two-samples", "transient-3-columns", "times-column", "times-nan",
        "times-decreasing", "micro-3-populations", "terms-5-populations", "net-rate-nan",
        "currents-3-populations", "j_e-of-2", "j_e-nan", "j_e-minus-inf",
        "generator-overflow", "cop_ideal-no-bias", "tol_sign-nan",
        "tol_sign-inf", "tol_sign-negative"])
def test_bad_input_is_rejected_at_the_boundary(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
