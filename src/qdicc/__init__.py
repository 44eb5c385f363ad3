"""Transport simulator for a three-terminal pair of Coulomb-coupled quantum dots.

Builds reservoir-resolved tunneling rates, solves the 4-state rate-equation
steady state, evaluates per-lead energy/particle/heat currents and entropy
production (both from reservoir parameters and from the rate-log network
form), and classifies the two-force plane into normal, cross-effect,
pseudo-inverse and genuine inverse-current regimes with refrigerator COP
and engine efficiency where defined.
"""

__version__ = "0.1.0"

# The package has a single numpy backend; this constant stays False for
# benchmark run fingerprints that record it.
NUMBA_ENABLED = False

from .errors import (ConfigError, DegenerateNetworkError, DegenerateRateError,
                     ForbiddenTransitionError, IntegrationError,
                     LogDomainError, NumericalError, PreconditionError,
                     QdiccError, SecondLawViolationError, UndefinedForceError)
from .model import (BathConfig, Lead, Reservoir, StateIndex, SystemParams,
                    TransitionTable, eigenenergies, fermi_minus, fermi_plus,
                    transition_energies)
from .kinetics import (Generator, PopulationVector, RateConstants, Trajectory,
                       evolve, generator, net_transition_rate, rate_constants)
from .steadystate import SteadyState, cycle_flux_closed_form, steady_state
from .transport import (ConservationReport, CurrentSet, conservation_report,
                        currents)
from .thermo import (EntropyReport, ForceSet, MNFactors,
                     TransientEntropyBalance, entropy_balance_transient,
                     entropy_production_macro, entropy_production_micro,
                     forces_macro, forces_micro, mn_factors,
                     schnakenberg_terms)
from .icc import (IccPoint, Regime, analyze_point, carnot_efficiency,
                  classify, cop, cop_ideal, efficiency, icc_reduction,
                  invert_forces, pq_ratio, thermoelectric_reduction,
                  xy_variables)

__all__ = [
    "__version__", "NUMBA_ENABLED",
    # errors
    "QdiccError", "ConfigError", "PreconditionError", "NumericalError",
    "ForbiddenTransitionError", "UndefinedForceError", "LogDomainError",
    "DegenerateRateError", "DegenerateNetworkError", "IntegrationError",
    "SecondLawViolationError",
    # model
    "StateIndex", "Lead", "SystemParams", "Reservoir", "BathConfig",
    "TransitionTable", "eigenenergies", "transition_energies",
    "fermi_plus", "fermi_minus",
    # kinetics
    "RateConstants", "PopulationVector", "Generator", "Trajectory",
    "rate_constants", "generator", "net_transition_rate", "evolve",
    # steady state
    "SteadyState", "steady_state", "cycle_flux_closed_form",
    # transport
    "CurrentSet", "ConservationReport", "currents", "conservation_report",
    # thermo
    "ForceSet", "MNFactors", "EntropyReport", "TransientEntropyBalance",
    "forces_macro", "forces_micro", "mn_factors", "schnakenberg_terms",
    "entropy_production_macro", "entropy_production_micro",
    "entropy_balance_transient",
    # icc
    "Regime", "IccPoint", "icc_reduction", "thermoelectric_reduction",
    "invert_forces", "xy_variables", "pq_ratio", "classify", "cop",
    "cop_ideal", "efficiency", "carnot_efficiency", "analyze_point",
]
