"""Transport simulator for a three-terminal pair of Coulomb-coupled quantum dots.

Builds reservoir-resolved tunneling rates, solves the 4-state rate-equation
steady state, evaluates per-lead energy/particle/heat currents and entropy
production (both from reservoir parameters and from the rate-log network
form), and classifies the two-force plane into normal, cross-effect,
pseudo-inverse and genuine inverse-current regimes with refrigerator COP
and engine efficiency where defined.
"""

import importlib

__version__ = "0.1.0"

# The package has a single numpy backend; this constant stays False for
# benchmark run fingerprints that record it.
NUMBA_ENABLED = False

# The module each public name is read from, in ``__all__`` order.  A name's
# module is imported on first access (PEP 562) and the name is not cached
# here, so a binding patched in its module later is what the root returns.
_EXPORTS = {
    "errors": "QdiccError ConfigError PreconditionError NumericalError ForbiddenTransitionError "
              "UndefinedForceError LogDomainError DegenerateRateError DegenerateNetworkError "
              "IntegrationError SecondLawViolationError",
    "model": "StateIndex Lead SystemParams Reservoir BathConfig TransitionTable eigenenergies "
             "transition_energies fermi_plus fermi_minus",
    "kinetics": "RateConstants PopulationVector Generator Trajectory rate_constants generator "
                "net_transition_rate evolve",
    "steadystate": "SteadyState steady_state cycle_flux_closed_form",
    "transport": "CurrentSet ConservationReport currents conservation_report",
    "thermo": "ForceSet MNFactors EntropyReport TransientEntropyBalance forces_macro "
              "forces_micro mn_factors schnakenberg_terms entropy_production_macro "
              "entropy_production_micro entropy_balance_transient",
    "icc": "Regime IccPoint icc_reduction thermoelectric_reduction invert_forces xy_variables "
           "pq_ratio classify cop cop_ideal efficiency carnot_efficiency analyze_point",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# submodules that ``qdicc.<name>`` imports on first access, as a plain
# ``import qdicc.<name>`` would
_SUBMODULES = {*_EXPORTS, "_kernels", "engine", "config", "cli"}

__all__ = ["__version__", "NUMBA_ENABLED", *_MODULE_OF]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
