"""The package root: its public names, resolved on first use, and what an
import loads."""
import subprocess
import sys

import pytest

import qdicc

# the public API, in order
PUBLIC = [
    "__version__", "NUMBA_ENABLED",
    "QdiccError", "ConfigError", "PreconditionError", "NumericalError",
    "ForbiddenTransitionError", "UndefinedForceError", "LogDomainError",
    "DegenerateRateError", "DegenerateNetworkError", "IntegrationError",
    "SecondLawViolationError",
    "StateIndex", "Lead", "SystemParams", "Reservoir", "BathConfig",
    "TransitionTable", "eigenenergies", "transition_energies",
    "fermi_plus", "fermi_minus",
    "RateConstants", "PopulationVector", "Generator", "Trajectory",
    "rate_constants", "generator", "net_transition_rate", "evolve",
    "SteadyState", "steady_state", "cycle_flux_closed_form",
    "CurrentSet", "ConservationReport", "currents", "conservation_report",
    "ForceSet", "MNFactors", "EntropyReport", "TransientEntropyBalance",
    "forces_macro", "forces_micro", "mn_factors", "schnakenberg_terms",
    "entropy_production_macro", "entropy_production_micro",
    "entropy_balance_transient",
    "Regime", "IccPoint", "icc_reduction", "thermoelectric_reduction",
    "invert_forces", "xy_variables", "pq_ratio", "classify", "cop",
    "cop_ideal", "efficiency", "carnot_efficiency", "analyze_point",
]


def test_all_lists_the_public_api_in_order():
    assert qdicc.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_each_public_name_resolves_to_its_definition(name):
    namespace = {}
    exec(f"from qdicc import {name}", namespace)
    obj = getattr(qdicc, name)
    assert namespace[name] is obj
    assert name in dir(qdicc)
    home = sys.modules[getattr(obj, "__module__", "qdicc")]
    assert getattr(home, name) is obj


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qdicc import *", namespace)
    assert set(PUBLIC) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        qdicc.no_such_name  # noqa: B018


def test_root_reads_the_current_binding(monkeypatch):
    # a binding patched in its module after first use is what the root and
    # cli return: perfbench's span tracer relies on it
    assert qdicc.analyze_point is qdicc.cli.analyze_point is qdicc.icc.analyze_point
    monkeypatch.setattr(qdicc.icc, "analyze_point", object())
    assert qdicc.analyze_point is qdicc.cli.analyze_point is qdicc.icc.analyze_point


def test_invert_forces_lives_beside_forces():
    assert qdicc.invert_forces is qdicc.icc.invert_forces is qdicc.engine.invert_forces
    assert qdicc.invert_forces.__module__ == "qdicc.engine"


def _loaded(statement):
    code = (f"import sys; {statement}; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('qdicc'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, check=True)
    return set(proc.stdout.split())


def test_import_qdicc_loads_no_submodule():
    assert _loaded("import qdicc") == {"qdicc"}


def test_import_config_loads_only_the_engine_path():
    assert _loaded("import qdicc.config") == {
        "qdicc", "qdicc.errors", "qdicc._kernels", "qdicc.model", "qdicc.engine",
        "qdicc.config"}


# the sweep path: no kinetics, steadystate, transport, thermo or icc
SWEEP_PATH = {"qdicc", "qdicc.errors", "qdicc._kernels", "qdicc.model", "qdicc.engine",
              "qdicc.config", "qdicc.cli"}


def test_import_cli_loads_only_the_sweep_path():
    assert _loaded("import qdicc.cli") == SWEEP_PATH


def test_sweep_loads_only_the_sweep_path(tmp_path):
    cfg = tmp_path / "plane.cfg"
    cfg.write_text("eps_b = 1.0\neps_u = 2.5\nkappa = -1.5\nbeta_r = 1.0\nmu_r = 1.0\n"
                   "mu_u = 3.0\nF_E_min = 0.1\nF_E_max = 1.9\nF_E_steps = 3\n"
                   "F_N_min = 0.1\nF_N_max = 1.9\nF_N_steps = 3\n")
    out = tmp_path / "plane.csv"
    assert _loaded(f"from qdicc.cli import main; "
                   f"assert main(['sweep', '--config', {str(cfg)!r}, "
                   f"'--out', {str(out)!r}]) == 0") == SWEEP_PATH
    assert len(out.read_text().splitlines()) == 10


def test_submodule_resolves_on_access():
    assert "qdicc.icc" in _loaded("import qdicc; assert qdicc.icc is sys.modules['qdicc.icc']")
