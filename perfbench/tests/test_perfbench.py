"""Tests of the benchmark's own code: span arithmetic, seeded inputs,
output checks and failure accounting.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

import qdicc  # noqa: E402
from qdicc import cli  # noqa: E402
from qdicc.config import parse_config_text  # noqa: E402
from qdicc.errors import DegenerateRateError  # noqa: E402


# -- spans ---------------------------------------------------------------------

def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds a.inner [2, 3]) and b [5, 9]
    recorded = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0],
                ["a.inner", 2.0, 3.0, 1], ["b", 5.0, 9.0, 0], ["b", 9.5, 9.75, 0]]
    out = spans.self_times(recorded)
    assert out == {"root": [2.75, 1], "a": [2.0, 1], "a.inner": [1.0, 1], "b": [4.25, 2]}
    assert sum(s for s, _ in out.values()) == pytest.approx(10.0)


def test_tracer_wrappers_nest_and_count_an_error_once():
    tracer = spans.Tracer()

    def leaf():
        raise ZeroDivisionError("x")

    traced_leaf = tracer.wrap("m.leaf", leaf)
    traced_mid = tracer.wrap("m.mid", lambda: traced_leaf())
    with pytest.raises(ZeroDivisionError):
        with tracer.span("bench.unit"):
            traced_mid()
    (_, start, end, parent), = [s for s in tracer.spans if s[0] == "bench.unit"]
    assert parent == -1
    out = tracer.drain()
    assert {name: calls for name, (_, calls) in out.items()} == \
        {"bench.unit": 1, "m.mid": 1, "m.leaf": 1}
    assert all(self_s >= 0 for self_s, _ in out.values())
    assert sum(self_s for self_s, _ in out.values()) == pytest.approx(end - start, abs=1e-12)
    assert tracer.counts == {"errors.ZeroDivisionError": 1, "errors.untyped": 1}
    assert tracer.spans == []


def test_install_patches_every_binding_and_uninstall_restores():
    original = qdicc.icc.analyze_point
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert qdicc.analyze_point is cli.analyze_point is qdicc.icc.analyze_point
        assert qdicc.icc.analyze_point is not original
    finally:
        tracer.uninstall()
    assert qdicc.analyze_point is cli.analyze_point is qdicc.icc.analyze_point is original


# -- seeded inputs -------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a, b = inputs.make(workload, 7), inputs.make(workload, 7)
    assert json.dumps(a) == json.dumps(b)
    assert json.dumps(a) != json.dumps(inputs.make(workload, 8))


def test_config_text_parses_back_exactly():
    cfg = inputs.plane_sweep_config(3)
    assert parse_config_text(inputs.config_text(cfg)) == cfg


def test_census_draws_stay_in_the_box():
    draws = inputs.census_draws(1)
    assert len(draws) == inputs.CENSUS_N ** 2
    assert all(-0.99 <= f_e <= 400 and -2000 <= f_n <= 2000 for f_e, f_n in draws)


# -- output checks -------------------------------------------------------------

SMALL = dict(inputs.SYSTEM, **inputs.LEADS, setup="icc", F_E_min=0.1, F_E_max=1.9,
             F_E_steps=3, F_N_min=0.1, F_N_max=1.9, F_N_steps=4)


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    (tmp / "small.cfg").write_text(inputs.config_text(SMALL))
    out = tmp / "small.csv"
    assert cli.main(["sweep", "--config", str(tmp / "small.cfg"), "--out", str(out)]) == 0
    return out.read_text()


def test_sweep_check_passes_and_matches_its_own_reference(small_csv):
    problems, summary = checks.check_sweep_csv(small_csv, SMALL)
    assert problems == []
    assert summary["rows"] == 12 and summary["status"] == {"ok": 12}
    assert checks.check_sweep_csv(small_csv, SMALL, summary)[0] == []


def test_sweep_check_rejects_a_corrupted_row(small_csv):
    lines = small_csv.split("\n")
    fields = lines[5].split(",")
    col = checks.SWEEP_HEADER.index("sigma_micro")
    fields[col] = repr(float(fields[col]) * (1 + 1e-6))
    lines[5] = ",".join(fields)
    problems, _ = checks.check_sweep_csv("\n".join(lines), SMALL)
    assert len(problems) == 1 and "row 4" in problems[0] and "sigma" in problems[0]


def test_sweep_check_rejects_nan_and_a_changed_regime(small_csv):
    lines = small_csv.split("\n")
    fields = lines[2].split(",")
    fields[checks.SWEEP_HEADER.index("J_E_l")] = "nan"
    lines[2] = ",".join(fields)
    assert any("inf/nan" in p for p in checks.check_sweep_csv("\n".join(lines), SMALL)[0])
    _, reference = checks.check_sweep_csv(small_csv, SMALL)
    lines = small_csv.split("\n")
    fields = lines[1].split(",")
    col = checks.SWEEP_HEADER.index("regime")
    fields[col] = "Equilibrium" if fields[col] != "Equilibrium" else "Normal"
    lines[1] = ",".join(fields)
    changed = "\n".join(lines)
    assert any("differs from the reference" in p
               for p in checks.check_sweep_csv(changed, SMALL, reference)[0])


def test_sweep_check_rejects_a_missing_row(small_csv):
    lines = small_csv.split("\n")
    del lines[7]
    problems, _ = checks.check_sweep_csv("\n".join(lines), SMALL)
    assert any("11 rows, expected 12" in p for p in problems)
    assert any("not grid point" in p for p in problems)


def test_relax_check_passes_on_a_trajectory_and_rejects_a_broken_balance():
    system = qdicc.SystemParams(**inputs.SYSTEM)
    beta, mu_l = qdicc.invert_forces(1.2, 0.7, 1.0, 1.0)
    rc = qdicc.rate_constants(system, qdicc.icc_reduction(beta, 1.0, mu_l, 1.0, 3.0))
    w = qdicc.generator(rc)
    traj = qdicc.evolve([0.7, 0.1, 0.1, 0.1], w, 1e-2, 40.0)
    bal = qdicc.entropy_balance_transient(traj, rc)
    rho_ss = qdicc.steady_state(w).rho.values
    args = (traj.times, traj.populations, bal.ds_dt, bal.sigma_dot, bal.phi_dot,
            w.matrix, rho_ss)
    assert checks.check_relax(*args) == []
    broken = bal.ds_dt.copy()
    broken[len(broken) // 2] += 1e-6
    assert "entropy-balance" in checks.check_relax(*args[:2], broken, *args[3:])[0]
    assert "steady state" in checks.check_relax(*args[:-1], rho_ss[::-1])[0]


# -- failure accounting ----------------------------------------------------------

def test_census_counts_an_untyped_exception_and_goes_on():
    def analyze(_system, baths):
        if baths == 1:
            raise ZeroDivisionError("float division by zero")
        if baths == 2:
            raise DegenerateRateError("rate-ratio denominator vanishes")
        return "point"

    latencies = []
    outcomes = worker.census_pass(analyze, None, [0, 1, 2, 1], latencies)
    assert outcomes == ["point", ZeroDivisionError, DegenerateRateError, ZeroDivisionError]
    assert len(latencies) == 4
    names = [worker.outcome_name(o) for o in outcomes]
    counts = worker.census_tally(names, 2, {0: "NonFiniteOk"})
    assert counts == {"NonFiniteOk": 2, "ZeroDivisionError": 4, "DegenerateRateError": 2}
    assert not spans.is_typed(ZeroDivisionError) and spans.is_typed(DegenerateRateError)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.99) == 99
    assert run.percentile([3.0], 0.99) == 3.0


# -- BENCHMARK.json --------------------------------------------------------------

def test_benchmark_json_names_what_run_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_compare_refuses_different_fingerprints(tmp_path):
    import compare
    record = {"workload": "relax", "seed": 1, "trace": 0, "fingerprint": {"nproc": 2},
              "result": {"correct": True, "attempted": 1, "failed": 0,
                         "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}}
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text(json.dumps(record) + "\n")
    new.write_text(json.dumps(dict(record, fingerprint={"nproc": 4})) + "\n")
    assert compare.main([str(base), str(new)]) == 2
    new.write_text(json.dumps(record) + "\n")
    assert compare.main([str(base), str(new)]) == 0


def test_compare_fails_on_failed_or_missing_new_runs(tmp_path):
    import compare
    record = {"workload": "relax", "seed": 1, "trace": 0, "fingerprint": {"nproc": 2},
              "result": {"correct": True, "attempted": 1, "failed": 0,
                         "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}}
    broken = dict(record, result=dict(record["result"], correct=False, failed=1))
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text(json.dumps(record) + "\n")
    new.write_text(json.dumps(broken) + "\n")
    assert compare.main([str(base), str(new)]) == 1
    new.write_text(json.dumps(dict(record, workload="tail_census")) + "\n")
    assert compare.main([str(base), str(new)]) == 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_setup_probe_builds_the_first_point_from_its_arguments(workload, tmp_path):
    import setup_probe
    args = run.parse_args(["--workload", workload, "--seed", "2", "--seconds", "1"])
    out = tmp_path / "setup.json"
    assert setup_probe.main([str(out), workload, *run.Run(args, tmp_path).probe_args()]) == 0
    info = json.loads(out.read_text())
    assert info["setup_s"] > 0 and info["numba_enabled"] == qdicc.NUMBA_ENABLED
