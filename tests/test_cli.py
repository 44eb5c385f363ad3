"""Command-line surface: config parsing, outputs, determinism, exit codes."""
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdicc.cli import main
from qdicc.config import COLUMNS, build_system, parse_config_text

from conftest import BETA_R, EPS_B, EPS_U, KAPPA_ATTRACTIVE, MU_R, MU_U

POINT_CONFIG = f"""
# two-force setup, level-swapped coupling
eps_b = {EPS_B}
eps_u = {EPS_U}
kappa = {KAPPA_ATTRACTIVE}
beta_r = {BETA_R}
mu_r = {MU_R}
mu_u = {MU_U}
gamma = 1.0
setup = icc
F_E = 0.0
F_N = 1.0
"""

SWEEP_CONFIG = f"""
eps_b = {EPS_B}
eps_u = {EPS_U}
kappa = {KAPPA_ATTRACTIVE}
beta_r = {BETA_R}
mu_r = {MU_R}
mu_u = {MU_U}
gamma = 1.0
setup = icc
F_E_min = 0.1
F_E_max = 1.9
F_E_steps = 7
F_N_min = 0.1
F_N_max = 1.9
F_N_steps = 5
"""

RAW_CONFIG = f"""
eps_b = {EPS_B}
eps_u = {EPS_U}
kappa = {KAPPA_ATTRACTIVE}
setup = raw
beta_l = 1.5
beta_r = 1.0
beta_u = 0.9
mu_l = 0.2
mu_r = 1.0
mu_u = 0.5
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def parse_solve_output(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


class TestConfigParsing:
    def test_round_trip(self):
        cfg = parse_config_text(POINT_CONFIG)
        assert cfg["eps_b"] == 1.0
        assert cfg["setup"] == "icc"
        assert cfg["F_N"] == 1.0

    def test_unknown_key_rejected(self):
        from qdicc import ConfigError
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("epsb = 1.0")

    def test_duplicate_key_rejected(self):
        from qdicc import ConfigError
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("eps_b = 1\neps_b = 2")

    def test_bad_number_rejected(self):
        from qdicc import ConfigError
        with pytest.raises(ConfigError, match="needs a number"):
            parse_config_text("eps_b = one")


class TestSolve:
    def test_pseudo_inverse_point(self, tmp_path, capsys):
        cfg = write(tmp_path, "point.cfg", POINT_CONFIG)
        assert main(["solve", "--config", cfg]) == 0
        record = parse_solve_output(capsys.readouterr().out)
        assert list(record) == list(COLUMNS)
        assert record["status"] == "ok"
        assert float(record["J_N_r"]) > 0
        assert float(record["sigma_macro"]) >= -1e-12

    def test_zero_force_point_is_equilibrium(self, tmp_path, capsys):
        cfg = write(tmp_path, "eq.cfg",
                    POINT_CONFIG.replace("F_N = 1.0", "F_N = 0.0"))
        assert main(["solve", "--config", cfg]) == 0
        record = parse_solve_output(capsys.readouterr().out)
        assert record["regime"] == "Equilibrium"
        for column in ("J_E_l", "J_E_r", "J_E_u", "J_N_l", "J_N_r", "J_N_u"):
            assert abs(float(record[column])) < 1e-12

    def test_repulsive_single_force_branch_stays_positive(self, tmp_path, capsys):
        cfg_text = POINT_CONFIG.replace(f"kappa = {KAPPA_ATTRACTIVE}", "kappa = 1.5")
        for f_n in (0.5, 1.5, 3.0):
            cfg = write(tmp_path, "rep.cfg",
                        cfg_text.replace("F_N = 1.0", f"F_N = {f_n}"))
            assert main(["solve", "--config", cfg]) == 0
            record = parse_solve_output(capsys.readouterr().out)
            assert float(record["J_E_r"]) > 0

    def test_raw_setup(self, tmp_path, capsys):
        cfg = write(tmp_path, "raw.cfg", RAW_CONFIG)
        assert main(["solve", "--config", cfg]) == 0
        record = parse_solve_output(capsys.readouterr().out)
        assert record["status"] == "ok"
        # not two-force reduced: no regime, no cycle predictor
        assert record["regime"] == ""
        assert record["PQ"] == ""
        assert float(record["F_E"]) == pytest.approx(0.5)

    def test_output_file(self, tmp_path):
        cfg = write(tmp_path, "point.cfg", POINT_CONFIG)
        out = tmp_path / "record.txt"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().count("\n") == len(COLUMNS)

    def test_component_coupling_keys(self, tmp_path, capsys):
        text = POINT_CONFIG.replace("kappa = -1.5",
                                    "kappa_c = 0.5\nkappa_s = 2.0")
        cfg = write(tmp_path, "parts.cfg", text)
        assert main(["solve", "--config", cfg]) == 0
        record = parse_solve_output(capsys.readouterr().out)
        assert record["status"] == "ok"
        assert record["regime"] == "PseudoIccEnergy"  # net kappa is still -1.5


class TestSweep:
    def test_header_and_shape(self, tmp_path):
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CONFIG)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(COLUMNS)
        assert len(lines) == 1 + 7 * 5
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_row_major_order(self, tmp_path):
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CONFIG)
        out = tmp_path / "sweep.csv"
        main(["sweep", "--config", cfg, "--out", str(out)])
        rows = [line.split(",") for line in
                out.read_text().splitlines()[1:]]
        f_e = np.array([float(r[0]) for r in rows])
        f_n = np.array([float(r[1]) for r in rows])
        assert (np.diff(f_e) >= 0).all()          # outer axis non-decreasing
        assert (np.diff(f_n[:5]) > 0).all()       # inner axis strictly increasing

    def test_deterministic_bytes(self, tmp_path):
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--config", cfg, "--out", str(out1)])
        main(["sweep", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_do_not_change_bytes(self, tmp_path):
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CONFIG)
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        main(["sweep", "--config", cfg, "--out", str(serial)])
        main(["sweep", "--config", cfg, "--out", str(parallel), "--threads", "2"])
        assert serial.read_bytes() == parallel.read_bytes()

    def test_sweep_requires_axes(self, tmp_path):
        cfg = write(tmp_path, "bad.cfg", POINT_CONFIG)
        assert main(["sweep", "--config", cfg]) == 2

    def test_solve_rejects_sweep_config(self, tmp_path):
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CONFIG)
        assert main(["solve", "--config", cfg]) == 2

    def test_sweep_rows_carry_consistent_entropy_and_regimes(self, tmp_path):
        text = SWEEP_CONFIG.replace("F_E_steps = 7", "F_E_steps = 20") \
                           .replace("F_N_steps = 5", "F_N_steps = 20")
        cfg = write(tmp_path, "sweep.cfg", text)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        idx = {name: i for i, name in enumerate(COLUMNS)}
        regimes = set()
        for line in lines[1:]:
            row = line.split(",")
            assert row[idx["status"]] == "ok"
            sigma_macro = float(row[idx["sigma_macro"]])
            sigma_micro = float(row[idx["sigma_micro"]])
            assert abs(sigma_macro - sigma_micro) < 1e-10
            assert sigma_macro >= -1e-12
            regimes.add(row[idx["regime"]])
        # both inverse flavors show up on this window, never in one row
        assert "IccEnergy" in regimes
        assert "IccParticle" in regimes

    def test_per_row_failures_are_recorded_not_fatal(self):
        from qdicc.cli import _sweep_row
        cfg = parse_config_text(POINT_CONFIG)
        del cfg["F_E"], cfg["F_N"]
        # the Fermi-tail cell of test_fermi_tail_cell_gets_a_typed_status
        # fails an engine gate
        rows = _sweep_row((build_system(cfg), cfg, 1e-10, -0.99, (-711.86,)))
        assert len(rows) == 1
        assert rows[0][-1] == "error:precondition"
        assert rows[0][4] == ""  # currents left empty
        assert len(rows[0]) == len(COLUMNS)
        assert rows[0][2:-1] == ("",) * (len(COLUMNS) - 3)  # forces and status only

    def test_solve_prints_the_sweep_row(self, tmp_path, capsys):
        # solve and a sweep line share one engine call shape and one row
        # writer, so solve at a grid cell's forces reproduces its row exactly
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CONFIG)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 7 * 5
        point_text = "\n".join(line for line in SWEEP_CONFIG.splitlines()
                               if not line.startswith(("F_E_", "F_N_")))
        for row in rows:
            # the 17 significant digits of a cell round-trip through float()
            point = write(tmp_path, "point.cfg",
                          f"{point_text}\nF_E = {row[0]}\nF_N = {row[1]}\n")
            assert main(["solve", "--config", point]) == 0
            record = parse_solve_output(capsys.readouterr().out)
            assert list(record) == list(COLUMNS)
            assert list(record.values()) == row

    def test_fermi_tail_cell_gets_a_typed_status(self, tmp_path):
        # F_E = -0.99, F_N = -711.86 sends q of the cycle predictor to zero;
        # the sweep used to abort there with an untyped ZeroDivisionError
        text = SWEEP_CONFIG.replace("F_E_min = 0.1", "F_E_min = -0.99") \
                           .replace("F_E_max = 1.9", "F_E_max = 1.0") \
                           .replace("F_N_min = 0.1", "F_N_min = -711.86") \
                           .replace("F_N_max = 1.9", "F_N_max = 1.0") \
                           .replace("F_E_steps = 7", "F_E_steps = 2") \
                           .replace("F_N_steps = 5", "F_N_steps = 2")
        cfg = write(tmp_path, "tail.cfg", text)
        out = tmp_path / "tail.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "qdicc", "sweep", "--config", cfg, "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2
        idx = {name: i for i, name in enumerate(COLUMNS)}
        rows = {(float(r[0]), float(r[1])): r for r in
                (line.split(",") for line in lines[1:])}
        assert rows[(-0.99, -711.86)][idx["status"]].startswith("error:")
        for row in rows.values():
            assert row[idx["status"]] == "ok" or row[idx["status"]].startswith("error:")
            for name, cell in zip(COLUMNS, row):
                if cell and name not in ("regime", "status"):
                    assert math.isfinite(float(cell)), (name, cell)

    def test_config_error_writes_no_output(self, tmp_path):
        bad = SWEEP_CONFIG.replace("F_E_min = 0.1", "F_E_min = -2.0")
        cfg = write(tmp_path, "bad.cfg", bad)
        out = tmp_path / "never.csv"
        for command in ("sweep", "classify-map"):
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "classify-map"])
    @pytest.mark.parametrize("key, value", [("F_E_min", "nan"), ("F_E_max", "inf"),
                                            ("F_N_min", "-inf"), ("F_N_max", "nan")])
    def test_non_finite_axis_bound_rejected(self, tmp_path, capsys, command, key, value):
        # a NaN bound slips past every comparison and used to fill the F_E or
        # F_N column with nan, or the map with '!', under exit code 0
        line = next(ln for ln in SWEEP_CONFIG.splitlines() if ln.startswith(key))
        cfg = write(tmp_path, "bad.cfg", SWEEP_CONFIG.replace(line, f"{key} = {value}"))
        out = tmp_path / "never.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {key} must be finite, got {float(value)!r}\n"
        assert not out.exists()


class TestClassifyMap:
    def test_inverse_plane_map_is_frozen(self, tmp_path):
        # regime and status of all 10^4 cells of the shipped config, as
        # recorded before the batched engine replaced the per-point solve
        root = Path(__file__).resolve().parent.parent
        out = tmp_path / "map.txt"
        assert main(["classify-map", "--config",
                     str(root / "configs" / "inverse_plane.cfg"),
                     "--out", str(out)]) == 0
        golden = Path(__file__).resolve().parent / "data" / "inverse_plane.map"
        assert out.read_text() == golden.read_text()

    def test_grid_shape_and_legend(self, tmp_path):
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CONFIG)
        out = tmp_path / "map.txt"
        assert main(["classify-map", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = [line for line in lines if line.startswith("#")]
        grid = [line for line in lines if not line.startswith("#")]
        assert any("legend" in line for line in header)
        assert len(grid) == 7
        assert all(len(row) == 5 for row in grid)

    def test_equilibrium_cells_at_zero_forces(self, tmp_path):
        text = SWEEP_CONFIG.replace("F_E_min = 0.1", "F_E_min = 0.0") \
                           .replace("F_E_max = 1.9", "F_E_max = 0.0") \
                           .replace("F_N_min = 0.1", "F_N_min = 0.0") \
                           .replace("F_N_max = 1.9", "F_N_max = 0.0") \
                           .replace("F_E_steps = 7", "F_E_steps = 2") \
                           .replace("F_N_steps = 5", "F_N_steps = 2")
        cfg = write(tmp_path, "zero.cfg", text)
        out = tmp_path / "map.txt"
        assert main(["classify-map", "--config", cfg, "--out", str(out)]) == 0
        grid = [line for line in out.read_text().splitlines()
                if not line.startswith("#")]
        assert grid == ["00", "00"]


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", "bogus = 1")
        assert main(["solve", "--config", cfg]) == 2

    def test_physics_precondition(self, tmp_path, capsys):
        bad = POINT_CONFIG.replace(f"eps_b = {EPS_B}", "eps_b = 3.5")
        cfg = write(tmp_path, "bad.cfg", bad)
        assert main(["solve", "--config", cfg]) == 3
        assert "precondition" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        POINT_CONFIG.replace("gamma = 1.0", "gamma = 0"),
        POINT_CONFIG.replace("F_N = 1.0", "F_N = inf"),
        RAW_CONFIG.replace("beta_u = 0.9", "beta_u = -1"),
        RAW_CONFIG + "gamma = 0\n",
    ], ids=["icc-gamma-0", "icc-F_N-inf", "raw-beta_u-negative", "raw-gamma-0"])
    def test_invalid_baths_in_solve(self, tmp_path, capsys, text):
        # the engine's bath gate is the one bath check of solve, as of a sweep
        cfg = write(tmp_path, "bad.cfg", text)
        assert main(["solve", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("precondition error:")
        assert captured.err.count("\n") == 1

    def test_raw_sweep_rejected(self, tmp_path, capsys):
        raw_sweep = SWEEP_CONFIG.replace("setup = icc", "setup = raw")
        cfg = write(tmp_path, "raw.cfg", raw_sweep)
        assert main(["sweep", "--config", cfg]) == 3

    def test_invertibility_guard(self, tmp_path, capsys):
        bad = SWEEP_CONFIG.replace("F_E_min = 0.1", "F_E_min = -2.0")
        cfg = write(tmp_path, "bad.cfg", bad)
        assert main(["sweep", "--config", cfg]) == 2
        # beta = beta_r + F_E must stay positive at F_E_max too, not only at
        # F_E_min: this axis runs from 0.5 down to -1.5 with beta_r = 1
        assert BETA_R == 1.0
        descending = SWEEP_CONFIG.replace("F_E_min = 0.1", "F_E_min = 0.5") \
                                 .replace("F_E_max = 1.9", "F_E_max = -1.5")
        cfg = write(tmp_path, "descending.cfg", descending)
        capsys.readouterr()
        for command in ("sweep", "classify-map"):
            out = tmp_path / f"{command}.out"
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize("command, text", [("sweep", SWEEP_CONFIG),
                                               ("solve", POINT_CONFIG),
                                               ("classify-map", SWEEP_CONFIG)],
                             ids=["sweep", "solve", "classify-map"])
    def test_unwritable_output(self, tmp_path, capsys, monkeypatch, command, text):
        calls = []
        if command != "solve":
            # a grid command opens its output before it evaluates any cell
            monkeypatch.setattr("qdicc.engine.evaluate",
                                lambda *args, **kwargs: calls.append(args))
        cfg = write(tmp_path, "run.cfg", text)
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error:") and err.count("\n") == 1
        assert not out.parent.exists()
        assert calls == []

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--threads", threads])
        assert exc.value.code == 2
        assert "--threads: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_sign_not_finite_or_negative_rejected(self, tmp_path, capsys, tol):
        # nan or inf would label every cell Normal, -1 every cell an error
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--tol-sign", tol])
        assert exc.value.code == 2
        assert "--tol-sign: must be finite and non-negative" in capsys.readouterr().err


def test_cli_import_leaves_the_process_pool_out():
    code = ("import sys, qdicc.cli; "
            "sys.exit('multiprocessing' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], timeout=300).returncode == 0


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "point.cfg"
    cfg.write_text(POINT_CONFIG, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "qdicc", "solve", "--config", str(cfg)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("F_E = ")
