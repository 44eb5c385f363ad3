"""Command-line surface: config parsing, outputs, determinism, exit codes."""
import contextlib
import errno
import io
import math
import re
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdicc import ConfigError, cli, engine
from qdicc.cli import main
from qdicc.config import (COLUMNS, MAX_AXIS_STEPS, STATUS_WORDS, build_sweep_spec,
                          build_system, parse_config_text, record_fields)
from qdicc.model import SystemParams

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

# the Fermi-tail window where most cells fail an engine gate
CENSUS_CONFIG = (SWEEP_CONFIG.replace("F_E_min = 0.1", "F_E_min = -0.99")
                 .replace("F_E_max = 1.9", "F_E_max = 400")
                 .replace("F_N_min = 0.1", "F_N_min = -2000")
                 .replace("F_N_max = 1.9", "F_N_max = 2000")
                 .replace("F_E_steps = 7", "F_E_steps = 20")
                 .replace("F_N_steps = 5", "F_N_steps = 20"))

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


# bath values for the contract property: zero, negative, tiny, huge, past
# exp's range and non-finite
BATH_VALUES = ["0", "-1", "1e-300", "1e300", "-1e300", "700", "-700",
               "nan", "inf", "-inf", "1"]

NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)

# the keys the solve property draws from BATH_VALUES in each setup; the raw
# setup rejects F_E and F_N, so it draws its own three bath values instead
FORCE_KEYS = ("beta_r", "mu_r", "mu_u", "gamma", "F_E", "F_N")
RAW_KEYS = ("beta_r", "mu_r", "mu_u", "gamma", "beta_l", "beta_u", "mu_l")

THERMOELECTRIC_CONFIG = POINT_CONFIG.replace("setup = icc", "setup = thermoelectric")

# the config-key contract property draws each key from a small in-range set
# (CONTRACT_KEYS), then sets up to two keys to a bad value: a bath value, a
# level energy of the wrong sign, text that is not a number, a step count
# below or past the axis limits, an unknown setup
CONTRACT_KEYS = {
    "eps_b": ["0.5", "1.0"], "eps_u": ["1.5", "2.5"],
    "kappa": ["-1.5", "-0.5", "0.5", "1.5"], "kappa_c": ["0", "0.5", "2"],
    "kappa_s": ["0", "0.5", "2"], "setup": ["icc", "icc", "icc", "thermoelectric", "raw"],
    "F_E_min": ["-0.5", "0", "0.1", "400"], "F_E_max": ["-0.5", "0", "1.9", "400"],
    "F_N_min": ["-2000", "-1", "0", "1.9"], "F_N_max": ["-1", "0", "1.9", "2000"],
    "F_E_steps": ["2", "3", "4"], "F_N_steps": ["2", "3", "4"],
    "F_E": ["-0.5", "0", "0.5", "400"], "F_N": ["-2000", "0", "1", "2000"],
}
BAD_VALUES = BATH_VALUES + ["2.5", "-1.5", "abc", "1,5", ""]
BAD_STEPS = ["-1", "0", "1", "2.5", "two", "10000000000000"]
# two thirds of the coupling forms are valid; most setups are icc, the one
# setup a sweep takes
COUPLINGS = [("kappa",), ("kappa",), ("kappa_c", "kappa_s"), ("kappa_c", "kappa_s"),
             ("kappa", "kappa_c"), ("kappa_s",)]


class DeadStream(io.StringIO):
    """A text stream on a closed descriptor: every write raises EBADF."""

    def write(self, text):
        raise OSError(errno.EBADF, "Bad file descriptor")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def with_values(text, values):
    """Config ``text`` with each key of ``values`` set, appended where absent."""
    lines = [ln for ln in text.splitlines() if ln.partition("=")[0].strip() not in values]
    return "\n".join(lines + [f"{key} = {value}" for key, value in values.items()]) + "\n"


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

    @pytest.mark.parametrize("key", ["F_E_steps", "F_N_steps"])
    def test_axis_steps_capped(self, key):
        # the spec allocates nothing, so the cap holds before any axis exists
        cfg = parse_config_text(SWEEP_CONFIG)
        assert getattr(build_sweep_spec({**cfg, key: MAX_AXIS_STEPS}), key.lower()) == 10**6
        with pytest.raises(ConfigError, match="at most 1000000 steps each"):
            build_sweep_spec({**cfg, key: MAX_AXIS_STEPS + 1})

    def test_axis_spanning_the_float_range(self):
        # linspace's product for the last point overflows, and is replaced
        # by the axis maximum: every point is finite, without a warning
        top = sys.float_info.max
        spec = build_sweep_spec({**parse_config_text(SWEEP_CONFIG), "F_N_min": 0.0,
                                 "F_N_max": top, "F_N_steps": 7})
        values = spec.f_n_values()
        assert np.isfinite(values).all() and values[0] == 0.0 and values[-1] == top


class TestSolve:
    def test_pseudo_inverse_point(self, tmp_path, capsys):
        cfg = write(tmp_path, "point.cfg", POINT_CONFIG)
        assert main(["solve", "--config", cfg]) == 0
        record = parse_solve_output(capsys.readouterr().out)
        assert list(record) == list(COLUMNS)
        assert record["status"] == "ok"
        assert float(record["J_N_r"]) > 0
        assert float(record["sigma_macro"]) >= -1e-12

    def test_config_with_a_byte_order_mark(self, tmp_path, capsys):
        plain = Path(__file__).resolve().parent.parent / "configs" / "pseudo_inverse_energy.cfg"
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for cfg in (plain, bom):
            assert main(["solve", "--config", str(cfg)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1] == outputs[0]
        assert outputs[0].out and not outputs[0].err

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
        # every cell bit for bit: the engine on RAW_CONFIG's six bath values,
        # with the forces those baths make and beta_l, mu_l
        batch = engine.evaluate(SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=KAPPA_ATTRACTIVE),
                                (1.5, 1.0, 0.9), (0.2, 1.0, 0.5), (1.0, 1.0, 1.0))
        cells = b"".join(record_fields(*batch.forces[1:, 0], 1.5, 0.2, batch))
        assert record == dict(zip(COLUMNS, cells.decode().rstrip("\n").split(",")))

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

    @pytest.mark.parametrize("command", ["sweep", "classify-map"])
    def test_threads_do_not_change_bytes(self, tmp_path, command):
        # with --threads 2 each grid line is rendered in a worker process
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CONFIG)
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        main([command, "--config", cfg, "--out", str(serial)])
        main([command, "--config", cfg, "--out", str(parallel), "--threads", "2"])
        assert serial.read_bytes() == parallel.read_bytes()

    @settings(max_examples=8, deadline=None)
    @given(f_e_steps=st.integers(2, 9), f_n_steps=st.integers(2, 7),
           f_e=st.lists(st.floats(-0.9, 2.0), min_size=2, max_size=2),
           f_n=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2))
    def test_threads_do_not_change_bytes_on_random_grids(self, tmp_path_factory, f_e_steps,
                                                         f_n_steps, f_e, f_n):
        # --threads 1 renders the grid as one block, --threads 2 as two blocks
        # in two worker processes; both signs of both forces are reachable
        text = SWEEP_CONFIG
        for key, value in (("F_E_min", f_e[0]), ("F_E_max", f_e[1]), ("F_E_steps", f_e_steps),
                           ("F_N_min", f_n[0]), ("F_N_max", f_n[1]), ("F_N_steps", f_n_steps)):
            line = next(ln for ln in text.splitlines() if ln.startswith(key + " "))
            text = text.replace(line, f"{key} = {value!r}")
        tmp = tmp_path_factory.mktemp("grid")
        cfg = write(tmp, "grid.cfg", text)
        for command in ("sweep", "classify-map"):
            serial, parallel = tmp / f"{command}.1", tmp / f"{command}.2"
            assert main([command, "--config", cfg, "--out", str(serial)]) == 0
            assert main([command, "--config", cfg, "--out", str(parallel),
                         "--threads", "2"]) == 0
            assert serial.read_bytes() == parallel.read_bytes()

    def test_threads_capped_at_lines_and_cpus(self, tmp_path, monkeypatch):
        # a process pool starts every worker it is given; the fake pool
        # records how many it was asked for and runs each block at once
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, item):
                future = Future()
                future.set_result(fn(item))
                return future

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CONFIG)
        serial, capped = tmp_path / "serial.csv", tmp_path / "capped.csv"
        main(["sweep", "--config", cfg, "--out", str(serial)])
        # the cap counts the CPUs this process may run on
        for cpus in (64, 3, 1):
            monkeypatch.setattr("os.sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)),
                                raising=False)
            main(["sweep", "--config", cfg, "--out", str(capped), "--threads", "100000"])
            assert capped.read_bytes() == serial.read_bytes()
        assert sizes == [7, 3]  # 7 F_E lines, then 3 CPUs; one CPU makes no pool

    @pytest.mark.parametrize("command, lines, columns, block", [
        pytest.param(command, lines, columns, block, id=command + grid)
        for lines, columns, block, grid in (
            (2, 10000, 4096, ""),        # lines longer than a block
            (2, 5000, 4096, "-2x5000"),  # the first block runs past the first line's end
            (7, 5, 7, "-7x5"),           # every block but the last straddles a line end
        )
        for command in ("sweep", "classify-map")
    ])
    def test_long_lines_go_in_bounded_engine_calls(self, tmp_path, monkeypatch, command,
                                                   lines, columns, block):
        # a block is a run of consecutive grid points, cut across line ends:
        # every engine call holds at most _BLOCK_POINTS points, and the
        # output bytes are those of one call over the whole grid
        text = SWEEP_CONFIG.replace("F_E_steps = 7", f"F_E_steps = {lines}") \
                           .replace("F_N_steps = 5", f"F_N_steps = {columns}")
        cfg = write(tmp_path, "long.cfg", text)
        monkeypatch.setattr(cli, "_BLOCK_POINTS", block)
        sizes = []
        evaluate = engine.evaluate

        def recording(sys_params, beta, mu, gamma, **kwargs):
            sizes.append(np.broadcast(*beta, *mu, *gamma).size)
            return evaluate(sys_params, beta, mu, gamma, **kwargs)

        monkeypatch.setattr(engine, "evaluate", recording)
        chunked, whole = tmp_path / "chunked", tmp_path / "whole"
        assert main([command, "--config", cfg, "--out", str(chunked)]) == 0
        assert max(sizes) == block
        assert sum(sizes) == lines * columns
        monkeypatch.setattr(cli, "_BLOCK_POINTS", 10**5)
        sizes.clear()
        assert main([command, "--config", cfg, "--out", str(whole)]) == 0
        assert sizes == [lines * columns]
        assert chunked.read_bytes() == whole.read_bytes()
        if command == "classify-map":
            rows = [ln for ln in chunked.read_text().splitlines() if not ln.startswith("#")]
            assert [len(row) for row in rows] == [columns] * lines

    def test_overflowing_mu_l_fails_its_line(self, tmp_path):
        # beta_r = 5e-324 keeps beta_r + F_E positive at F_E = 0, where
        # mu_l = (beta_r mu_r - F_N) / beta overflows: that line's cells
        # fail, and no numpy warning escapes
        text = SWEEP_CONFIG.replace("F_E_min = 0.1", "F_E_min = 0")
        text = text.replace(f"beta_r = {BETA_R}", "beta_r = 5e-324")
        cfg = write(tmp_path, "tiny.cfg", text)
        csv, grid = tmp_path / "sweep.csv", tmp_path / "map.txt"
        assert main(["sweep", "--config", cfg, "--out", str(csv)]) == 0
        assert main(["classify-map", "--config", cfg, "--out", str(grid)]) == 0
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        assert len(rows) == 7 * 5
        assert all(float(r[0]) == 0.0 and r[-1] != "ok" for r in rows[:5])
        grid_rows = [ln for ln in grid.read_text().splitlines() if not ln.startswith("#")]
        assert [len(row) for row in grid_rows] == [5] * 7
        assert grid_rows[0] == "!!!!!"

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
        chunks = _sweep_row((build_system(cfg), cfg, 1e-10, np.array([-0.99]),
                             np.array([-711.86])))
        lines = b"".join(chunks).decode().splitlines()
        assert len(lines) == 1
        row = lines[0].split(",")
        assert row[-1] == "error:precondition"
        assert row[4] == ""  # currents left empty
        assert len(row) == len(COLUMNS)
        assert row[2:-1] == [""] * (len(COLUMNS) - 3)  # forces and status only

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
                                            ("F_N_min", "-inf"), ("F_N_max", "nan"),
                                            ("beta_r", "inf"), ("mu_r", "nan"),
                                            ("mu_u", "-inf"), ("gamma", "nan")])
    def test_non_finite_axis_bound_rejected(self, tmp_path, capsys, command, key, value):
        # a NaN bound slips past every comparison and used to fill the F_E or
        # F_N column with nan, or the map with '!', under exit code 0; a
        # non-finite bath key used to give a grid of failed cells, and
        # beta_r = inf a numpy warning on stderr as well
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

    def test_map_matches_sweep_columns(self, tmp_path):
        # the map reads the engine's codes; the CSV's regime and status
        # columns, read back through this table, must give the same cells
        code_of = {"Equilibrium": "0", "Normal": ".", "CrossEffectEnergy": "x",
                   "CrossEffectParticle": "y", "PseudoIccEnergy": "e",
                   "PseudoIccParticle": "n", "IccEnergy": "E", "IccParticle": "N",
                   "": "!"}
        cfg = write(tmp_path, "census.cfg", CENSUS_CONFIG)
        csv, grid = tmp_path / "census.csv", tmp_path / "census.map"
        assert main(["sweep", "--config", cfg, "--out", str(csv)]) == 0
        assert main(["classify-map", "--config", cfg, "--out", str(grid)]) == 0
        regime, status = COLUMNS.index("regime"), COLUMNS.index("status")
        cells = [code_of[row[regime]] if row[status] == "ok" else "!"
                 for row in (line.split(",") for line in
                             csv.read_text().splitlines()[1:])]
        expected = ["".join(cells[i:i + 20]) for i in range(0, 400, 20)]
        rows = [line for line in grid.read_text().splitlines()
                if not line.startswith("#")]
        assert rows == expected
        # the window holds both classified and failed cells
        assert 0 < "".join(rows).count("!") < 400

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

    def test_config_not_utf8(self, tmp_path, capsys):
        # a decoding error is a ValueError, but a config error, not a
        # physics precondition
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(POINT_CONFIG.encode("utf-8") + b"# \xff\n")
        for command in ("solve", "sweep", "classify-map"):
            assert main([command, "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and err.count("\n") == 1

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

    @pytest.mark.parametrize("command, text", [("sweep", SWEEP_CONFIG),
                                               ("solve", POINT_CONFIG),
                                               ("classify-map", SWEEP_CONFIG)],
                             ids=["sweep", "solve", "classify-map"])
    def test_closed_stdout(self, tmp_path, capsys, monkeypatch, command, text):
        # a process started with its standard output closed has sys.stdout
        # None; writing to it is an output error, not an AttributeError
        cfg = write(tmp_path, "run.cfg", text)
        monkeypatch.setattr(sys, "stdout", None)
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == "output error: standard output is closed\n"

    @pytest.mark.parametrize("stderr", [None, DeadStream()], ids=["none", "dead-descriptor"])
    @pytest.mark.parametrize("text, code", [("eps_b = 1\n", 2),
                                            (POINT_CONFIG.replace("F_E = 0.0", "F_E = -9"), 3)],
                             ids=["missing-key", "bad-bath"])
    def test_closed_stderr(self, tmp_path, capsys, monkeypatch, stderr, text, code):
        # with standard error closed (None at start-up, or a stream whose
        # descriptor is gone) the error line is dropped, the exit code
        # stands and nothing goes to stdout
        cfg = write(tmp_path, "run.cfg", text)
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main(["solve", "--config", cfg]) == code
        assert capsys.readouterr().out == ""

    @settings(max_examples=50, deadline=None)
    @given(st.fixed_dictionaries({key: st.sampled_from(BATH_VALUES)
                                  for key in ("beta_r", "mu_r", "mu_u", "gamma")}))
    def test_bath_values_keep_the_contract(self, tmp_path_factory, baths):
        # a 3x3 grid under extreme, zero, negative and non-finite bath values:
        # a documented exit code, no escaping exception or warning, no nan or
        # inf token, and on success one CSV row per cell and one map row of
        # F_N_steps codes per F_E line
        text = SWEEP_CONFIG.replace("F_E_steps = 7", "F_E_steps = 3") \
                           .replace("F_N_steps = 5", "F_N_steps = 3")
        for key, value in baths.items():
            line = next(ln for ln in text.splitlines() if ln.startswith(key))
            text = text.replace(line, f"{key} = {value}")
        tmp = tmp_path_factory.mktemp("baths")
        cfg = write(tmp, "baths.cfg", text)
        for command in ("sweep", "classify-map"):
            out = tmp / f"{command}.out"
            code = main([command, "--config", cfg, "--out", str(out)])
            assert code in (0, 2, 3, 4)
            if code == 0:
                output = out.read_text()
                assert NON_FINITE.search(output) is None
                if command == "sweep":
                    assert len(output.splitlines()) == 1 + 3 * 3
                else:
                    grid = [ln for ln in output.splitlines() if not ln.startswith("#")]
                    assert [len(row) for row in grid] == [3, 3, 3]

    @pytest.mark.filterwarnings("ignore:eps_b \\+ kappa = 0")
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_config_keys_keep_the_contract(self, tmp_path_factory, data):
        # the system, its coupling form, the setup, the axes and the point
        # forces under drawn values: each command exits with a documented
        # code and one message line or none, and on success gives each cell
        # one row with a status and no nan or inf token
        keys = ["eps_b", "eps_u", *data.draw(st.sampled_from(COUPLINGS)), "setup"]
        keys += [key for key in CONTRACT_KEYS if key.startswith("F_")]
        values = {key: data.draw(st.sampled_from(CONTRACT_KEYS[key])) for key in keys}
        for key in data.draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
            bad = (BAD_STEPS if key.endswith("_steps") else ["bogus", "ICC"]
                   if key == "setup" else BAD_VALUES)
            values[key] = data.draw(st.sampled_from(bad))
        common = {"beta_r": BETA_R, "mu_r": MU_R, "mu_u": MU_U,
                  **{key: values[key] for key in keys if not key.startswith("F_")}}
        axes = {key: values[key] for key in keys if key[:4] in ("F_E_", "F_N_")}
        point = ({"beta_l": 1.5, "beta_u": 0.9, "mu_l": 0.2} if values["setup"] == "raw"
                 else {"F_E": values["F_E"], "F_N": values["F_N"]})
        tmp = tmp_path_factory.mktemp("keys")
        for command, extra in (("sweep", axes), ("classify-map", axes), ("solve", point)):
            cfg = write(tmp, f"{command}.cfg", with_values("", {**common, **extra}))
            out, err = tmp / f"{command}.out", io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", cfg, "--out", str(out)])
            assert code in (0, 2, 3, 4)
            if code != 0:
                assert err.getvalue().startswith(("config error: ", "precondition error: ",
                                                  "numerical error: "))
                assert err.getvalue().count("\n") == 1
                continue
            assert err.getvalue() == ""
            output = out.read_text()
            assert NON_FINITE.search(output) is None
            if command == "solve":
                assert parse_solve_output(output)["status"] in STATUS_WORDS.values()
                continue
            n_e, n_n = int(axes["F_E_steps"]), int(axes["F_N_steps"])
            if command == "sweep":
                rows = output.splitlines()[1:]
                assert len(rows) == n_e * n_n
                assert all(row.rsplit(",", 1)[1] in STATUS_WORDS.values() for row in rows)
            else:
                grid = [ln for ln in output.splitlines() if not ln.startswith("#")]
                assert [len(row) for row in grid] == [n_n] * n_e

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

    def test_tol_sign_value_reaches_the_classifier(self, tmp_path, capsys):
        # no current exceeds 1e300, so no current runs against its force
        configs = Path(__file__).resolve().parent.parent / "configs"
        point = str(configs / "pseudo_inverse_energy.cfg")
        for tol, regime in ((None, "PseudoIccEnergy"), ("1e300", "Normal")):
            args = ["solve", "--config", point] + (["--tol-sign", tol] if tol else [])
            assert main(args) == 0
            assert parse_solve_output(capsys.readouterr().out)["regime"] == regime
        text = (configs / "inverse_plane.cfg").read_text(encoding="utf-8")
        cfg = write(tmp_path, "plane.cfg", text.replace("_steps = 100", "_steps = 10"))
        grids = []
        for tol in (None, "1e300"):
            out = tmp_path / "map.txt"
            args = ["classify-map", "--config", cfg, "--out", str(out)]
            assert main(args + (["--tol-sign", tol] if tol else [])) == 0
            grids.append([ln for ln in out.read_text().splitlines()
                          if not ln.startswith("#")])
        assert set("".join(grids[0])) != {"."}
        assert grids[1] == ["." * 10] * 10

    def test_numerical_error_exits_4(self, tmp_path, capsys, monkeypatch):
        evaluate = engine.evaluate

        def nonfinite(*args, **kwargs):
            batch = evaluate(*args, **kwargs)
            return batch._replace(status=np.full_like(batch.status, engine.NONFINITE))

        monkeypatch.setattr(engine, "evaluate", nonfinite)
        cfg = write(tmp_path, "point.cfg", POINT_CONFIG)
        assert main(["solve", "--config", cfg]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numerical error: {engine.ERRORS[engine.NONFINITE][1]}\n"

    @pytest.mark.parametrize("command, text, message", [
        ("sweep", SWEEP_CONFIG.replace("F_N_steps = 5", ""),
         "missing required key(s): F_N_steps"),
        ("sweep", SWEEP_CONFIG + "eps_b 1.0\n", "line 16: expected 'key = value'"),
        ("sweep", SWEEP_CONFIG.replace("F_E_steps = 7", "F_E_steps = 7.5"),
         "F_E_steps needs an integer, got '7.5'"),
        ("sweep", SWEEP_CONFIG.replace("setup = icc", "setup = bogus"),
         "setup must be one of"),
        ("sweep", SWEEP_CONFIG + "kappa_c = 1.0\n", "pass either kappa or"),
        ("solve", RAW_CONFIG + "F_E = 0.5\n", "F_E is not accepted in the raw setup"),
        # the raw-only baths used to be ignored outside the raw setup, exit 0
        ("solve", POINT_CONFIG + "beta_l = 7.0\n", "beta_l is not accepted in the icc setup"),
        ("solve", THERMOELECTRIC_CONFIG + "mu_l = -3.0\n",
         "mu_l is not accepted in the thermoelectric setup"),
        ("sweep", SWEEP_CONFIG + "beta_u = 0.5\n", "beta_u is not accepted in the icc setup"),
        ("classify-map", SWEEP_CONFIG + "mu_l = -3.0\n", "mu_l is not accepted in the icc setup"),
        ("sweep", SWEEP_CONFIG.replace("F_E_steps = 7", "F_E_steps = 1"),
         "sweep axes need at least 2 steps each"),
        # an axis this long used to exit 1 with numpy's allocation error
        ("sweep", SWEEP_CONFIG.replace("F_N_steps = 5", "F_N_steps = 10000000000000"),
         "sweep axes take at most 1000000 steps each"),
        ("classify-map", SWEEP_CONFIG.replace("F_E_steps = 7", "F_E_steps = 10000000000000"),
         "sweep axes take at most 1000000 steps each"),
        # a span past the float range used to write inf and nan forces
        ("sweep", SWEEP_CONFIG.replace("F_N_min = 0.1", "F_N_min = -1e308")
         .replace("F_N_max = 1.9", "F_N_max = 1e308"), "sweep axes need a finite span"),
        ("classify-map", SWEEP_CONFIG.replace("F_E_min = 0.1", "F_E_min = 1e308")
         .replace("F_E_max = 1.9", "F_E_max = -1e308"), "sweep axes need a finite span"),
    ], ids=["missing-key", "no-equals", "non-integer-steps", "unknown-setup",
            "kappa-and-kappa_c", "F_E-in-raw", "beta_l-in-icc-solve",
            "mu_l-in-thermoelectric-solve", "beta_u-in-sweep", "mu_l-in-classify-map",
            "one-step", "sweep-10^13-steps",
            "map-10^13-steps", "sweep-span-past-the-float-range",
            "map-span-past-the-float-range"])
    def test_config_errors(self, tmp_path, capsys, command, text, message):
        cfg = write(tmp_path, "bad.cfg", text)
        out = tmp_path / "never.out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("values, message", [
        ({"beta_r": "0", "F_E": "-1.0"}, engine.ERRORS[engine.BAD_BATHS][1]),
        ({"beta_r": "0", "F_E": "nan"}, engine.ERRORS[engine.BAD_BATHS][1]),
        ({"beta_r": "4.0", "F_E": "4.0"},
         "force F_E=4.0 needs beta_r > 4.0 to keep beta_u positive"),
    ], ids=["zero-beta_r", "zero-beta_r-nan-force", "force-past-beta_r"])
    def test_thermoelectric_bad_baths_are_precondition_errors(self, tmp_path, capsys,
                                                              values, message):
        # at beta_r = 0, beta_u = beta_r - F_E passes its own check, and
        # mu_l = mu_r - F_N / beta_r divided by zero with a traceback
        cfg = write(tmp_path, "te.cfg", with_values(THERMOELECTRIC_CONFIG, values))
        assert main(["solve", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"precondition error: {message}\n"

    @pytest.mark.parametrize("text, keys", [
        (POINT_CONFIG, FORCE_KEYS), (THERMOELECTRIC_CONFIG, FORCE_KEYS),
        (RAW_CONFIG, RAW_KEYS)], ids=["icc", "thermoelectric", "raw"])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_solve_bath_values_keep_the_contract(self, tmp_path_factory, text, keys, data):
        # one point in each setup under extreme, zero, negative and
        # non-finite values: a documented exit code with one message line,
        # no escaping exception, and on success one finite `name = value`
        # line per column
        values = data.draw(st.fixed_dictionaries({k: st.sampled_from(BATH_VALUES) for k in keys}))
        tmp = tmp_path_factory.mktemp("solve")
        cfg = write(tmp, "point.cfg", with_values(text, values))
        out, err = tmp / "solve.out", io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["solve", "--config", cfg, "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code == 0:
            output = out.read_text()
            assert NON_FINITE.search(output) is None
            assert [ln.split(" = ")[0] for ln in output.splitlines()] == list(COLUMNS)
            assert err.getvalue() == ""
        else:
            assert not out.exists()
            assert err.getvalue().startswith(("config error: ", "precondition error: ",
                                              "numerical error: "))
            assert err.getvalue().count("\n") == 1

    @pytest.mark.parametrize("option, value, message", [
        ("--threads", "two", "argument --threads: invalid int value: 'two'"),
        ("--tol-sign", "abc", "argument --tol-sign: invalid float value: 'abc'"),
    ], ids=["threads", "tol-sign"])
    def test_option_of_the_wrong_type_rejected(self, tmp_path, capsys, option, value, message):
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CONFIG)
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--out", str(out), option, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()


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
