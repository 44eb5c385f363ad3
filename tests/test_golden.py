"""Golden outputs: the CLI's bytes, frozen.

``tests/data/golden`` holds the sweep CSV of two grids and the ``solve``
output (stdout, stderr and exit code) of the four shipped configs.  Beside
them, ``recorded.json`` names the numpy version and the SIMD extensions
numpy found on the machine that recorded them: numpy picks its exp/log
kernels by CPU feature, so a last-bit mismatch on another machine can be
traced to them.

On a mismatch the message names each differing cell and its distance in
units in the last place (ulp).  After a deliberate change, re-record with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from qdicc.cli import main
from qdicc.config import COLUMNS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
SWEEPS = ("census_12x12", "inverse_plane_10x10")
SOLVES = ("equilibrium", "inverse_plane", "pseudo_inverse_energy",
          "thermoelectric_refrigerator")


def _ordered(value: float) -> int:
    """The bits of a double as an integer that counts ulps across zero."""
    bits = struct.unpack("<q", struct.pack("<d", value))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def differences(expected: bytes, actual: bytes) -> list[str]:
    """Each differing cell of two outputs, named by line and column, with
    its distance in ulps where both cells are numbers."""
    exp_lines = expected.decode().split("\n")
    act_lines = actual.decode().split("\n")
    found = []
    if len(exp_lines) != len(act_lines):
        found.append(f"{len(act_lines)} lines, expected {len(exp_lines)}")
    for lineno, (exp_line, act_line) in enumerate(zip(exp_lines, act_lines), start=1):
        exp_cells, act_cells = exp_line.split(","), act_line.split(",")
        if len(exp_cells) != len(act_cells):
            found.append(f"line {lineno}: {len(act_cells)} cells, expected {len(exp_cells)}")
            continue
        csv_row = len(exp_cells) == len(COLUMNS)
        for col, (exp, act) in enumerate(zip(exp_cells, act_cells)):
            if exp == act:
                continue
            name = COLUMNS[col] if csv_row else f"cell {col + 1}"
            if " = " in exp:  # a solve line: "name = value"
                name, _, exp = exp.partition(" = ")
                act = act.partition(" = ")[2]
            try:
                distance = f" ({abs(_ordered(float(exp)) - _ordered(float(act)))} ulp)"
            except ValueError:
                distance = ""
            found.append(f"line {lineno}, {name}: expected {exp!r}, got {act!r}{distance}")
    return found or ["bytes differ outside the cells"]


def assert_same(expected: bytes, actual: bytes) -> None:
    if actual != expected:
        found = differences(expected, actual)
        more = [f"... and {len(found) - 40} more"] if len(found) > 40 else []
        pytest.fail("\n".join(found[:40] + more), pytrace=False)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_bytes(name, threads, tmp_path, capsysbinary):
    cfg = str(GOLDEN / f"{name}.cfg")
    expected = (GOLDEN / f"{name}.csv").read_bytes()
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
    assert_same(expected, out.read_bytes())
    assert main(["sweep", "--config", cfg, "--threads", threads]) == 0
    assert_same(expected, capsysbinary.readouterr().out)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", SOLVES)
def test_solve_bytes(name, threads, capsysbinary):
    code = main(["solve", "--config", str(ROOT / "configs" / f"{name}.cfg"),
                 "--threads", threads])
    out, err = capsysbinary.readouterr()
    recorded = json.loads((GOLDEN / "recorded.json").read_text())
    assert code == recorded["solve_exit_codes"][name]
    assert_same((GOLDEN / f"solve_{name}.stdout").read_bytes(), out)
    assert_same((GOLDEN / f"solve_{name}.stderr").read_bytes(), err)


@pytest.mark.parametrize("command, name", [("sweep", "census_12x12"),
                                           ("solve", "equilibrium")])
def test_text_only_stdout_gets_the_same_text(command, name):
    # an in-process caller may redirect stdout to a stream with no buffer
    if command == "sweep":
        cfg, golden = GOLDEN / f"{name}.cfg", GOLDEN / f"{name}.csv"
    else:
        cfg, golden = ROOT / "configs" / f"{name}.cfg", GOLDEN / f"solve_{name}.stdout"
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main([command, "--config", str(cfg)]) == 0
    assert_same(golden.read_bytes(), text.getvalue().encode())


def test_differences_name_cells_and_ulps():
    row = ["1.0000000000000000e+00"] * (len(COLUMNS) - 1) + ["ok"]
    moved = list(row)
    moved[2] = "1.0000000000000002e+00"
    found = differences(",".join(row).encode(), ",".join(moved).encode())
    assert found == ["line 1, beta: expected '1.0000000000000000e+00', "
                     "got '1.0000000000000002e+00' (1 ulp)"]
    found = differences(b"J_E_r = -1.0000000000000000e-300\n",
                        b"J_E_r = 1.0000000000000000e-300\n")
    assert found[0].startswith("line 1, J_E_r:")


def record() -> None:
    """Re-record every golden file from the CLI in a fresh interpreter."""
    import numpy

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "qdicc", *args], cwd=ROOT, env=env,
                              capture_output=True, check=False)

    for name in SWEEPS:
        run = cli("sweep", "--config", str(GOLDEN / f"{name}.cfg"))
        assert run.returncode == 0, run.stderr
        (GOLDEN / f"{name}.csv").write_bytes(run.stdout)
    codes = {}
    for name in SOLVES:
        run = cli("solve", "--config", str(ROOT / "configs" / f"{name}.cfg"))
        (GOLDEN / f"solve_{name}.stdout").write_bytes(run.stdout)
        (GOLDEN / f"solve_{name}.stderr").write_bytes(run.stderr)
        codes[name] = run.returncode
    recorded = {"numpy": numpy.__version__, "python": sys.version.split()[0],
                "simd": numpy.show_config(mode="dicts")["SIMD Extensions"],
                "solve_exit_codes": codes}
    (GOLDEN / "recorded.json").write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    record()
