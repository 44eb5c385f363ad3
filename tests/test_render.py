"""The block renderer: every CSV cell is byte for byte ``"%.16e" % x``."""
import struct
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qdicc import config
from qdicc.cli import _block_batch
from qdicc.config import build_sweep_spec, build_system, parse_config_text, record_fields

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def cells(values) -> list[str]:
    """The renderer's cell of each value."""
    v = np.asarray(values, dtype=float).reshape(-1, 1)
    words = config._float_cells(v, np.zeros(v.shape, bool))
    return words.tobytes().translate(None, b"\0").decode().split(",")[:-1]


def block(name: str, steps: int):
    """record_fields' arguments for one block: a golden config at steps x steps."""
    text = (GOLDEN / f"{name}.cfg").read_text()
    for line in text.splitlines():
        if line.startswith(("F_E_steps", "F_N_steps")):
            text = text.replace(line, f"{line.split('=')[0]}= {steps}")
    cfg = parse_config_text(text)
    spec = build_sweep_spec(cfg)
    f_e, f_n = np.meshgrid(spec.f_e_values(), spec.f_n_values(), indexing="ij")
    return _block_batch((build_system(cfg), cfg, 1e-10, f_e.ravel(), f_n.ravel()))


def scaled_fraction(x: float) -> float:
    """The fraction of y = |x|·10^(16-E), E = floor(log10|x|), exactly."""
    y = abs(Fraction(x)) * Fraction(10) ** (16 - Decimal(x).adjusted())
    return float(y - y.numerator // y.denominator)


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def ties(j: int):
    """Odd multiples of 2^-j whose decimal expansion is 17 digits and a 5."""
    low, high = -(-10 ** 17 // 5 ** j), min(2 ** 53, 10 ** 18 // 5 ** j)
    return st.integers(low // 2, (high - 1) // 2).map(lambda m: (2 * m + 1) / 2 ** j)


# doubles whose scaled fraction lies within 0.012 of 1/2, found by exact
# arithmetic among seeded draws over |x| in about [1e-40, 1e40]: they reach
# the fallback window of both exact and rounded powers of ten
_rng = np.random.default_rng(16)
_draws = np.ldexp(_rng.integers(2 ** 52, 2 ** 53, 20_000).astype(float),
                  _rng.integers(-185, 81, 20_000)).tolist()
NEAR_TIES = [x for x in _draws if abs(scaled_fraction(x) - 0.5) < 0.012]


def on_the_fast_path(x: float) -> float:
    """The first of ``x`` and the 3 doubles above it whose 17 digits the
    renderer takes as exact; ``x`` where none is."""
    candidates = [x]
    for _ in range(3):
        candidates.append(float(np.nextafter(candidates[-1], np.inf)))
    return candidates[config._significands(np.array(candidates).reshape(-1, 1))[2].argmax()]


# one value of each sign at each exponent E = floor(log10|x|) of a finite
# double, on the fast path, its lead digit cycling through 1-9 where the
# float range allows; zero of each sign takes the fast path too
EVERY_EXPONENT = [sign * on_the_fast_path(float(
    f"{1 + e % 9 if config._E_MIN < e < config._E_MAX else 9 if e < 0 else 1}.5e{e}"))
    for e in config._EXPONENTS.tolist() for sign in (1.0, -1.0)] + [0.0, -0.0]

MAGNITUDES = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(from_bits),                     # any bit pattern
    st.sampled_from([0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                     1.7976931348623157e308, float("inf"), float("nan")]),
    st.integers(1, 2 ** 52 - 1).map(lambda m: m * 5e-324),           # subnormals
    st.integers(-323, 308).map(lambda k: float(f"1e{k}")),             # powers of ten
    st.integers(-323, 308).map(lambda k: float(np.nextafter(float(f"1e{k}"), 0.0))),
    st.integers(-300, 300).map(lambda k: float(f"9.99999999999999999e{k}")),  # 10^17 carry
    st.builds(lambda d, k: float(f"{d}5e{k}"),                         # 17 digits and a 5
              st.integers(10 ** 16, 10 ** 17 - 1), st.integers(-300, 290)),
    st.integers(2, 25).flatmap(ties),                                  # exact ties
    st.sampled_from(NEAR_TIES),
)
VALUES = st.builds(lambda x, negative: -x if negative else x, MAGNITUDES, st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.lists(VALUES, min_size=1, max_size=40))
def test_cells_equal_percent_format(values):
    assert cells(values) == ["%.16e" % x for x in values]


def test_cells_equal_percent_format_in_bulk():
    bits = np.random.default_rng(1).integers(0, 2 ** 64, 100_000, dtype=np.uint64)
    values = bits.view(np.float64).tolist() + NEAR_TIES + EVERY_EXPONENT
    assert cells(values) == ["%.16e" % x for x in values]
    # every exponent row and every lead word is read by a fast-path cell
    exact = config._significands(np.array(EVERY_EXPONENT).reshape(-1, 1))[2]
    if config._SLACK.max() < 0.5:  # long double is wider than double
        assert np.count_nonzero(exact) == len(EVERY_EXPONENT) - 2  # all but the zeros
    texts = ["%.16e" % x for x in EVERY_EXPONENT]
    assert len({t.split("e")[1] for t in texts}) == len(config._EXPONENTS)
    assert len({t.split(".")[0] for t in texts}) == 20


def test_near_ties_reach_the_percent_path():
    # the samples are aimed well: most near ties and every exact tie fall
    # inside the slack of 1/2 and take the % path
    exact = config._significands(np.array(NEAR_TIES).reshape(-1, 1))[2]
    assert np.count_nonzero(~exact) > len(NEAR_TIES) // 2
    ties = [(2 * m + 1) / 2 ** j for j in range(2, 26)
            for m in range(-(-10 ** 17 // 5 ** j) // 2, min(2 ** 53, 10 ** 18 // 5 ** j) // 2)[:50]]
    assert not config._significands(np.array(ties).reshape(-1, 1))[2].any()
    assert cells(ties) == ["%.16e" % x for x in ties]


def test_missed_first_guesses_take_the_percent_path():
    # decimal powers stored below their value: floor(log10|x|) is one too
    # high, so y = |x|·10^(16-E) falls short of 10^16; at 1e-243 and 1e-176
    # the 17 digits at the right exponent also round up to 10^17
    powers = [1e-7, 1e23, 1e-307, 1e-243, 1e-176]
    values = powers + [-x for x in powers]
    assert not config._significands(np.array(values).reshape(-1, 1))[2].any()
    assert cells(values) == ["%.16e" % x for x in values]


def test_percent_path_alone_gives_the_same_bytes(monkeypatch):
    # the slack a platform whose long double is a plain double derives:
    # every cell there takes the % path, and the bytes must not change
    slack = config._slack(np.finfo(np.float64))
    assert slack.min() >= 0.5
    args = block("census_12x12", 60)
    fast = b"".join(record_fields(*args))
    monkeypatch.setattr(config, "_SLACK", slack)
    significands, exact_cells = config._significands, []

    def spy(v):
        d, i, exact = significands(v)
        exact_cells.append(np.count_nonzero(exact))
        return d, i, exact

    monkeypatch.setattr(config, "_significands", spy)
    assert b"".join(record_fields(*args)) == fast
    assert exact_cells and not any(exact_cells)


def test_sub_blocks_join_seamlessly(monkeypatch):
    monkeypatch.setattr(config, "_SUB_BLOCK", 7)
    text = (GOLDEN / "inverse_plane_10x10.csv").read_bytes()
    chunks = record_fields(*block("inverse_plane_10x10", 10))
    assert len(chunks) == 15
    assert b"".join(chunks) == text.split(b"\n", 1)[1]


def test_record_fields_memory_is_bounded():
    # an all-ok 4096-point block: 2.3 MB of text.  In 512-row sub-blocks
    # whose chunks are never joined the peak is 3.4 MB, that text and one
    # sub-block's temporaries; one render of the whole block peaked at
    # 10.5 MB, and the per-row % template at 6.1 MB
    args = block("inverse_plane_10x10", 64)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        chunks = record_fields(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert sum(map(len, chunks)) > 2_000_000
    assert peak < 4_000_000
