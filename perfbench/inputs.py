"""Seeded workload inputs.  Standard library only: the same seed gives the
same inputs on every platform (``random.Random`` seeded with an int).

The program under test only ever sees what these functions produce: a
config file for ``plane_sweep``, force draws for ``tail_census`` and
(forces, initial population) pairs for ``relax``.
"""
from __future__ import annotations

import random

# system and right/upper leads of configs/inverse_plane.cfg, which is also
# the ROADMAP's Fermi-tail census point (kappa = -1.5, beta_r = mu_r = 1,
# mu_u = 3); copied so that editing the shipped config cannot move the yardstick
SYSTEM = {"eps_b": 1.0, "eps_u": 2.5, "kappa": -1.5}
LEADS = {"beta_r": 1.0, "mu_r": 1.0, "mu_u": 3.0, "gamma": 1.0}

# force window of inverse_plane.cfg: both inverse-current regions lie inside
# 50x50, so that one sweep command takes about a second: the fastest of many
# short commands is steadier on a shared host than the fastest of a few long ones
PLANE_LO, PLANE_HI, PLANE_STEPS = 0.02, 2.0, 50
PLANE_JITTER = 0.02  # about half a grid cell

# ROADMAP item-4 box, sampled one draw per cell of a CENSUS_N x CENSUS_N grid
CENSUS_F_E = (-0.99, 400.0)
CENSUS_F_N = (-2000.0, 2000.0)
CENSUS_N = 80

RELAX_DT = 1e-3
RELAX_T_END = 50.0    # 5e4 RK4 steps; the slowest mode in the window decays at ~0.8
RELAX_CHUNKS = 50     # evolve calls per trajectory, each continuing from the last
                      # sample of the one before: 1e3 steps, a short timed unit
RELAX_STRIDE = 10     # samples spaced h = 1e-2
RELAX_SPECS = 32      # used in turn, one per trajectory


def plane_sweep_config(seed: int) -> dict:
    """Sweep config of the inverse_plane window with jittered axis bounds."""
    rng = random.Random(seed)
    cfg = dict(SYSTEM, **LEADS, setup="icc")
    for axis in ("F_E", "F_N"):
        cfg[f"{axis}_min"] = PLANE_LO + rng.uniform(-PLANE_JITTER, PLANE_JITTER)
        cfg[f"{axis}_max"] = PLANE_HI + rng.uniform(-PLANE_JITTER, PLANE_JITTER)
        cfg[f"{axis}_steps"] = PLANE_STEPS
    return cfg


def config_text(cfg: dict) -> str:
    """``key = value`` lines; floats in repr form so they parse back exactly."""
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float)
                   else f"{key} = {value}\n" for key, value in cfg.items())


def census_draws(seed: int) -> list[tuple[float, float]]:
    """Stratified draws over the census box: one uniform point per grid cell.

    Stratifying keeps the mix of outcomes (ok, typed, untyped) nearly the
    same for every seed while still moving every point.
    """
    rng = random.Random(seed)
    (e_lo, e_hi), (n_lo, n_hi) = CENSUS_F_E, CENSUS_F_N
    de = (e_hi - e_lo) / CENSUS_N
    dn = (n_hi - n_lo) / CENSUS_N
    return [(e_lo + (i + rng.random()) * de, n_lo + (j + rng.random()) * dn)
            for i in range(CENSUS_N) for j in range(CENSUS_N)]


def relax_specs(seed: int) -> list[dict]:
    """(F_E, F_N, rho0) triples: forces in the plane window, interior rho0."""
    rng = random.Random(seed)
    specs = []
    for _ in range(RELAX_SPECS):
        weights = [rng.uniform(0.05, 1.0) for _ in range(4)]
        total = sum(weights)
        specs.append({
            "F_E": rng.uniform(PLANE_LO, PLANE_HI),
            "F_N": rng.uniform(PLANE_LO, PLANE_HI),
            "rho0": [w / total for w in weights],
        })
    return specs


def make(workload: str, seed: int) -> dict:
    """All inputs of one run, as JSON-serialisable data."""
    if workload == "plane_sweep":
        return {"config": plane_sweep_config(seed)}
    if workload == "tail_census":
        return {"system": SYSTEM, "leads": LEADS, "draws": census_draws(seed)}
    if workload == "relax":
        return {"system": SYSTEM, "leads": LEADS, "dt": RELAX_DT,
                "t_end": RELAX_T_END, "chunks": RELAX_CHUNKS, "stride": RELAX_STRIDE,
                "specs": relax_specs(seed)}
    raise ValueError(f"unknown workload {workload!r}")
