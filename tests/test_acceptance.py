"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Draw sets are seeded and therefore reproducible.
"""
import functools
import time

import numpy as np
import pytest

from qdicc import (SystemParams, analyze_point, conservation_report,
                   currents, cycle_flux_closed_form,
                   entropy_production_macro, entropy_production_micro,
                   evolve, forces_macro, forces_micro, generator,
                   icc_reduction, invert_forces, pq_ratio, rate_constants,
                   schnakenberg_terms, steady_state, Regime)
from qdicc.cli import main as cli_main

from conftest import BETA_R, EPS_B, EPS_U, MU_R, MU_U, make_baths

SEED = 20260809
N_DRAWS = 1000
GAMMA_SQ = 1.0  # all acceptance draws use the unit tunneling rate

# forces grid realizing the regime-structure reproductions
FIG_GRID = np.linspace(0.02, 2.0, 100)

SWEEP_CONFIG = f"""
eps_b = {EPS_B}
eps_u = {EPS_U}
kappa = -1.5
beta_r = {BETA_R}
mu_r = {MU_R}
mu_u = {MU_U}
gamma = 1.0
setup = icc
F_E_min = 0.02
F_E_max = 2.0
F_E_steps = 100
F_N_min = 0.02
F_N_max = 2.0
F_N_steps = 100
"""


def criterion(num, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} {label}: FAIL")
                raise
            print(f"ACCEPTANCE {num:02d} {label}: PASS")
        return wrapper
    return decorate


def draw_config(rng):
    eps_b = rng.uniform(0.0, 3.0)
    while eps_b <= 0.0:
        eps_b = rng.uniform(0.0, 3.0)
    eps_u = rng.uniform(eps_b, 5.0)
    kappa = rng.uniform(-3.0, 3.0)
    while kappa == 0.0:
        kappa = rng.uniform(-3.0, 3.0)
    sys = SystemParams(eps_b=eps_b, eps_u=eps_u, kappa=kappa)
    betas = rng.uniform(0.1, 5.0, 3)
    mus = rng.uniform(-3.0, 3.0, 3)
    baths = make_baths(*betas, *mus)
    return sys, baths


@pytest.fixture(scope="module", autouse=True)
def warm_up():
    # run each code path once so that first-call costs (imports, numpy
    # dispatch set-up) stay out of the timed sections below
    sys = SystemParams(eps_b=1.0, eps_u=2.5, kappa=-1.5)
    baths = icc_reduction(1.2, 1.0, 0.3, 1.0, 3.0)
    analyze_point(sys, baths)
    w = generator(rate_constants(sys, baths))
    evolve(np.full(4, 0.25), w, dt=1e-3, t_end=0.01)


@pytest.fixture(scope="module")
def bulk(warm_up):
    """The shared 1000-configuration random draw set with derived data."""
    rng = np.random.default_rng(SEED)
    rows = []
    start = time.perf_counter()
    for _ in range(N_DRAWS):
        sys, baths = draw_config(rng)
        rc = rate_constants(sys, baths)
        ss = steady_state(generator(rc))
        cs = currents(rc, ss, sys, baths)
        rep = conservation_report(cs)
        fs_macro = forces_macro(baths)
        fs_micro = forces_micro(rc, sys)
        macro = entropy_production_macro(cs, baths, fs_macro)
        micro = entropy_production_micro(rc, ss.rho)
        terms = schnakenberg_terms(rc, ss.rho)
        closed = cycle_flux_closed_form(sys, baths)
        rows.append({
            "res_je": rep.sum_j_e, "res_jn": rep.sum_j_n, "jnu": rep.j_n_u,
            "sigma_macro": macro.sigma_dot_macro, "sigma_micro": micro.sigma_dot,
            "term_min": terms.min(),
            "df_eu": fs_micro.f_e_u - fs_macro.f_e_u,
            "df_er": fs_micro.f_e_r - fs_macro.f_e_r,
            "df_nr": fs_micro.f_n_r - fs_macro.f_n_r,
            "gamma_solve": ss.gamma_cw, "gamma_closed": closed,
        })
    elapsed = time.perf_counter() - start
    return rows, elapsed


@pytest.fixture(scope="module")
def regime_sweep(warm_up):
    """Single-threaded regime classification over the level-swapped grid."""
    sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=-1.5)
    cells = []
    start = time.perf_counter()
    for f_e in FIG_GRID:
        for f_n in FIG_GRID:
            beta, mu_l = invert_forces(f_e, f_n, BETA_R, MU_R)
            baths = icc_reduction(beta, BETA_R, mu_l, MU_R, MU_U)
            cells.append((f_e, f_n, analyze_point(sys, baths), baths))
    elapsed = time.perf_counter() - start
    return cells, elapsed


@criterion(1, "conservation laws on random draws")
def test_conservation(bulk):
    rows, elapsed = bulk
    assert len(rows) >= 1000
    for key in ("res_je", "res_jn", "jnu"):
        worst = max(abs(r[key]) for r in rows)
        assert worst < 1e-12 * GAMMA_SQ, f"{key} residual {worst:.3e}"
    assert elapsed < 5.0, f"draw pipeline took {elapsed:.2f}s"


@criterion(2, "second law and summand positivity")
def test_second_law(bulk):
    rows, _ = bulk
    assert min(r["sigma_micro"] for r in rows) >= -1e-12
    assert min(r["sigma_macro"] for r in rows) >= -1e-12
    assert min(r["term_min"] for r in rows) >= -1e-14


@criterion(3, "macroscopic vs microscopic equivalence")
def test_macro_micro_equivalence(bulk):
    rows, _ = bulk
    worst_sigma = max(abs(r["sigma_macro"] - r["sigma_micro"]) for r in rows)
    assert worst_sigma < 1e-10, f"entropy-rate gap {worst_sigma:.3e}"
    for key in ("df_eu", "df_er", "df_nr"):
        worst = max(abs(r[key]) for r in rows)
        assert worst < 1e-10, f"force gap {key} {worst:.3e}"


@criterion(4, "closed-form and integrator oracles")
def test_oracle_agreement(bulk):
    rows, _ = bulk
    for r in rows:
        a, b = r["gamma_solve"], r["gamma_closed"]
        scale = max(abs(a), abs(b))
        if scale > 1e-4 * GAMMA_SQ:
            assert abs(a - b) / scale < 1e-10
        else:
            # exponentially suppressed cycle: both paths must agree on a
            # numerical zero (relative error is meaningless at roundoff)
            assert abs(a - b) < 1e-13

    sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=-1.5)
    beta, mu_l = invert_forces(0.7, 1.1, BETA_R, MU_R)
    baths = icc_reduction(beta, BETA_R, mu_l, MU_R, MU_U)
    w = generator(rate_constants(sys, baths))
    target = steady_state(w).rho.values
    traj = evolve(np.full(4, 0.25), w, dt=1e-3, t_end=1e3, sample_stride=10000)
    assert np.abs(traj.populations[-1] - target).max() < 1e-8


@criterion(5, "zero forces produce zero currents")
def test_zero_force_zero_current():
    sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=-1.5)
    beta, mu_l = invert_forces(0.0, 0.0, BETA_R, MU_R)
    baths = icc_reduction(beta, BETA_R, mu_l, MU_R, MU_U)
    pt = analyze_point(sys, baths)
    for value in (*pt.currents.j_e, *pt.currents.j_n, *pt.currents.j_q):
        assert abs(value) < 1e-12
    assert pt.regime is Regime.EQUILIBRIUM


@criterion(6, "single-force sign structure of both couplings")
def test_single_force_sign_structure(warm_up):
    grid = np.linspace(0.01, 3.0, 300)

    def line(kappa, f_e_of, f_n_of):
        sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=kappa)
        je, jn = [], []
        for f in grid:
            beta, mu_l = invert_forces(f_e_of(f), f_n_of(f), BETA_R, MU_R)
            baths = icc_reduction(beta, BETA_R, mu_l, MU_R, MU_U)
            pt = analyze_point(sys, baths)
            je.append(pt.currents.j_e_r)
            jn.append(pt.currents.j_n_r)
        return np.array(je), np.array(jn)

    start = time.perf_counter()
    # particle force alone
    je, jn = line(-1.5, lambda f: 0.0, lambda f: f)
    assert (je < -1e-10).any(), "no inverse energy response on the F_N axis"
    assert (jn > 0).all()
    je, jn = line(+1.5, lambda f: 0.0, lambda f: f)
    assert (je > 0).all()
    # energy force alone
    je, jn = line(-1.5, lambda f: f, lambda f: 0.0)
    assert (jn < -1e-10).any(), "no inverse particle response on the F_E axis"
    assert (je > 0).all()
    je, jn = line(+1.5, lambda f: f, lambda f: 0.0)
    assert (jn > 0).all()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"sign-structure scan took {elapsed:.2f}s"


@criterion(7, "inverse-current regions exist and stay disjoint")
def test_inverse_regions(regime_sweep):
    cells, elapsed = regime_sweep
    assert len(cells) == 100 * 100
    energy_cells = [c for c in cells if c[2].regime is Regime.ICC_ENERGY]
    particle_cells = [c for c in cells if c[2].regime is Regime.ICC_PARTICLE]
    assert energy_cells, "no inverse-energy cells found"
    assert particle_cells, "no inverse-particle cells found"
    # classification is exclusive by construction; verify the raw signs too
    for _, _, pt, _ in cells:
        assert not (pt.currents.j_e_r < -1e-10 and pt.currents.j_n_r < -1e-10)
    for _, _, pt, _ in energy_cells + particle_cells:
        assert pt.sigma_macro > 0
    assert elapsed < 30.0, f"regime sweep took {elapsed:.2f}s"


@criterion(8, "repulsive coupling kills every inverse region")
def test_repulsive_coupling_has_no_inverse_cells(warm_up):
    sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=+1.5)
    banned = {Regime.ICC_ENERGY, Regime.ICC_PARTICLE,
              Regime.PSEUDO_ICC_ENERGY, Regime.PSEUDO_ICC_PARTICLE}
    for f_e in FIG_GRID:
        for f_n in FIG_GRID:
            beta, mu_l = invert_forces(f_e, f_n, BETA_R, MU_R)
            baths = icc_reduction(beta, BETA_R, mu_l, MU_R, MU_U)
            pt = analyze_point(sys, baths)
            assert pt.regime not in banned


@criterion(9, "cycle-direction predictor matches the solver")
def test_cycle_predictor_sign_rule(warm_up):
    rng = np.random.default_rng(SEED + 1)
    strict = 0
    for _ in range(N_DRAWS):
        eps_b = rng.uniform(0.0, 3.0)
        while eps_b <= 0.0:
            eps_b = rng.uniform(0.0, 3.0)
        eps_u = rng.uniform(eps_b, 5.0)
        kappa = rng.uniform(-3.0, 3.0)
        sys = SystemParams(eps_b=eps_b, eps_u=eps_u, kappa=kappa)
        beta = rng.uniform(0.1, 5.0)
        beta_r = rng.uniform(0.1, 5.0)
        mu_l, mu_r, mu_u = rng.uniform(-3.0, 3.0, 3)
        baths = icc_reduction(beta, beta_r, mu_l, mu_r, mu_u)
        rc = rate_constants(sys, baths)
        pq = pq_ratio(rc)
        gamma_cw = steady_state(generator(rc)).gamma_cw
        if abs(pq - 1.0) <= 1e-10:
            assert abs(gamma_cw) < 1e-12
        elif abs(gamma_cw) > 1e-13 * GAMMA_SQ:
            # the cycle runs clockwise exactly when the predictor exceeds one
            assert np.sign(gamma_cw) == np.sign(pq - 1.0)
            strict += 1
        # remaining draws: flux below the roundoff floor, sign undefined
    assert strict > 0.9 * N_DRAWS


@criterion(10, "performance figures respect their ideal bounds")
def test_performance_bounds(regime_sweep):
    cells, _ = regime_sweep
    checked_cop = checked_eta = 0
    for f_e, f_n, pt, baths in cells:
        sigma = (pt.currents.j_e_r * pt.forces.f_e_r
                 + pt.currents.j_n_r * pt.forces.f_n_r)
        if pt.regime is Regime.ICC_ENERGY:
            zeta = pt.cop
            zeta_r = baths.r.beta / (baths.l.beta - baths.r.beta)
            assert zeta is not None and 0 < zeta <= zeta_r
            drive = pt.currents.j_n_r * pt.forces.f_n_r
            assert abs(zeta - zeta_r * (1 - sigma / drive)) < 1e-10
            checked_cop += 1
        elif pt.regime is Regime.ICC_PARTICLE:
            eta = pt.efficiency
            eta_c = 1.0 - baths.r.beta / baths.l.beta
            assert eta is not None and 0 < eta <= eta_c
            gap = sigma / (baths.l.beta * pt.currents.j_e_r)
            assert abs((eta_c - eta) - gap) < 1e-10
            checked_eta += 1
    assert checked_cop and checked_eta


@criterion(11, "inverse regions carry the predicted channel asymmetries")
def test_channel_asymmetry_structure(regime_sweep):
    cells, _ = regime_sweep
    for _, _, pt, _ in cells:
        if pt.regime is Regime.ICC_ENERGY:
            assert pt.m > 1 and pt.n > 1
        elif pt.regime is Regime.ICC_PARTICLE:
            assert pt.m > 1 and pt.n < 1


@criterion(12, "sweep output is byte-deterministic")
def test_sweep_determinism(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG, encoding="utf-8")
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(first)]) == 0
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text().splitlines()[0]
    assert header.startswith("F_E,F_N,beta,mu_l,J_E_l")
