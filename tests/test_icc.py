"""Reductions, force inversion, cycle predictor, classification, figures of merit."""
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdicc import (CurrentSet, ForceSet, PreconditionError, QdiccError, Regime,
                   SecondLawViolationError, analyze_point, carnot_efficiency, config, engine,
                   classify, cop, cop_ideal, efficiency, forces_macro,
                   generator, icc_reduction, invert_forces, mn_factors,
                   pq_ratio, rate_constants, steady_state, SystemParams,
                   thermoelectric_reduction, xy_variables)

from conftest import (BETA_R, EPS_B, EPS_U, MU_R, MU_U, equal_baths, random_baths,
                      random_system)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def reduced_point(sys, f_e, f_n, beta_r=BETA_R, mu_r=MU_R, mu_u=MU_U,
                  tol_sign=1e-10):
    beta, mu_l = invert_forces(f_e, f_n, beta_r, mu_r)
    baths = icc_reduction(beta, beta_r, mu_l, mu_r, mu_u)
    return analyze_point(sys, baths, tol_sign=tol_sign)


def random_reduced(rng):
    sys = random_system(rng)
    beta = rng.uniform(0.1, 5.0)
    beta_r = rng.uniform(0.1, 5.0)
    baths = icc_reduction(beta, beta_r, rng.uniform(-3, 3), rng.uniform(-3, 3),
                          rng.uniform(-3, 3))
    return sys, baths


class TestReductions:
    def test_icc_reduction_kills_upper_energy_bias(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            baths = icc_reduction(rng.uniform(0.1, 5), rng.uniform(0.1, 5),
                                  rng.uniform(-3, 3), rng.uniform(-3, 3),
                                  rng.uniform(-3, 3))
            assert forces_macro(baths).f_e_u == 0.0

    def test_thermoelectric_reduction_kills_right_energy_bias(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            baths = thermoelectric_reduction(rng.uniform(0.1, 5), rng.uniform(0.1, 5),
                                             rng.uniform(-3, 3), rng.uniform(-3, 3),
                                             rng.uniform(-3, 3))
            assert forces_macro(baths).f_e_r == 0.0

    def test_two_force_entropy_decomposition(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            sys, baths = random_reduced(rng)
            pt = analyze_point(sys, baths)
            fs = pt.forces
            two_force = pt.currents.j_e_r * fs.f_e_r + pt.currents.j_n_r * fs.f_n_r
            assert pt.sigma_macro == pytest.approx(two_force, abs=1e-12)

    def test_reduction_is_read_off_the_forces(self):
        # deep in the Fermi tail a lead-l rate is subnormal (4.6e-320), so
        # the lead-l cycle ratio c_l rounds to 0.99989; beta_l = beta_u still
        # makes f_e_u exactly zero, and the forces decide reduction
        pt = analyze_point(SystemParams(1.0, 2.5, -1.5),
                           icc_reduction(43.0, 23.0, 16.6, 2.8, 1.2))
        assert pt.forces.f_e_u == 0.0
        assert pt.regime is Regime.NORMAL
        assert pt.pq == pytest.approx(1.07e13, rel=1e-2)

    def test_refrigerator_cross_effect_in_thermoelectric_setup(self):
        # particle bias pumping energy against the thermal force
        sys = SystemParams(eps_b=1.0, eps_u=2.5, kappa=-0.2)
        baths = thermoelectric_reduction(beta=4.0, beta_u=0.6, mu_l=2.8,
                                         mu_r=-1.5, mu_u=2.7)
        pt = analyze_point(sys, baths)
        assert pt.currents.j_e_u * pt.forces.f_e_u < -1e-6
        assert pt.sigma_macro >= -1e-12

    def test_no_particle_engine_without_channel_asymmetry(self):
        # with beta_l = beta_r the two bottom-dot channel asymmetries
        # coincide (m = n), which ties the particle current to its own
        # force: the particle-engine cross effect cannot occur in this
        # model, whatever the upper lead does
        rng = np.random.default_rng(99)
        for _ in range(300):
            sys = random_system(rng)
            baths = thermoelectric_reduction(
                beta=rng.uniform(0.3, 4.0), beta_u=rng.uniform(0.1, 6.0),
                mu_l=rng.uniform(-3, 3), mu_r=rng.uniform(-3, 3),
                mu_u=rng.uniform(-3, 3))
            pt = analyze_point(sys, baths)
            assert pt.currents.j_n_r * pt.forces.f_n_r >= -1e-13


class TestInvertForces:
    def test_equilibrium_point(self):
        assert invert_forces(0.0, 0.0, 1.0, 1.0) == (1.0, 1.0)

    def test_direct_substitution(self):
        beta, mu_l = invert_forces(0.5, 0.5, 1.0, 1.0)
        assert beta == pytest.approx(1.5, abs=1e-15)
        assert mu_l == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_round_trip_grid(self):
        for f_e in np.linspace(0.0, 3.0, 7):
            for f_n in np.linspace(-2.0, 3.0, 7):
                beta, mu_l = invert_forces(f_e, f_n, BETA_R, MU_R)
                fs = forces_macro(icc_reduction(beta, BETA_R, mu_l, MU_R, MU_U))
                assert fs.f_e_u == 0.0
                assert fs.f_e_r == pytest.approx(f_e, abs=1e-14)
                assert fs.f_n_r == pytest.approx(f_n, abs=1e-14)
        # the shipped axes, against the rounding bound of the two formulas
        # (u = 2^-53): f_e = (beta_r + F_E) - beta_r rounds twice, f_n =
        # c - beta (c - F_N) / beta four times, c = beta_r mu_r shared; the
        # largest misses here are 0.71 and 1.42 of these bounds
        cfg = config.load_config(str(CONFIGS / "inverse_plane.cfg"))
        spec = config.build_sweep_spec(cfg)
        f_e, f_n = (v.ravel() for v in np.meshgrid(spec.f_e_values(), spec.f_n_values(),
                                                    indexing="ij"))
        (betas, mus, _gammas), _, _, beta, _mu_l = config.point_baths(cfg, f_e, f_n)
        realized = engine.forces(np.array(np.broadcast_arrays(*betas)),
                                 np.array(np.broadcast_arrays(*mus)))
        u = 2.0 ** -53
        c = abs(cfg["beta_r"] * cfg["mu_r"])
        assert np.all(realized[0] == 0.0)
        assert np.all(np.abs(realized[1] - f_e) <= u * (beta + np.abs(realized[1])))
        assert np.all(np.abs(realized[2] - f_n) <= 4 * u * (c + np.abs(f_n)))

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            invert_forces(-1.5, 0.0, 1.0, 1.0)


class TestXYVariables:
    def test_identical_leads_give_zero(self):
        rng = np.random.default_rng(39)
        sys = random_system(rng)
        baths = equal_baths(1.2, 0.7)
        rc = rate_constants(sys, baths)
        ss = steady_state(generator(rc))
        x, y = xy_variables(rc, ss)
        assert abs(x) < 1e-14
        assert abs(y) < 1e-14

    def test_sign_correspondence_with_mn(self):
        rng = np.random.default_rng(49)
        for _ in range(100):
            sys, baths = random_reduced(rng)
            rc = rate_constants(sys, baths)
            ss = steady_state(generator(rc))
            x, y = xy_variables(rc, ss)
            mn = mn_factors(rc)
            if abs(mn.m - 1) > 1e-9 and abs(x) > 1e-13:
                assert (mn.m > 1) == (x > 0)
            if abs(mn.n - 1) > 1e-9 and abs(y) > 1e-13:
                assert (mn.n > 1) == (y > 0)

    def test_particle_current_identity(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            sys, baths = random_reduced(rng)
            pt = analyze_point(sys, baths)
            assert pt.currents.j_n_r == pytest.approx(0.5 * (pt.x + pt.y), abs=1e-12)


class TestPqRatio:
    def test_identical_leads_stall_the_cycle(self):
        rng = np.random.default_rng(69)
        sys = random_system(rng)
        beta, mu = 1.4, 0.3
        baths = icc_reduction(beta, beta, mu, mu, -1.0)
        rc = rate_constants(sys, baths)
        assert pq_ratio(rc) == pytest.approx(1.0, abs=1e-14)
        assert abs(steady_state(generator(rc)).gamma_cw) < 1e-14

    def test_sign_rule_against_solver(self):
        rng = np.random.default_rng(79)
        strict = 0
        for _ in range(300):
            sys, baths = random_reduced(rng)
            rc = rate_constants(sys, baths)
            pq = pq_ratio(rc)
            gamma_cw = steady_state(generator(rc)).gamma_cw
            if abs(pq - 1.0) > 1e-10 and abs(gamma_cw) > 1e-13:
                assert np.sign(gamma_cw) == np.sign(pq - 1.0)
                strict += 1
            elif abs(pq - 1.0) <= 1e-10:
                assert abs(gamma_cw) < 1e-12
        assert strict > 250

    def test_attractive_forward_bias_runs_clockwise(self):
        # level-swapped coupling with a positive thermal force and m > 1
        sys = SystemParams(eps_b=1.0, eps_u=2.5, kappa=-1.5)
        baths = icc_reduction(1.5, 1.0, 0.0, 1.0, 1.0)
        rc = rate_constants(sys, baths)
        mn = mn_factors(rc)
        assert forces_macro(baths).f_e_r > 0
        assert mn.m > 1
        pq = pq_ratio(rc)
        gamma_cw = steady_state(generator(rc)).gamma_cw
        assert pq > 1
        assert gamma_cw > 0

    def test_unreduced_configuration_rejected(self):
        rng = np.random.default_rng(89)
        sys = random_system(rng)
        baths = random_baths(rng)  # beta_l != beta_u almost surely
        with pytest.raises(PreconditionError):
            pq_ratio(rate_constants(sys, baths))


@pytest.mark.filterwarnings("ignore:eps_b \\+ kappa = 0")
@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(-1.5), st.floats(-3.0, 3.0)),
       st.one_of(st.just(0.0), st.floats(-0.9, 3.0)), st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
       st.floats(1.0, 5.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_scalar_figures_are_the_engine_figures_on_reduced_baths(kappa, f_e_ratio, f_n, beta_r,
                                                                mu_r, mu_u):
    # cop and efficiency read the regime table as the engine does: they
    # equal analyze_point's figures wherever it succeeds, and never raise,
    # also on the F_E = 0 and F_N = 0 lines drawn on purpose, where J_E^r
    # or f_n_r is zero; F_E is f_e_ratio * beta_r, so beta stays positive
    beta, mu_l = invert_forces(f_e_ratio * beta_r, f_n, beta_r, mu_r)
    baths = icc_reduction(beta, beta_r, mu_l, mu_r, mu_u)
    try:
        pt = analyze_point(SystemParams(EPS_B, EPS_U, kappa), baths)
    except (QdiccError, ValueError):  # a failing gate; ValueError is MN_RANGE's
        return
    assert cop(pt.currents, baths, pt.forces) == pt.cop
    assert efficiency(pt.currents, baths, pt.forces) == pt.efficiency
    if f_e_ratio == f_n == 0.0:
        assert pt.cop is None and pt.efficiency is None


def _forces(f_e, f_n):
    return ForceSet(f_e_u=0.0, f_e_r=f_e, f_n_r=f_n)


def _currents(j_e, j_n):
    return CurrentSet(j_e=np.array([0.0, j_e, 0.0]),
                      j_n=np.array([-j_n, j_n, 0.0]),
                      j_q=np.zeros(3))


class TestClassify:
    def test_equilibrium(self):
        assert classify(_forces(0, 0), _currents(0, 0)) is Regime.EQUILIBRIUM

    def test_equilibrium_with_currents_is_an_error(self):
        with pytest.raises(Exception, match="zero forces"):
            classify(_forces(0, 0), _currents(1e-3, 0))

    def test_parallel_quadrants(self):
        assert classify(_forces(1, 1), _currents(-1e-3, 1e-3)) is Regime.ICC_ENERGY
        assert classify(_forces(1, 1), _currents(1e-3, -1e-3)) is Regime.ICC_PARTICLE
        assert classify(_forces(-1, -1), _currents(1e-3, -1e-3)) is Regime.ICC_ENERGY
        assert classify(_forces(-1, -1), _currents(-1e-3, 1e-3)) is Regime.ICC_PARTICLE
        assert classify(_forces(1, 1), _currents(1e-3, 1e-3)) is Regime.NORMAL

    def test_double_inversion_is_a_hard_error(self):
        with pytest.raises(SecondLawViolationError):
            classify(_forces(1, 1), _currents(-1e-3, -1e-3))

    def test_pseudo_regimes(self):
        assert classify(_forces(0, 1), _currents(-1e-3, 1e-3)) is Regime.PSEUDO_ICC_ENERGY
        assert classify(_forces(1, 0), _currents(1e-3, -1e-3)) is Regime.PSEUDO_ICC_PARTICLE
        assert classify(_forces(0, -1), _currents(1e-3, -1e-3)) is Regime.PSEUDO_ICC_ENERGY
        assert classify(_forces(0, 1), _currents(1e-3, 1e-3)) is Regime.NORMAL

    def test_pseudo_conjugate_inversion_is_a_hard_error(self):
        with pytest.raises(SecondLawViolationError):
            classify(_forces(0, 1), _currents(0, -1e-3))

    def test_cross_effects(self):
        # the current opposing its conjugate force must be outweighed by the
        # partner term, so the partner current runs with its own force
        assert classify(_forces(1, -1), _currents(-1e-3, -2e-3)) is Regime.CROSS_EFFECT_ENERGY
        assert classify(_forces(-1, 1), _currents(-2e-3, -1e-3)) is Regime.CROSS_EFFECT_PARTICLE
        assert classify(_forces(1, -1), _currents(1e-3, -1e-3)) is Regime.NORMAL

    def test_double_cross_is_a_hard_error(self):
        with pytest.raises(SecondLawViolationError):
            classify(_forces(1, -1), _currents(-1e-3, 1e-3))

    def test_tolerance_window(self):
        assert classify(_forces(1, 1), _currents(-1e-12, 1e-3),
                        tol_sign=1e-10) is Regime.NORMAL


class TestRegimeStructure:
    def test_level_swap_is_necessary(self, repulsive_system):
        # repulsive coupling: no inverse or pseudo-inverse cells anywhere
        for f_e in np.linspace(0.05, 2.0, 12):
            for f_n in np.linspace(0.05, 2.0, 12):
                pt = reduced_point(repulsive_system, f_e, f_n)
                assert pt.regime in (Regime.NORMAL, Regime.EQUILIBRIUM)

    def test_inverse_regions_exist_when_levels_swap(self, attractive_system):
        regimes = set()
        for f_e in np.linspace(0.05, 2.0, 25):
            for f_n in np.linspace(0.05, 2.0, 25):
                regimes.add(reduced_point(attractive_system, f_e, f_n).regime)
        assert Regime.ICC_ENERGY in regimes
        assert Regime.ICC_PARTICLE in regimes

    def test_single_force_positivity_guards(self, attractive_system,
                                            repulsive_system):
        for sys in (attractive_system, repulsive_system):
            for f in np.linspace(0.02, 3.0, 40):
                pt = reduced_point(sys, 0.0, f)
                assert pt.currents.j_n_r > 0  # conjugate current obeys its force
                pt = reduced_point(sys, f, 0.0)
                assert pt.currents.j_e_r > 0


# about 2000 first-quadrant forces, from near the origin to deep saturation
_PLANE = [a.ravel() for a in np.meshgrid(np.geomspace(0.01, 100.0, 45),
                                         np.geomspace(0.01, 100.0, 45), indexing="ij")]
_ICC_CODES = [engine.REGIMES.index(Regime.ICC_ENERGY), engine.REGIMES.index(Regime.ICC_PARTICLE)]


@pytest.mark.filterwarnings("ignore:eps_b \\+ kappa = 0")
@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 3.0, exclude_min=True, exclude_max=True),
       st.floats(0.05, 4.0, exclude_min=True, exclude_max=True),
       st.floats(-4.0, 4.0, exclude_min=True, exclude_max=True),
       st.floats(0.1, 5.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_level_swap_is_necessary_over_systems(eps_b, gap, kappa, beta_r, mu_r, mu_u):
    # the paper's claims over whole systems: a genuine inverse cell needs the
    # level swap eps_b + kappa < 0 (necessary only; not every swapped system
    # shows one), and no computed row has both currents against parallel
    # forces, which the rules table would only mark
    beta, mu_l = invert_forces(*_PLANE, beta_r, mu_r)
    batch = engine.evaluate(SystemParams(eps_b, eps_b + gap, kappa),
                            (beta, beta_r, beta), (mu_l, mu_r, mu_u), (1.0, 1.0, 1.0))
    assert not (batch.status == engine.SECOND_LAW).any()
    ok = batch.status == engine.OK
    if eps_b + kappa >= 0:
        icc = ok & np.isin(batch.regime, _ICC_CODES)
        assert not icc.any(), (np.flatnonzero(icc), batch.regime[icc])
    # the figures of merit stay under their ideal values: zeta <= beta_r/F_E
    # on IccEnergy rows and eta <= 1 - beta_r/beta on IccParticle rows with
    # J_E^r > 0, where eta is defined (over two sets of 3000 seeded draws the
    # largest ratios were 0.9993 and 0.9988, on ~200k and ~170k rows a set)
    energy, particle = (ok & (batch.regime == code) for code in _ICC_CODES)
    particle &= batch.currents[1] > 0
    assert np.all(batch.cop[energy] <= beta_r / batch.forces[1][energy])
    assert np.all(batch.eta[particle] <= 1.0 - beta_r / beta[particle])
    # the cycle predictor: the clockwise cycle flux runs as p/q - 1 says
    flowing = ok & (np.abs(batch.gamma_cw) > engine.TOL_SIGN)
    assert np.array_equal(np.sign(batch.gamma_cw[flowing]), np.sign(batch.pq[flowing] - 1.0))


class TestFiguresOfMerit:
    def find_regime_point(self, sys, regime):
        for f_e in np.linspace(0.1, 2.0, 15):
            for f_n in np.linspace(0.1, 2.0, 15):
                pt = reduced_point(sys, f_e, f_n)
                if pt.regime is regime:
                    return pt, f_e, f_n
        raise AssertionError(f"no {regime} point found")

    def test_cop_identity_and_bound(self, attractive_system):
        pt, f_e, _ = self.find_regime_point(attractive_system, Regime.ICC_ENERGY)
        zeta = pt.cop
        assert zeta is not None and zeta > 0
        zeta_r = BETA_R / f_e  # cold/(hot-cold) in inverse-temperature form
        assert zeta <= zeta_r + 1e-12
        sigma = (pt.currents.j_e_r * pt.forces.f_e_r
                 + pt.currents.j_n_r * pt.forces.f_n_r)
        drive = pt.currents.j_n_r * pt.forces.f_n_r
        assert zeta == pytest.approx(zeta_r * (1 - sigma / drive), abs=1e-10)

    def test_efficiency_identity_and_bound(self, attractive_system):
        pt, f_e, _ = self.find_regime_point(attractive_system, Regime.ICC_PARTICLE)
        eta = pt.efficiency
        assert eta is not None and eta > 0
        beta = BETA_R + f_e
        eta_c = 1.0 - BETA_R / beta
        assert eta <= eta_c + 1e-12
        sigma = (pt.currents.j_e_r * pt.forces.f_e_r
                 + pt.currents.j_n_r * pt.forces.f_n_r)
        assert eta_c - eta == pytest.approx(sigma / (beta * pt.currents.j_e_r),
                                            abs=1e-10)

    @pytest.mark.parametrize("regime", [Regime.ICC_ENERGY, Regime.ICC_PARTICLE])
    def test_scalar_figures_are_the_engine_figures(self, attractive_system, regime):
        # one formula: cop and efficiency are 1-point views of what the
        # engine writes into the record, to the bit
        pt, f_e, f_n = self.find_regime_point(attractive_system, regime)
        beta, mu_l = invert_forces(f_e, f_n, BETA_R, MU_R)
        baths = icc_reduction(beta, BETA_R, mu_l, MU_R, MU_U)
        assert cop(pt.currents, baths, pt.forces) == pt.cop
        assert efficiency(pt.currents, baths, pt.forces) == pt.efficiency
        assert (pt.cop if regime is Regime.ICC_ENERGY else pt.efficiency) is not None

    def test_ideal_bounds_helpers(self):
        baths = icc_reduction(2.0, 1.0, 0.0, 1.0, 1.0)
        assert cop_ideal(baths) == pytest.approx(1.0, abs=1e-14)  # 1/(2-1)
        assert carnot_efficiency(baths) == pytest.approx(0.5, abs=1e-14)

    def test_absent_outside_regime(self, attractive_system):
        pt = reduced_point(attractive_system, 0.0, 0.0)
        assert pt.cop is None
        assert pt.efficiency is None
        fs = _forces(1.0, 1.0)
        cs = _currents(1e-3, 1e-3)  # everything flowing normally
        baths = icc_reduction(2.0, 1.0, 0.0, 1.0, 1.0)
        assert cop(cs, baths, fs) is None
        assert efficiency(cs, baths, fs) is None

    @pytest.mark.parametrize("figure", [cop, efficiency])
    def test_raises_where_classify_raises(self, figure):
        # both currents against parallel forces: classify raises, and so do
        # the figures that read its regime, instead of returning cop = -1
        fs, cs = _forces(0.0, 1.0), _currents(-1e-3, -1e-3)
        baths = icc_reduction(2.0, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(SecondLawViolationError):
            classify(fs, cs)
        with pytest.raises(SecondLawViolationError):
            figure(cs, baths, fs)
