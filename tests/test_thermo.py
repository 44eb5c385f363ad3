"""Entropy production in both constructions, forces, and transient balance."""
import numpy as np
import pytest

from qdicc import (LogDomainError, RateConstants, UndefinedForceError,
                   entropy_balance_transient, entropy_production_macro,
                   entropy_production_micro, evolve, forces_macro,
                   forces_micro, generator, icc_reduction, mn_factors,
                   rate_constants, schnakenberg_terms, steady_state,
                   currents, thermoelectric_reduction)
from qdicc import _kernels

from conftest import equal_baths, gibbs_state, make_baths, random_baths, random_system


def solved(sys, baths):
    rc = rate_constants(sys, baths)
    ss = steady_state(generator(rc))
    cs = currents(rc, ss, sys, baths)
    return rc, ss, cs


class TestForces:
    def test_macro_closed_forms(self):
        baths = make_baths(1.0, 0.8, 1.0, mu_l=0.5, mu_r=1.0, mu_u=0.0)
        fs = forces_macro(baths)
        assert fs.f_e_u == pytest.approx(0.0, abs=1e-15)
        assert fs.f_e_r == pytest.approx(0.2, abs=1e-15)
        assert fs.f_n_r == pytest.approx(0.8 * 1.0 - 1.0 * 0.5, abs=1e-15)

    def test_identical_baths_zero_forces(self):
        fs = forces_macro(equal_baths(1.3, -0.4))
        assert (fs.f_e_u, fs.f_e_r, fs.f_n_r) == (0.0, 0.0, 0.0)

    def test_thermoelectric_reduction_structure(self):
        baths = thermoelectric_reduction(beta=1.2, beta_u=0.9, mu_l=0.1,
                                         mu_r=0.7, mu_u=0.3)
        fs = forces_macro(baths)
        assert fs.f_e_r == 0.0
        assert fs.f_n_r == pytest.approx(1.2 * (0.7 - 0.1), abs=1e-15)

    def test_micro_equals_macro(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            sys = random_system(rng)
            if abs(sys.kappa) < 1e-3:
                continue
            baths = random_baths(rng)
            micro = forces_micro(rate_constants(sys, baths), sys)
            macro = forces_macro(baths)
            assert micro.f_e_u == pytest.approx(macro.f_e_u, abs=1e-10)
            assert micro.f_e_r == pytest.approx(macro.f_e_r, abs=1e-10)
            assert micro.f_n_r == pytest.approx(macro.f_n_r, abs=1e-10)

    def test_micro_equilibrium_zero(self):
        rng = np.random.default_rng(33)
        sys = random_system(rng)
        rc = rate_constants(sys, equal_baths(1.5, 0.3))
        fs = forces_micro(rc, sys)
        assert max(abs(fs.f_e_u), abs(fs.f_e_r), abs(fs.f_n_r)) < 1e-13

    def test_particle_force_alternate_form(self):
        # ln(m) - eps_b * f_e_r reproduces the (1 + theta, theta) combination
        rng = np.random.default_rng(43)
        for _ in range(50):
            sys = random_system(rng)
            if abs(sys.kappa) < 1e-2:
                continue
            baths = random_baths(rng)
            rc = rate_constants(sys, baths)
            fs = forces_micro(rc, sys)
            mn = mn_factors(rc)
            alt = np.log(mn.m) - sys.eps_b * fs.f_e_r
            assert fs.f_n_r == pytest.approx(alt, abs=1e-12 * max(1, abs(alt)))

    def test_zero_kappa_rejected(self):
        sys = random_system(np.random.default_rng(53))
        object.__setattr__(sys, "kappa", 0.0)
        rc = rate_constants(sys, random_baths(np.random.default_rng(54)))
        with pytest.raises(UndefinedForceError):
            forces_micro(rc, sys)


class TestMNFactors:
    def test_identical_leads(self):
        rng = np.random.default_rng(63)
        sys = random_system(rng)
        mn = mn_factors(rate_constants(sys, equal_baths(1.1, 0.2)))
        assert mn.m == pytest.approx(1.0, abs=1e-14)
        assert mn.n == pytest.approx(1.0, abs=1e-14)

    def test_zero_particle_force_ties_m_to_n(self):
        # with f_n_r = 0 the factors satisfy (eps_b + kappa) ln m = eps_b ln n
        rng = np.random.default_rng(73)
        for _ in range(50):
            sys = random_system(rng)
            if abs(sys.kappa) < 1e-2:
                continue
            beta_r = rng.uniform(0.3, 3.0)
            mu_r = rng.uniform(-2, 2)
            beta = beta_r + rng.uniform(0.0, 2.0)
            mu_l = beta_r * mu_r / beta
            baths = icc_reduction(beta, beta_r, mu_l, mu_r, rng.uniform(-2, 2))
            mn = mn_factors(rate_constants(sys, baths))
            lhs = (sys.eps_b + sys.kappa) * np.log(mn.m)
            rhs = sys.eps_b * np.log(mn.n)
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1, abs(rhs)))

    def test_attractive_with_positive_energy_force_orders_m_above_n(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            sys = random_system(rng, kappa_range=(-3.0, -0.1))
            beta_r = rng.uniform(0.3, 2.0)
            beta = beta_r + rng.uniform(0.05, 2.0)  # f_e_r > 0
            baths = icc_reduction(beta, beta_r, rng.uniform(-2, 2),
                                  rng.uniform(-2, 2), rng.uniform(-2, 2))
            mn = mn_factors(rate_constants(sys, baths))
            assert mn.m > mn.n


class TestEntropyMacro:
    def test_equilibrium_zero(self):
        rng = np.random.default_rng(93)
        sys = random_system(rng)
        baths = equal_baths(1.4, 0.6)
        _, _, cs = solved(sys, baths)
        rep = entropy_production_macro(cs, baths, forces_macro(baths))
        assert abs(rep.sigma_dot_macro) < 1e-14

    def test_heat_and_force_flux_forms_agree(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            sys = random_system(rng)
            baths = random_baths(rng)
            _, _, cs = solved(sys, baths)
            rep = entropy_production_macro(cs, baths, forces_macro(baths))
            assert rep.sigma_dot_macro == pytest.approx(sum(rep.decomposition),
                                                        abs=1e-12)
            assert rep.sigma_dot_macro >= -1e-12


class TestEntropyMicro:
    def test_detailed_balance_state_produces_nothing(self):
        rng = np.random.default_rng(113)
        sys = random_system(rng)
        beta, mu = 1.2, 0.4
        rc = rate_constants(sys, equal_baths(beta, mu))
        rho = gibbs_state(sys, beta, mu)
        rep = entropy_production_micro(rc, rho)
        assert abs(rep.sigma_dot) < 1e-13
        assert abs(rep.phi_dot) < 1e-13

    def test_steady_state_balance_and_macro_agreement(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            sys = random_system(rng)
            if abs(sys.kappa) < 1e-3:
                continue
            baths = random_baths(rng)
            rc, ss, cs = solved(sys, baths)
            micro = entropy_production_micro(rc, ss.rho)
            macro = entropy_production_macro(cs, baths, forces_macro(baths))
            assert micro.sigma_dot == pytest.approx(-micro.phi_dot, abs=1e-10)
            assert micro.sigma_dot == pytest.approx(macro.sigma_dot_macro, abs=1e-10)

    def test_summands_individually_non_negative(self):
        rng = np.random.default_rng(133)
        for _ in range(100):
            sys = random_system(rng)
            baths = random_baths(rng)
            rc, ss, _ = solved(sys, baths)
            terms = schnakenberg_terms(rc, ss.rho)
            assert terms.min() >= -1e-14

    def test_boundary_population_rejected(self):
        rng = np.random.default_rng(143)
        rc = rate_constants(random_system(rng), random_baths(rng))
        with pytest.raises(LogDomainError):
            entropy_production_micro(rc, np.array([0.0, 0.5, 0.25, 0.25]))

    def test_zero_rate_rejected(self):
        values = np.full(12, 0.5)
        values[3] = 0.0
        with pytest.raises(LogDomainError):
            entropy_production_micro(RateConstants(values), np.full(4, 0.25))

    def test_array_form_matches_point_calls(self):
        # one call over a (4, n) trajectory against n one-point calls
        rng = np.random.default_rng(193)
        rc = rate_constants(random_system(rng), random_baths(rng))
        traj = evolve(rng.dirichlet(np.ones(4)), generator(rc), dt=1e-3, t_end=1.0,
                      sample_stride=50)
        pops = traj.populations.T
        sigma, phi, terms = _kernels.schnakenberg(rc.values[:, None], pops)
        n = pops.shape[1]
        assert sigma.shape == phi.shape == (n,) and terms.shape == (6, n)
        for i in range(n):
            s, p, t = _kernels.schnakenberg(rc.values, pops[:, i])
            np.testing.assert_allclose(sigma[i], s, rtol=1e-14, atol=0)
            np.testing.assert_allclose(phi[i], p, rtol=1e-14, atol=0)
            np.testing.assert_allclose(terms[:, i], t, rtol=1e-14, atol=0)


class TestTransientBalance:
    def test_stationary_trajectory(self):
        rng = np.random.default_rng(153)
        sys = random_system(rng)
        baths = random_baths(rng)
        rc, ss, _ = solved(sys, baths)
        w = generator(rc)
        traj = evolve(ss.rho.values, w, dt=1e-3, t_end=0.1, sample_stride=10)
        bal = entropy_balance_transient(traj, rc)
        assert np.abs(bal.ds_dt).max() < 1e-9
        assert np.abs(bal.sigma_dot + bal.phi_dot).max() < 1e-10

    def test_relaxation_balance_residual(self):
        # relax from the Gibbs state of the bath-averaged parameters; the
        # centered difference carries an O(dt^2 |S'''|) truncation term, so
        # keep the quench moderate for the stated bound to be meaningful
        rng = np.random.default_rng(163)
        for _ in range(5):
            sys = random_system(rng)
            betas = rng.uniform(0.3, 1.2, 3)
            mus = rng.uniform(-1.0, 1.0, 3)
            baths = make_baths(*betas, *mus)
            rho0 = gibbs_state(sys, betas.mean(), mus.mean())
            rc = rate_constants(sys, baths)
            traj = evolve(rho0, generator(rc), dt=1e-3, t_end=5.0)
            bal = entropy_balance_transient(traj, rc)
            assert np.abs(bal.ds_dt - (bal.sigma_dot + bal.phi_dot)).max() < 1e-6
            assert bal.sigma_dot.min() >= -1e-12

    def test_independent_shannon_recomputation(self):
        # cross-check the returned finite difference against a from-scratch one
        rng = np.random.default_rng(173)
        sys = random_system(rng)
        baths = random_baths(rng)
        rc = rate_constants(sys, baths)
        traj = evolve(np.full(4, 0.25), generator(rc), dt=1e-3, t_end=1.0,
                      sample_stride=10)
        bal = entropy_balance_transient(traj, rc)
        pops = traj.populations
        shannon = -np.sum(pops * np.log(pops), axis=1)
        expected = (shannon[2:] - shannon[:-2]) / (traj.times[2:] - traj.times[:-2])
        assert np.allclose(bal.ds_dt, expected, atol=0, rtol=0)

    def test_matches_per_sample_oracle(self):
        # the vectorized balance against the per-sample construction: one
        # network-form call at each interior sample
        rng = np.random.default_rng(183)
        sys = random_system(rng)
        rc = rate_constants(sys, random_baths(rng))
        traj = evolve(np.full(4, 0.25), generator(rc), dt=1e-3, t_end=2.0,
                      sample_stride=20)
        bal = entropy_balance_transient(traj, rc)
        reports = [entropy_production_micro(rc, rho) for rho in traj.populations[1:-1]]
        np.testing.assert_allclose(bal.sigma_dot, [r.sigma_dot for r in reports],
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(bal.phi_dot, [r.phi_dot for r in reports],
                                   rtol=1e-14, atol=0)
        assert np.array_equal(bal.times, traj.times[1:-1])
