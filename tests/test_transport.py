"""Current assembly, conservation identities and sign conventions."""
import numpy as np
import pytest

from qdicc import (PopulationVector, SteadyState, conservation_report,
                   currents, generator, rate_constants, steady_state,
                   thermoelectric_reduction)
from qdicc._kernels import currents_vector

from conftest import equal_baths, make_baths, random_baths, random_system


def solve_currents(sys, baths):
    rc = rate_constants(sys, baths)
    ss = steady_state(generator(rc))
    return rc, ss, currents(rc, ss, sys, baths)


def currents_oracle(g, eps_b, eps_u, kappa, mu):
    """The nine currents written out per lead from the literal channel
    layout (AB via l, AB via r, CD via l, CD via r, AC via u, BD via u):
    the construction that the kernel derives from the channel tables."""
    je = (eps_b * g[0] + (eps_b + kappa) * g[2],
          eps_b * g[1] + (eps_b + kappa) * g[3],
          eps_u * g[4] + (eps_u + kappa) * g[5])
    jn = (g[0] + g[2], g[1] + g[3], g[4] + g[5])
    jq = tuple(e - m * n for e, m, n in zip(je, mu, jn))
    return np.array((*je, *jn, *jq))


class TestCurrentsKernel:
    @staticmethod
    def draw(rng, n):
        # fluxes of both signs over many decades
        sys = random_system(rng)
        g = rng.normal(size=(6, n)) * 10.0 ** rng.uniform(-20.0, 2.0, size=(6, n))
        mu = rng.uniform(-300.0, 300.0, size=(3, n))
        return sys, g, mu

    def test_batch_matches_oracle_bit_for_bit(self):
        rng = np.random.default_rng(401)
        for _ in range(20):
            sys, g, mu = self.draw(rng, 50)
            out = currents_vector(g, sys.eps_b, sys.eps_u, sys.kappa, mu)
            assert out.shape == (9, 50)
            assert np.array_equal(out, currents_oracle(g, sys.eps_b, sys.eps_u, sys.kappa, mu))

    def test_point_matches_oracle(self):
        rng = np.random.default_rng(403)
        sys, g, mu = self.draw(rng, 1)
        mu = tuple(mu[:, 0].tolist())
        out = currents_vector(g[:, 0], sys.eps_b, sys.eps_u, sys.kappa, mu)
        assert out.shape == (9,)
        assert np.array_equal(out, currents_oracle(g[:, 0], sys.eps_b, sys.eps_u,
                                                   sys.kappa, mu))

    def test_batch_equals_its_point_calls(self):
        rng = np.random.default_rng(405)
        sys, g, mu = self.draw(rng, 40)
        out = currents_vector(g, sys.eps_b, sys.eps_u, sys.kappa, mu)
        for i in range(40):
            one = currents_vector(g[:, i], sys.eps_b, sys.eps_u, sys.kappa, mu[:, i])
            assert np.array_equal(out[:, i], one)


class TestConservation:
    def test_residuals_vanish_at_steady_state(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            sys = random_system(rng)
            baths = random_baths(rng, equal_gamma=False)
            _, _, cs = solve_currents(sys, baths)
            rep = conservation_report(cs)
            gamma_sq = max(b.gamma for b in (baths.l, baths.r, baths.u)) ** 2
            assert abs(rep.sum_j_e) < 1e-12 * gamma_sq
            assert abs(rep.sum_j_n) < 1e-12 * gamma_sq
            assert abs(rep.j_n_u) < 1e-12 * gamma_sq

    def test_left_right_particle_antisymmetry(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            _, _, cs = solve_currents(random_system(rng), random_baths(rng))
            assert cs.j_n_l == pytest.approx(-cs.j_n_r, abs=1e-13)

    def test_upper_energy_current_is_kappa_times_cycle_flux(self):
        rng = np.random.default_rng(39)
        for _ in range(50):
            sys = random_system(rng)
            _, ss, cs = solve_currents(sys, random_baths(rng))
            assert cs.j_e_u == pytest.approx(sys.kappa * ss.gamma_cw, abs=1e-12)
            assert cs.j_q_u == pytest.approx(cs.j_e_u - 0.0 * cs.j_n_u, abs=1e-12)

    def test_equilibrium_kills_all_currents(self):
        rng = np.random.default_rng(49)
        for _ in range(20):
            sys = random_system(rng)
            baths = equal_baths(rng.uniform(0.2, 3.0), rng.uniform(-2, 2))
            _, _, cs = solve_currents(sys, baths)
            for vec in (cs.j_e, cs.j_n, cs.j_q):
                assert np.abs(vec).max() < 1e-12

    def test_perturbed_populations_show_sensitivity(self):
        rng = np.random.default_rng(59)
        sys = random_system(rng)
        baths = random_baths(rng)
        rc = rate_constants(sys, baths)
        ss = steady_state(generator(rc))
        noisy = ss.rho.values + 1e-3 * np.array([1.0, -1.0, 1.0, -1.0])
        noisy = noisy / noisy.sum()
        fake = SteadyState(rho=PopulationVector(noisy), gamma_cw=ss.gamma_cw,
                           legs=ss.legs)
        rep = conservation_report(currents(rc, fake, sys, baths))
        assert 1e-6 < max(abs(rep.sum_j_e), abs(rep.sum_j_n)) < 1e-1

    def test_heat_is_not_conserved(self):
        sys = random_system(np.random.default_rng(69))
        baths = make_baths(1.5, 0.7, 1.1, mu_l=1.0, mu_r=-0.8, mu_u=0.3)
        _, _, cs = solve_currents(sys, baths)
        heat_residual = cs.j_q_l + cs.j_q_r + cs.j_q_u
        assert abs(heat_residual) > 1e-6


class TestSignConvention:
    def test_hot_upper_lead_injects_energy(self):
        # single thermal force: the hotter upper lead must push energy in
        rng = np.random.default_rng(79)
        for _ in range(20):
            sys = random_system(rng)
            beta = rng.uniform(0.5, 2.0)
            mu = rng.uniform(-1, 1)
            baths = thermoelectric_reduction(beta=beta, beta_u=0.5 * beta,
                                             mu_l=mu, mu_r=mu, mu_u=mu)
            _, _, cs = solve_currents(sys, baths)
            assert cs.j_e_u >= -1e-14
