"""Stationary solve, cycle-flux identities and the closed-form cross-check."""
import warnings

import numpy as np
import pytest

from qdicc import (DegenerateNetworkError, Generator, PreconditionError,
                   SystemParams, cycle_flux_closed_form, generator, rate_constants,
                   steady_state)

from conftest import equal_baths, gibbs_state, make_baths, random_baths, random_system


class TestSteadyState:
    def test_equilibrium_matches_gibbs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            sys = random_system(rng)
            beta, mu = rng.uniform(0.2, 3.0), rng.uniform(-2, 2)
            ss = steady_state(generator(rate_constants(sys, equal_baths(beta, mu))))
            assert np.abs(ss.rho.values - gibbs_state(sys, beta, mu)).max() < 1e-12
            assert abs(ss.gamma_cw) < 1e-14

    def test_simplex_and_kernel_property(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            w = generator(rate_constants(random_system(rng),
                                         random_baths(rng, equal_gamma=False)))
            ss = steady_state(w)
            rho = ss.rho.values
            assert rho.min() >= 0.0
            assert rho.max() <= 1.0
            assert rho.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.abs(w.matrix @ rho).max() < 1e-12

    def test_cycle_legs_agree(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            ss = steady_state(generator(rate_constants(
                random_system(rng), random_baths(rng, equal_gamma=False))))
            assert np.abs(ss.legs - ss.gamma_cw).max() < 1e-12

    def test_degenerate_network_rejected(self):
        with pytest.raises(DegenerateNetworkError):
            steady_state(Generator(np.zeros((4, 4))))


class TestClosedFormCycleFlux:
    def test_equilibrium_gives_zero(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            sys = random_system(rng)
            beta, mu = rng.uniform(0.2, 3.0), rng.uniform(-2, 2)
            assert abs(cycle_flux_closed_form(sys, equal_baths(beta, mu))) < 1e-14

    def test_matches_linear_solve(self):
        rng = np.random.default_rng(47)
        checked = 0
        for _ in range(300):
            sys = random_system(rng)
            baths = random_baths(rng, equal_gamma=True)
            solve = steady_state(generator(rate_constants(sys, baths))).gamma_cw
            closed = cycle_flux_closed_form(sys, baths)
            scale = max(abs(solve), abs(closed))
            if scale > 1e-4:
                assert abs(solve - closed) / scale < 1e-10
                checked += 1
            else:
                # exponentially suppressed cycle: relative comparison is
                # meaningless below the roundoff floor, require agreement on
                # a numerical zero instead
                assert abs(solve - closed) < 1e-13
        assert checked > 80

    def test_sign_flips_with_thermal_bias(self):
        # thermoelectric-style bias: reversing the upper-lead temperature
        # offset around equilibrium reverses the cycle direction
        rng = np.random.default_rng(57)
        for _ in range(20):
            sys = random_system(rng)
            beta, mu = rng.uniform(0.5, 2.0), rng.uniform(-1, 1)
            delta = 0.2 * beta
            plus = cycle_flux_closed_form(
                sys, make_baths(beta, beta, beta + delta, mu, mu, mu))
            minus = cycle_flux_closed_form(
                sys, make_baths(beta, beta, beta - delta, mu, mu, mu))
            if abs(plus) > 1e-12 or abs(minus) > 1e-12:
                assert np.sign(plus) == -np.sign(minus)

    def test_vanishing_normalization_raises_as_the_solve_does(self):
        # at beta = 2000 every occupation is exactly 0 or 1: A feeds both B
        # and C, which have no way out, so no unique steady state exists
        sys = SystemParams(1.0, 2.5, 1.0)
        baths = make_baths(2000.0, 2000.0, 2000.0, 1.5, 1.5, 3.0)
        for solve in (lambda: steady_state(generator(rate_constants(sys, baths))),
                      lambda: cycle_flux_closed_form(sys, baths)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DegenerateNetworkError, match="normalization is zero"):
                    solve()

    def test_exponent_past_the_float_range_saturates(self):
        # beta (omega - mu_l) = 1e300 (omega + 1e300) overflows to inf; its
        # occupation is the 0 of a large finite exponent, with no warning
        sys = SystemParams(1.0, 2.5, -1.5)
        far, near = (cycle_flux_closed_form(sys, make_baths(1e300, 1e300, 1e300, mu_l, 0.0, 0.0))
                     for mu_l in (-1e300, -1e3))
        assert far == near

    def test_unequal_gamma_rejected(self):
        rng = np.random.default_rng(67)
        sys = random_system(rng)
        baths = make_baths(1.0, 1.5, 0.8, 0.0, 0.5, -0.5,
                           gamma_l=1.0, gamma_r=2.0, gamma_u=1.0)
        with pytest.raises(PreconditionError):
            cycle_flux_closed_form(sys, baths)
