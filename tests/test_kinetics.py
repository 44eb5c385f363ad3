"""Rate constants, generator structure, net rates and time evolution."""
import numpy as np
import pytest

from qdicc import (ForbiddenTransitionError, IntegrationError, Lead,
                   PopulationVector, StateIndex, SystemParams, evolve,
                   generator, net_transition_rate, rate_constants,
                   steady_state)
from qdicc.kinetics import CHANNEL_PAIRS

from conftest import equal_baths, gibbs_state, make_baths, random_baths, random_system

FERMI_AT_MINUS_HALF = 0.817574476193643659607217178656


class TestRateConstants:
    def test_sum_rule_on_random_draws(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            baths = random_baths(rng, equal_gamma=False)
            rc = rate_constants(random_system(rng), baths)
            for lead, i, j in CHANNEL_PAIRS:
                gamma = baths.reservoir(lead).gamma
                total = rc.rate(lead, i, j) + rc.rate(lead, j, i)
                assert total == pytest.approx(gamma, abs=1e-15 * gamma)

    def test_symmetric_point_rates(self):
        # at omega = mu both directions run at gamma/2
        sys = SystemParams(eps_b=1.0, eps_u=2.5, kappa=0.5)
        baths = equal_baths(beta=2.0, mu=1.0, gamma=0.8)
        rc = rate_constants(sys, baths)
        assert rc.k_ab_l == pytest.approx(0.4, abs=1e-15)
        assert rc.k_ba_l == pytest.approx(0.4, abs=1e-15)

    def test_frozen_channel_value(self):
        # attractive coupling puts the C->D channel at omega = -0.5
        sys = SystemParams(eps_b=1.0, eps_u=2.5, kappa=-1.5)
        baths = make_baths(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        rc = rate_constants(sys, baths)
        assert rc.k_cd_r == pytest.approx(FERMI_AT_MINUS_HALF, abs=1e-15)

    def test_forbidden_channel_lookup(self):
        rng = np.random.default_rng(5)
        rc = rate_constants(random_system(rng), random_baths(rng))
        with pytest.raises(ForbiddenTransitionError):
            rc.rate(Lead.L, StateIndex.B, StateIndex.C)
        with pytest.raises(ForbiddenTransitionError):
            rc.rate(Lead.U, StateIndex.A, StateIndex.B)


class TestGenerator:
    def test_column_sums_and_structure(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            rc = rate_constants(random_system(rng), random_baths(rng, equal_gamma=False))
            w = generator(rc).matrix
            assert np.abs(w.sum(axis=0)).max() < 1e-14 * max(1.0, np.abs(w).max())
            off = w[~np.eye(4, dtype=bool)]
            assert (off >= 0).all()
            for i, j in ((1, 2), (2, 1), (0, 3), (3, 0)):
                assert w[i, j] == 0.0

    def test_gibbs_state_in_kernel_at_equilibrium(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            sys = random_system(rng)
            beta, mu = rng.uniform(0.2, 3.0), rng.uniform(-2, 2)
            w = generator(rate_constants(sys, equal_baths(beta, mu))).matrix
            rho = gibbs_state(sys, beta, mu)
            assert np.abs(w @ rho).max() < 1e-14


class TestNetTransitionRate:
    def test_zero_populations_zero_rate(self):
        rng = np.random.default_rng(51)
        rc = rate_constants(random_system(rng), random_baths(rng))
        rho = np.array([0.0, 0.0, 0.5, 0.5])
        assert net_transition_rate(rc, rho, StateIndex.A, StateIndex.B, Lead.L) == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            rc = rate_constants(random_system(rng), random_baths(rng))
            rho = rng.dirichlet(np.ones(4))
            fwd = net_transition_rate(rc, rho, StateIndex.A, StateIndex.B, Lead.L)
            bwd = net_transition_rate(rc, rho, StateIndex.B, StateIndex.A, Lead.L)
            assert fwd == pytest.approx(-bwd, abs=1e-15)

    def test_detailed_balance_at_equilibrium(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            sys = random_system(rng)
            beta, mu = rng.uniform(0.2, 3.0), rng.uniform(-2, 2)
            baths = equal_baths(beta, mu)
            rc = rate_constants(sys, baths)
            rho = gibbs_state(sys, beta, mu)
            channels = [
                (StateIndex.A, StateIndex.B, Lead.L),
                (StateIndex.A, StateIndex.B, Lead.R),
                (StateIndex.C, StateIndex.D, Lead.L),
                (StateIndex.C, StateIndex.D, Lead.R),
                (StateIndex.A, StateIndex.C, Lead.U),
                (StateIndex.B, StateIndex.D, Lead.U),
            ]
            for i, j, lead in channels:
                assert abs(net_transition_rate(rc, rho, i, j, lead)) < 1e-12

    def test_forbidden_channel_rejected(self):
        rng = np.random.default_rng(81)
        rc = rate_constants(random_system(rng), random_baths(rng))
        with pytest.raises(ForbiddenTransitionError):
            net_transition_rate(rc, np.full(4, 0.25), StateIndex.A, StateIndex.D, Lead.U)


class TestPopulationVector:
    def test_validation(self):
        PopulationVector(np.array([0.25, 0.25, 0.25, 0.25]))
        with pytest.raises(ValueError):
            PopulationVector(np.array([0.5, 0.5, 0.1, -0.1]))
        with pytest.raises(ValueError):
            PopulationVector(np.array([0.5, 0.5, 0.5, 0.5]))


class TestEvolve:
    def test_zero_generator_is_constant(self):
        rho0 = np.array([0.1, 0.2, 0.3, 0.4])
        traj = evolve(rho0, np.zeros((4, 4)), dt=0.01, t_end=1.0)
        assert np.allclose(traj.populations, rho0, atol=0)

    def test_simplex_preserved(self):
        rng = np.random.default_rng(91)
        rc = rate_constants(random_system(rng), random_baths(rng))
        w = generator(rc)
        rho0 = rng.dirichlet(np.ones(4))
        traj = evolve(rho0, w, dt=1e-3, t_end=20.0, sample_stride=100)
        sums = traj.populations.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-10
        assert traj.populations.min() > -1e-12

    def test_converges_to_linear_solve(self):
        rng = np.random.default_rng(101)
        sys = random_system(rng)
        baths = random_baths(rng)
        w = generator(rate_constants(sys, baths))
        target = steady_state(w).rho.values
        traj = evolve(np.full(4, 0.25), w, dt=1e-3, t_end=100.0, sample_stride=1000)
        assert np.abs(traj.populations[-1] - target).max() < 1e-8

    def test_oversized_step_raises(self):
        rng = np.random.default_rng(111)
        rc = rate_constants(random_system(rng), random_baths(rng, equal_gamma=False))
        w = generator(rc)
        with pytest.raises(IntegrationError):
            evolve(np.array([1.0, 0.0, 0.0, 0.0]), w, dt=3.0, t_end=3000.0)

    def test_bad_arguments(self):
        w = np.zeros((4, 4))
        with pytest.raises(ValueError):
            evolve(np.full(4, 0.25), w, dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            evolve(np.full(4, 0.25), w, dt=0.5, t_end=0.1)

    @pytest.mark.parametrize("dt, t_end", [(1e-3, np.inf), (np.nan, 1.0),
                                           (1e-3, np.nan), (np.inf, 1.0)])
    def test_non_finite_times_rejected(self, dt, t_end):
        with pytest.raises(ValueError, match="finite"):
            evolve([0.25, 0.25, 0.25, 0.25], np.zeros((4, 4)), dt=dt, t_end=t_end)

    def test_non_finite_populations_or_generator_rejected(self):
        # a NaN would slip past the per-step drift check and fill the
        # trajectory with NaN instead of raising
        w = generator(rate_constants(SystemParams(eps_b=1.0, eps_u=2.5, kappa=-1.5),
                                     equal_baths(beta=1.0, mu=1.0)))
        with pytest.raises(ValueError, match="finite"):
            evolve([0.25, np.nan, 0.25, 0.5], w, dt=1e-3, t_end=0.01)
        w_bad = w.matrix.copy()
        w_bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            evolve([0.25, 0.25, 0.25, 0.25], w_bad, dt=1e-3, t_end=0.01)

    def test_rho0_must_hold_four_values(self):
        with pytest.raises(ValueError, match="rho0"):
            evolve([0.5, 0.5], np.zeros((4, 4)), dt=0.01, t_end=0.1)
        with pytest.raises(ValueError, match="rho0"):
            evolve(np.full((2, 4), 0.25), np.zeros((4, 4)), dt=0.01, t_end=0.1)

    def test_list_input_accepted(self):
        traj = evolve([0.7, 0.1, 0.1, 0.1], np.zeros((4, 4)), dt=0.01, t_end=0.1)
        assert np.array_equal(traj.populations[-1], [0.7, 0.1, 0.1, 0.1])
