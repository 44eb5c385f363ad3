"""System definition: eigenstructure, transition energies, Fermi factors."""
import numpy as np
import pytest

from qdicc import (ForbiddenTransitionError, Lead, Reservoir, StateIndex,
                   SystemParams, eigenenergies, fermi_minus, fermi_plus,
                   transition_energies)

# independently evaluated 1/(1 + e^-1.5) to 30 digits, truncated to float
FERMI_AT_MINUS_HALF = 0.817574476193643659607217178656


class TestSystemParams:
    def test_direct_kappa(self):
        sys = SystemParams(eps_b=1.0, eps_u=2.5, kappa=-1.5)
        assert sys.kappa == -1.5
        assert sys.theta == pytest.approx(1.0 / -1.5)

    def test_component_couplings(self):
        sys = SystemParams(eps_b=1.0, eps_u=2.5, kappa_c=0.5, kappa_s=2.0)
        assert sys.kappa == -1.5

    def test_both_forms_rejected(self):
        with pytest.raises(ValueError):
            SystemParams(eps_b=1.0, eps_u=2.5, kappa=1.0, kappa_c=2.0, kappa_s=1.0)

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            SystemParams(eps_b=1.0, eps_u=2.5, kappa_c=-0.5, kappa_s=1.0)

    def test_missing_coupling_rejected(self):
        with pytest.raises(ValueError):
            SystemParams(eps_b=1.0, eps_u=2.5)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="eps_b < eps_u"):
            SystemParams(eps_b=2.5, eps_u=1.0, kappa=0.5)
        with pytest.raises(ValueError):
            SystemParams(eps_b=1.0, eps_u=1.0, kappa=0.5)

    def test_positive_energies_enforced(self):
        with pytest.raises(ValueError):
            SystemParams(eps_b=-1.0, eps_u=2.5, kappa=0.5)
        with pytest.raises(ValueError):
            SystemParams(eps_b=1.0, eps_u=-2.5, kappa=0.5)

    def test_theta_undefined_for_zero_kappa(self):
        sys = SystemParams(eps_b=1.0, eps_u=2.5, kappa=0.0)
        with pytest.raises(ValueError):
            _ = sys.theta

    def test_degenerate_transition_warns(self):
        with pytest.warns(UserWarning, match="eps_b \\+ kappa = 0") as record:
            SystemParams(eps_b=1.0, eps_u=2.5, kappa=-1.0)
        # the warning points at the caller, not at the generated __init__
        assert record[0].filename == __file__


class TestEigenenergies:
    def test_attractive(self):
        e = eigenenergies(SystemParams(eps_b=1.0, eps_u=2.5, kappa=-1.5))
        assert e[StateIndex.A] == 0.0
        assert e[StateIndex.B] == 1.0
        assert e[StateIndex.C] == 2.5
        assert e[StateIndex.D] == 2.0

    def test_repulsive(self):
        e = eigenenergies(SystemParams(eps_b=1.0, eps_u=2.5, kappa=1.5))
        assert e[StateIndex.D] == 5.0

    def test_level_swap_condition(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            eps_b = rng.uniform(0.05, 3.0)
            eps_u = rng.uniform(eps_b + 0.05, 5.0)
            kappa = rng.uniform(-3.0, 3.0)
            sys = SystemParams(eps_b=eps_b, eps_u=eps_u, kappa=kappa)
            e = eigenenergies(sys)
            swapped = e[StateIndex.D] < e[StateIndex.C]
            assert swapped == (eps_b + kappa < 0)
            assert swapped == sys.levels_swapped


class TestTransitionEnergies:
    def test_attractive(self):
        tt = transition_energies(SystemParams(eps_b=1.0, eps_u=2.5, kappa=-1.5))
        assert tt.omega_ab == 1.0
        assert tt.omega_ac == 2.5
        assert tt.omega_cd == -0.5
        assert tt.omega_bd == 1.0

    def test_repulsive(self):
        tt = transition_energies(SystemParams(eps_b=1.0, eps_u=2.5, kappa=1.5))
        assert tt.omega_cd == 2.5
        assert tt.omega_bd == 4.0

    def test_energy_difference_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            eps_b = rng.uniform(0.05, 3.0)
            eps_u = rng.uniform(eps_b + 0.05, 5.0)
            sys = SystemParams(eps_b=eps_b, eps_u=eps_u, kappa=rng.uniform(-3, 3))
            tt = transition_energies(sys)
            assert tt.omega_ac - tt.omega_ab == pytest.approx(eps_u - eps_b, abs=1e-14)
            assert tt.omega_bd - tt.omega_cd == pytest.approx(eps_u - eps_b, abs=1e-14)

    # the signed energy of each allowed transition written out by hand: the
    # oracle for omega, which reads the pairs off the channel tables
    A, B, C, D = StateIndex
    SIGNED = {
        (A, B): ("omega_ab", +1), (B, A): ("omega_ab", -1),
        (A, C): ("omega_ac", +1), (C, A): ("omega_ac", -1),
        (C, D): ("omega_cd", +1), (D, C): ("omega_cd", -1),
        (B, D): ("omega_bd", +1), (D, B): ("omega_bd", -1),
    }

    def test_signed_lookup_and_forbidden_pairs(self):
        tt = transition_energies(SystemParams(eps_b=1.0, eps_u=2.5, kappa=-1.5))
        assert tt.omega(StateIndex.A, StateIndex.B) == 1.0
        assert tt.omega(StateIndex.B, StateIndex.A) == -1.0
        assert tt.omega(StateIndex.D, StateIndex.C) == 0.5
        # all 16 ordered pairs, at four distinct non-zero energies so that a
        # wrong field or sign shows
        tt = transition_energies(SystemParams(eps_b=1.0, eps_u=2.5, kappa=-0.25))
        assert len({tt.omega_ab, tt.omega_ac, tt.omega_cd, tt.omega_bd, 0.0}) == 5
        for i in StateIndex:
            for j in StateIndex:
                if (i, j) in self.SIGNED:
                    name, sign = self.SIGNED[(i, j)]
                    assert tt.omega(i, j) == sign * getattr(tt, name)
                else:
                    with pytest.raises(ForbiddenTransitionError,
                                       match=f"^transition {i.name} -> {j.name} is blocked$"):
                        tt.omega(i, j)


class TestFermiFactors:
    def test_symmetry_point(self):
        res = Reservoir(Lead.L, beta=2.3, mu=0.7)
        assert fermi_plus(res, 0.7) == pytest.approx(0.5, abs=1e-15)
        assert fermi_minus(res, -0.7) == pytest.approx(0.5, abs=1e-15)

    def test_frozen_value(self):
        res = Reservoir(Lead.R, beta=1.0, mu=1.0)
        assert fermi_plus(res, -0.5) == pytest.approx(FERMI_AT_MINUS_HALF, abs=1e-15)
        assert fermi_minus(res, 0.5) == pytest.approx(1.0 - FERMI_AT_MINUS_HALF, abs=1e-15)

    def test_complementarity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            res = Reservoir(Lead.U, beta=rng.uniform(0.1, 5), mu=rng.uniform(-3, 3))
            omega = rng.uniform(-6, 6)
            assert fermi_plus(res, omega) + fermi_minus(res, -omega) == pytest.approx(
                1.0, abs=1e-15)

    def test_monotonic_in_energy(self):
        res = Reservoir(Lead.L, beta=1.7, mu=-0.4)
        omegas = np.linspace(-8, 8, 200)
        values = [fermi_plus(res, w) for w in omegas]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_extreme_arguments_stay_bounded(self):
        res = Reservoir(Lead.L, beta=100.0, mu=0.0)
        hot = fermi_plus(res, 50.0)    # exponent 5000: no overflow
        cold = fermi_plus(res, -50.0)
        assert 0.0 <= hot < 1e-300
        assert cold == pytest.approx(1.0, abs=1e-15)

    def test_nonfinite_energy_rejected(self):
        res = Reservoir(Lead.L, beta=1.0, mu=0.0)
        with pytest.raises(ValueError):
            fermi_plus(res, float("nan"))
        with pytest.raises(ValueError):
            fermi_minus(res, float("inf"))


class TestReservoirValidation:
    def test_bad_beta(self):
        with pytest.raises(ValueError):
            Reservoir(Lead.L, beta=0.0, mu=0.0)

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            Reservoir(Lead.L, beta=1.0, mu=0.0, gamma=-1.0)

    def test_bath_labels_must_match_slots(self):
        from qdicc import BathConfig
        a = Reservoir(Lead.L, beta=1.0, mu=0.0)
        b = Reservoir(Lead.R, beta=1.0, mu=0.0)
        c = Reservoir(Lead.U, beta=1.0, mu=0.0)
        with pytest.raises(ValueError):
            BathConfig(l=b, r=a, u=c)
