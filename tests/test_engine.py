"""Batched engine: oracles for the spanning-tree steady state, batch/point
agreement, per-row status gates and whole-box physics properties."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdicc import (QdiccError, RateConstants, SystemParams, analyze_point,
                   cycle_flux_closed_form, engine, generator, icc_reduction,
                   invert_forces)

from conftest import BETA_R, EPS_B, EPS_U, MU_R, MU_U, random_baths, random_system


def evaluate_baths(sys, baths_list, **kwargs):
    """One engine call over a list of BathConfig objects."""
    res = [(b.l, b.r, b.u) for b in baths_list]
    return engine.evaluate(
        sys,
        tuple(np.array([r[i].beta for r in res]) for i in range(3)),
        tuple(np.array([r[i].mu for r in res]) for i in range(3)),
        tuple(np.array([r[i].gamma for r in res]) for i in range(3)),
        **kwargs)


def plane_line(sys, f_e, f_n, mu_u=MU_U):
    """Engine call over one F_E line of the two-force plane."""
    beta, mu_l = invert_forces(f_e, np.asarray(f_n, dtype=float), BETA_R, MU_R)
    return engine.evaluate(sys, (beta, BETA_R, beta), (mu_l, MU_R, mu_u),
                           (1.0, 1.0, 1.0))


def solve_oracle(k):
    """Stationary rho from a dense solve of W with the last row replaced by
    the normalization: the construction the spanning-tree form replaces."""
    a = generator(RateConstants(k)).matrix.copy()
    a[3, :] = 1.0
    return np.linalg.solve(a, np.array([0.0, 0.0, 0.0, 1.0]))


class TestSpanningTree:
    def test_rho_matches_dense_solve(self):
        rng = np.random.default_rng(301)
        for _ in range(40):
            sys = random_system(rng)
            baths = [random_baths(rng, equal_gamma=False) for _ in range(8)]
            batch = evaluate_baths(sys, baths)
            for i in range(len(baths)):
                rho = solve_oracle(batch.k[:, i])
                assert np.abs(batch.rho[:, i] - rho).max() < 1e-14
                assert batch.rho[:, i].min() > 0.0
                assert abs(batch.rho[:, i].sum() - 1.0) < 1e-15

    def test_gamma_cw_matches_closed_form(self):
        rng = np.random.default_rng(311)
        checked = 0
        for _ in range(50):
            sys = random_system(rng)
            baths = [random_baths(rng, equal_gamma=True) for _ in range(6)]
            batch = evaluate_baths(sys, baths)
            for i, b in enumerate(baths):
                closed = cycle_flux_closed_form(sys, b)
                flux = batch.gamma_cw[i]
                scale = max(abs(flux), abs(closed))
                if scale > 1e-4:
                    assert abs(flux - closed) / scale < 1e-10
                    checked += 1
                else:
                    assert abs(flux - closed) < 1e-13
                assert np.abs(batch.legs[:, i] - flux).max() < 1e-12
        assert checked > 80

    def test_single_point_matches_batch_row(self):
        sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=-1.5)
        f_n = np.linspace(-3.0, 3.0, 41)
        batch = plane_line(sys, 0.7, f_n)
        for i, value in enumerate(f_n):
            one = plane_line(sys, 0.7, [value])
            for field in dataclasses.fields(engine.Batch):
                row = getattr(batch, field.name)[..., i]
                alone = getattr(one, field.name)[..., 0]
                assert np.array_equal(row, alone, equal_nan=True), field.name

    def test_analyze_point_is_a_view_of_the_batch(self):
        sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=-1.5)
        f_n = np.linspace(0.1, 1.9, 7)
        batch = plane_line(sys, 1.2, f_n)
        for i, value in enumerate(f_n):
            beta, mu_l = invert_forces(1.2, value, BETA_R, MU_R)
            pt = analyze_point(sys, icc_reduction(beta, BETA_R, mu_l, MU_R, MU_U))
            assert np.array_equal(pt.currents.j_e, batch.currents[0:3, i])
            assert pt.gamma_cw == batch.gamma_cw[i]
            assert pt.sigma_micro == batch.sigma_micro[i]
            assert pt.pq == batch.pq[i]
            assert pt.regime is engine.REGIMES[batch.regime[i]]


class TestStatus:
    def test_fermi_tail_row_fails_typed_and_alone(self):
        # q in the cycle predictor underflows to zero at this corner
        sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=-1.5)
        batch = plane_line(sys, -0.99, [-711.86, 1.0])
        assert batch.status[0] != engine.OK
        assert batch.status[1] == engine.OK
        cls, _message = engine.ERRORS[int(batch.status[0])]
        assert issubclass(cls, (QdiccError, ValueError))

    def test_fermi_tail_point_raises_typed_error(self):
        sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=-1.5)
        beta, mu_l = invert_forces(-0.99, -711.86, BETA_R, MU_R)
        with pytest.raises(QdiccError):
            analyze_point(sys, icc_reduction(beta, BETA_R, mu_l, MU_R, MU_U))

    def test_bad_bath_rows_are_flagged(self):
        sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=-1.5)
        beta = np.array([1.0, -1.0, np.nan, 1.0])
        gamma = np.array([1.0, 1.0, 1.0, 0.0])
        batch = engine.evaluate(sys, (beta, 1.0, beta), (0.5, 1.0, 3.0),
                                (gamma, 1.0, 1.0))
        assert batch.status.tolist() == [engine.OK] + [engine.BAD_BATHS] * 3

    def test_ok_rows_are_finite(self):
        sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=-1.5)
        for f_e in (-0.99, -0.5, 0.0, 3.0, 50.0, 400.0):
            batch = plane_line(sys, f_e, np.linspace(-2000.0, 2000.0, 61))
            ok = batch.status == engine.OK
            for values in (batch.currents, batch.gamma_cw, batch.x, batch.y,
                           batch.m, batch.n, batch.pq, batch.sigma_macro,
                           batch.sigma_micro, batch.res_j_e, batch.res_j_n):
                assert np.isfinite(values[..., ok]).all()

    def test_raise_for_status(self):
        engine.raise_for_status(engine.OK)
        for code, (cls, _message) in engine.ERRORS.items():
            with pytest.raises(cls):
                engine.raise_for_status(code)


@pytest.mark.filterwarnings("ignore:eps_b \\+ kappa = 0")
@settings(max_examples=60, deadline=None)
@given(points=st.lists(st.tuples(st.floats(0.02, 2.0), st.floats(0.02, 2.0)),
                       min_size=1, max_size=12),
       kappa=st.floats(-2.0, 2.0))
def test_plane_box_properties(points, kappa):
    """Conservation, second law and macro = micro over the whole force box."""
    sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=kappa)
    f_e = np.array([p[0] for p in points])
    f_n = np.array([p[1] for p in points])
    beta = BETA_R + f_e
    mu_l = (BETA_R * MU_R - f_n) / beta
    batch = engine.evaluate(sys, (beta, BETA_R, beta), (mu_l, MU_R, MU_U),
                            (1.0, 1.0, 1.0))
    assert (batch.status == engine.OK).all()
    assert np.abs(batch.res_j_e).max() < 1e-12
    assert np.abs(batch.res_j_n).max() < 1e-12
    assert np.abs(batch.currents[5]).max() < 1e-12  # J_N^u: the upper dot is a dead end
    assert batch.sigma_macro.min() >= -1e-12
    assert batch.sigma_micro.min() >= -1e-12
    assert np.abs(batch.sigma_macro - batch.sigma_micro).max() < 1e-10
