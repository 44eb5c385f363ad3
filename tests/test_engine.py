"""Batched engine: oracles for the spanning-tree steady state, batch/point
agreement, per-row status gates and whole-box physics properties."""
import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdicc import (CurrentSet, QdiccError, RateConstants, SystemParams, Trajectory,
                   analyze_point, cycle_flux_closed_form, engine,
                   entropy_balance_transient, entropy_production_macro,
                   entropy_production_micro, forces_macro, forces_micro,
                   generator, icc_reduction, invert_forces, mn_factors,
                   pq_ratio, rate_constants, schnakenberg_terms, steady_state)
from qdicc._kernels import R_BA, U_AC

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
    """Engine call over points of the two-force plane: one F_E line, or
    F_E and F_N arrays of the same points."""
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

    def test_block_of_lines_matches_per_line_batches(self):
        # a sweep evaluates a block of F_E lines in one call; on the
        # Fermi-tail census window, where ok and failed rows mix, every field
        # must equal the per-line calls bit for bit
        sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=-1.5)
        f_e = np.linspace(-0.99, 400.0, 60)
        f_n = np.linspace(-2000.0, 2000.0, 60)
        block = plane_line(sys, np.repeat(f_e, f_n.size), np.tile(f_n, f_e.size))
        lines = [plane_line(sys, value, f_n) for value in f_e]
        for field in dataclasses.fields(engine.Batch):
            joined = np.concatenate([getattr(b, field.name) for b in lines], axis=-1)
            assert np.array_equal(getattr(block, field.name), joined, equal_nan=True), \
                field.name
        assert 0 < (block.status == engine.OK).sum() < block.status.size

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

    def test_scalar_views_raise_the_engine_error(self):
        # a failing 1-point call raises the class and message that a sweep
        # row records as its status
        sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=-1.5)
        baths = icc_reduction(1.0, BETA_R, 0.5, MU_R, MU_U)
        rc = rate_constants(sys, baths)
        rho = steady_state(generator(rc)).rho
        zero_den, zero_rate = rc.values.copy(), rc.values.copy()
        zero_den[R_BA] = 0.0
        zero_rate[U_AC] = 0.0
        zero_den, zero_rate = RateConstants(zero_den), RateConstants(zero_rate)
        boundary = Trajectory(times=np.arange(3.0),
                              populations=np.array([rho.values, [1.0, 0.0, 0.0, 0.0],
                                                    rho.values]))
        pt = analyze_point(sys, baths)
        cur = pt.currents
        perturbed = CurrentSet(j_e=cur.j_e, j_n=cur.j_n, j_q=cur.j_q * 1.5)
        cases = [
            (engine.MN_DENOMINATOR, lambda: mn_factors(zero_den)),
            (engine.LOG_DOMAIN, lambda: entropy_production_micro(zero_rate, rho)),
            (engine.LOG_DOMAIN, lambda: schnakenberg_terms(zero_rate, rho)),
            (engine.LOG_DOMAIN, lambda: forces_micro(zero_rate, sys)),
            (engine.LOG_DOMAIN, lambda: pq_ratio(zero_rate)),
            (engine.LOG_DOMAIN, lambda: entropy_balance_transient(boundary, rc)),
            (engine.MACRO,
             lambda: entropy_production_macro(perturbed, baths, forces_macro(baths))),
        ]
        for code, call in cases:
            cls, message = engine.ERRORS[code]
            with pytest.raises(cls) as exc:
                call()
            assert (type(exc.value), str(exc.value)) == (cls, message)


def test_each_gate_message_is_written_once():
    # a gate message re-inlined in a scalar view would drift from the engine's
    strings = [node.value for path in Path(engine.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    for _cls, message in engine.ERRORS.values():
        assert sum(message in text for text in strings) == 1, message


def classify_oracle(f_e, f_n, j_e, j_n, tol):
    """(regime, status) of one point by the regime rules written out case by
    case, independent of the engine's rules table.  Each current is judged
    against the sign of its conjugate force, or of the other force where its
    own is zero, in every quadrant."""
    fe_zero = abs(f_e) <= engine.TOL_FORCE
    fn_zero = abs(f_n) <= engine.TOL_FORCE
    if fe_zero and fn_zero:
        current = abs(j_e) > tol or abs(j_n) > tol
        return engine.Regime.EQUILIBRIUM, engine.ZERO_FORCE if current else engine.OK
    sign_e = 1.0 if f_e > 0 else -1.0
    sign_n = 1.0 if f_n > 0 else -1.0
    if fe_zero:
        # only F_N drives: J_E^r against it is the energy precursor, J_N^r
        # against it breaks the second law
        pseudo = sign_n * j_e < -tol
        regime = engine.Regime.PSEUDO_ICC_ENERGY if pseudo else engine.Regime.NORMAL
        second_law = sign_n * j_n < -tol
    elif fn_zero:
        pseudo = sign_e * j_n < -tol
        regime = engine.Regime.PSEUDO_ICC_PARTICLE if pseudo else engine.Regime.NORMAL
        second_law = sign_e * j_e < -tol
    else:
        against_e = sign_e * j_e < -tol
        against_n = sign_n * j_n < -tol
        if sign_e == sign_n:
            energy, particle = engine.Regime.ICC_ENERGY, engine.Regime.ICC_PARTICLE
        else:
            energy = engine.Regime.CROSS_EFFECT_ENERGY
            particle = engine.Regime.CROSS_EFFECT_PARTICLE
        if against_e:
            regime = energy
        elif against_n:
            regime = particle
        else:
            regime = engine.Regime.NORMAL
        second_law = against_e and against_n
    return regime, engine.SECOND_LAW if second_law else engine.OK


TOL_SIGN = 1e-10
# forces and currents at the two tolerances' edges, and random ones at
# scales from below TOL_FORCE to far above tol_sign
EDGES = (0.0, engine.TOL_FORCE, 2 * engine.TOL_FORCE, TOL_SIGN,
         np.nextafter(TOL_SIGN, np.inf), np.nextafter(TOL_SIGN, 0.0))
EDGE_OR_RANDOM = st.one_of(
    st.sampled_from(EDGES + tuple(-v for v in EDGES)),
    st.builds(lambda x, scale: x * 10.0 ** scale,
              st.floats(-3.0, 3.0), st.integers(-13, 2)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(EDGE_OR_RANDOM, EDGE_OR_RANDOM, EDGE_OR_RANDOM, EDGE_OR_RANDOM),
                min_size=1, max_size=40))
def test_classify_matches_the_case_by_case_rules(rows):
    regime, status = engine.classify(*np.array(rows).T, TOL_SIGN)
    for row, code, state in zip(rows, regime, status):
        assert (engine.REGIMES[code], state) == classify_oracle(*row, TOL_SIGN), row


def test_classify_matches_the_case_by_case_rules_on_the_edge_grid():
    # every combination of edge values, with forces well inside each quadrant
    values = sorted(set(EDGES + tuple(-v for v in EDGES) + (0.3, -0.3, 0.7, -0.7)))
    rows = np.array(np.meshgrid(values, values, values, values)).reshape(4, -1)
    regime, status = engine.classify(*rows, TOL_SIGN)
    for row, code, state in zip(rows.T.tolist(), regime.tolist(), status.tolist()):
        assert (engine.REGIMES[code], state) == classify_oracle(*row, TOL_SIGN), row


def test_anti_parallel_currents_use_the_sign_rule():
    # J_N^r one ulp beyond tol_sign against its force: j * f rounds to
    # -tol_sign * |f| exactly, so a rule on that product would call it Normal
    j = np.nextafter(TOL_SIGN, np.inf)
    regime, status = engine.classify(-0.3, 0.7, 0.0, -j, TOL_SIGN)
    assert (engine.REGIMES[regime], status) == (engine.Regime.CROSS_EFFECT_PARTICLE, engine.OK)
    # the parallel mirror, J_E^r against two positive forces
    regime, status = engine.classify(0.3, 0.7, -j, 0.0, TOL_SIGN)
    assert (engine.REGIMES[regime], status) == (engine.Regime.ICC_ENERGY, engine.OK)


# forces on the axes, at the origin and just inside TOL_FORCE, besides the
# four quadrants of the plane
AXIS = st.sampled_from((0.0, 1e-13, -1e-13))


@pytest.mark.filterwarnings("ignore:eps_b \\+ kappa = 0")
@settings(max_examples=60, deadline=None)
@given(points=st.lists(st.tuples(st.one_of(AXIS, st.floats(-0.9, 2.0)),
                                 st.one_of(AXIS, st.floats(-2.0, 2.0))),
                       min_size=1, max_size=12),
       kappa=st.floats(-2.0, 2.0))
def test_plane_box_properties(points, kappa):
    """Conservation, second law and macro = micro over the whole force box,
    and inverse currents only with the level swap eps_b + kappa < 0."""
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
    inverse = [engine.REGIMES.index(engine.Regime.ICC_ENERGY),
               engine.REGIMES.index(engine.Regime.ICC_PARTICLE)]
    assert EPS_B + kappa < 0 or not np.isin(batch.regime, inverse).any()


def onsager_matrix(kappa, h):
    """Linear-response matrix L at F = 0 by central differences of one
    engine call on the four stencil points (+-h, 0), (0, +-h):
    J_E^r ~ L[0, 0] F_E + L[0, 1] F_N, J_N^r ~ L[1, 0] F_E + L[1, 1] F_N."""
    sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=kappa)
    batch = plane_line(sys, np.array([h, -h, 0.0, 0.0]), np.array([0.0, 0.0, h, -h]))
    assert (batch.status == engine.OK).all()
    j_e, j_n = batch.currents[1], batch.currents[4]
    return np.array([[j_e[0] - j_e[1], j_e[2] - j_e[3]],
                     [j_n[0] - j_n[1], j_n[2] - j_n[3]]]) / (2.0 * h)


@pytest.mark.parametrize("kappa, sign", [(-1.5, -1.0), (1.5, 1.0)])
def test_onsager_symmetry_positivity_and_coupling_sign(kappa, sign):
    # Onsager: L_EN = L_NE, so the central-difference asymmetry is the
    # O(h^2) truncation error; second law: L has no negative eigenvalue;
    # ICC cones near the origin need L_EN < 0, which the level swap
    # eps_b + kappa < 0 gives and kappa = +1.5 does not
    asymmetry = []
    for h in (1e-3, 1e-4):
        lr = onsager_matrix(kappa, h)
        asymmetry.append(abs(lr[0, 1] - lr[1, 0]) / np.abs(lr).max())
        eigenvalues = np.linalg.eigvals(lr)
        assert np.isreal(eigenvalues).all() and eigenvalues.real.min() >= 0.0
        assert np.sign(lr[0, 1]) == sign
    assert 0.5e-2 < asymmetry[1] / asymmetry[0] < 2e-2
