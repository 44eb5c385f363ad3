"""Batched engine: oracles for the spanning-tree steady state, batch/point
agreement, per-row status gates and whole-box physics properties."""
import ast
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qdicc import (CurrentSet, Lead, NumericalError, QdiccError, RateConstants,
                   StateIndex, SystemParams, Trajectory, UndefinedForceError, analyze_point,
                   cycle_flux_closed_form, engine, entropy_balance_transient,
                   entropy_production_macro, entropy_production_micro,
                   forces_macro, forces_micro, generator, icc_reduction,
                   invert_forces, mn_factors, pq_ratio, rate_constants,
                   schnakenberg_terms, steady_state)
from qdicc._kernels import (_EXCITE, _LOWER, _RELAX, _UPPER, R_BA, U_AC,
                            channel_energies, channel_fluxes, rate_vector)
from qdicc.config import record_fields

import test_kinetics
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

    def test_steady_state_is_a_view_of_the_batch(self):
        rng = np.random.default_rng(321)
        for _ in range(50):
            sys, baths = random_system(rng), random_baths(rng, equal_gamma=False)
            ss = steady_state(generator(rate_constants(sys, baths)))
            batch = engine.evaluate(sys, *baths.triples)
            assert ss.rho.values.tobytes() == batch.rho[:, 0].tobytes()
            assert np.float64(ss.gamma_cw).tobytes() == batch.gamma_cw.tobytes()
            assert ss.legs.tobytes() == batch.legs[:, 0].tobytes()

    def test_single_point_matches_batch_row(self):
        sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=-1.5)
        f_n = np.linspace(-3.0, 3.0, 41)
        batch = plane_line(sys, 0.7, f_n)
        for i, value in enumerate(f_n):
            one = plane_line(sys, 0.7, [value])
            for name in engine.Batch._fields:
                row = getattr(batch, name)[..., i]
                alone = getattr(one, name)[..., 0]
                assert np.array_equal(row, alone, equal_nan=True), name

    def test_block_of_lines_matches_per_line_batches(self):
        # a sweep evaluates a block of F_E lines in one call; on the
        # Fermi-tail census window, where ok and failed rows mix, every field
        # must equal the per-line calls bit for bit
        sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=-1.5)
        f_e = np.linspace(-0.99, 400.0, 60)
        f_n = np.linspace(-2000.0, 2000.0, 60)
        block = plane_line(sys, np.repeat(f_e, f_n.size), np.tile(f_n, f_e.size))
        lines = [plane_line(sys, value, f_n) for value in f_e]
        for name in engine.Batch._fields:
            joined = np.concatenate([getattr(b, name) for b in lines], axis=-1)
            assert np.array_equal(getattr(block, name), joined, equal_nan=True), name
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

    def test_reduced_row_gates_p_over_q_only(self):
        # a census_12x12 row: the lead-l cycle products leave the float
        # range, but on a reduced row c_l is 1 in exact arithmetic and p/q
        # is finite, so the row is ok; the rates-only view, which has no
        # forces to read reduction from, still rejects c_l
        sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=-1.5)
        batch = plane_line(sys, 217.73181818181817, [-545.4545454545455])
        assert batch.status[0] == engine.OK
        assert 0.0 < batch.pq[0] < math.inf
        assert engine.REGIMES[batch.regime[0]] is engine.Regime.NORMAL
        cls, message = engine.ERRORS[engine.PQ_RANGE]
        with pytest.raises(cls, match=message):
            pq_ratio(RateConstants(batch.k[:, 0]))

    @pytest.mark.parametrize("gamma", [1.0, 1e-9])
    def test_xy_gate_scales_with_the_rates(self, gamma):
        # gamma only sets the unit of time: the right-lead AB flux scaled by
        # 1 + 1e-6 fails the gate at gamma = 1e-9 as it does at gamma = 1
        sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=-1.5)
        beta, mu_l = invert_forces(1.0, 1.0, BETA_R, MU_R)
        batch = engine.evaluate(sys, (beta, BETA_R, beta), (mu_l, MU_R, MU_U), (gamma,) * 3)
        assert batch.status[0] == engine.OK
        g = channel_fluxes(batch.k, batch.rho)
        g[1] *= 1.0 + 1e-6
        assert engine.xy(batch.k, g, batch.gamma_cw)[2][0] == engine.XY

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

    def test_rate_log_views_raise_typed_in_the_fermi_tails(self):
        # the one-way fluxes k rho and the cycle product can underflow to 0
        # with every rate and population positive: the views used to leak a
        # RuntimeWarning (an error in this suite) and return inf, or raise
        # ForceSet's bare "f_e_u must be finite"; where only the flux rate's
        # k_excite / k_relax overflows, the summands stay finite
        sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=-1.5)
        points, nonfinite = 0, {}
        for beta in np.linspace(0.2, 400.0, 41):
            for mu_l in (-300.0, -20.0, -1.0, 0.5, 3.0, 20.0, 300.0):
                rc = rate_constants(sys, icc_reduction(float(beta), 1.0, mu_l, 1.0, 3.0))
                try:
                    rho = steady_state(generator(rc)).rho
                except QdiccError:
                    continue
                points += 1
                trajectory = Trajectory(times=np.arange(3.0),
                                        populations=np.array([rho.values] * 3))
                # each view's returned values; None marks a field it leaves out
                views = {
                    "entropy_production_micro":
                        lambda: vars(entropy_production_micro(rc, rho)).values(),
                    "schnakenberg_terms": lambda: [schnakenberg_terms(rc, rho)],
                    "entropy_balance_transient":
                        lambda: vars(entropy_balance_transient(trajectory, rc)).values(),
                    "forces_micro": lambda: vars(forces_micro(rc, sys)).values(),
                }
                for name, view in views.items():
                    try:
                        values = view()
                    except (QdiccError, ValueError) as exc:
                        # only the engine's errors, with their messages
                        assert (type(exc), str(exc)) in engine.ERRORS.values(), (name, exc)
                        if str(exc) == engine.ERRORS[engine.NONFINITE][1]:
                            assert isinstance(exc, NumericalError)
                            nonfinite.setdefault(name, []).append((beta, mu_l))
                        continue
                    assert all(np.isfinite(v).all() for v in values if v is not None), \
                        (name, beta, mu_l)
        assert points == 287
        assert {name: len(cells) for name, cells in nonfinite.items()} == {
            "entropy_production_micro": 11, "schnakenberg_terms": 9,
            "entropy_balance_transient": 11, "forces_micro": 9}
        assert (300.05, -1.0) in nonfinite["entropy_production_micro"]


def test_each_gate_message_is_written_once():
    # a gate message re-inlined in a scalar view would drift from the engine's
    strings = [node.value for path in Path(engine.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    for _cls, message in engine.ERRORS.values():
        assert sum(message in text for text in strings) == 1, message


CHANNEL_NAMES = {"L_AB", "L_BA", "L_CD", "L_DC", "R_AB", "R_BA", "R_CD", "R_DC",
                 "U_AC", "U_CA", "U_BD", "U_DB"}


def test_only_the_kernels_name_a_channel():
    # the channel layout is known in one module: every other one reads the
    # kernels' tables (channel, cycle and incidence) instead of indices
    for path in Path(engine.__file__).parent.glob("*.py"):
        if path.name == "_kernels.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                 | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
                 | {name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names for name in (alias.name, alias.asname)})
        assert not names & CHANNEL_NAMES, (path.name, sorted(names & CHANNEL_NAMES))


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


@pytest.mark.filterwarnings("ignore:eps_b \\+ kappa = 0")
@settings(max_examples=60, deadline=None)
@given(points=st.lists(st.tuples(st.floats(-0.99, 400.0), st.floats(-2000.0, 2000.0)),
                       min_size=1, max_size=12),
       kappa=st.floats(-2.0, 2.0))
def test_census_box_keeps_the_contract(points, kappa):
    """Over the Fermi-tail census box each row is ok or fails with a typed
    status; ok rows are finite and meet conservation, the second law and
    macro = micro to within 1e-12 of the one-way channel fluxes that their
    currents are sums of; and the CSV text holds no nan or inf."""
    sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=kappa)
    f_e = np.array([p[0] for p in points])
    f_n = np.array([p[1] for p in points])
    beta, mu_l = invert_forces(f_e, f_n, BETA_R, MU_R)
    batch = engine.evaluate(sys, (beta, BETA_R, beta), (mu_l, MU_R, MU_U),
                            (1.0, 1.0, 1.0))
    assert set(batch.status.tolist()) <= {engine.OK, *engine.ERRORS}
    for code in set(batch.status.tolist()) - {engine.OK}:
        cls, message = engine.ERRORS[code]
        with pytest.raises(cls, match=f"^{re.escape(message)}$"):
            engine.raise_for_status(code)
    ok = batch.status == engine.OK
    for name in batch._fields:
        values = getattr(batch, name)[..., ok]
        assert not np.isinf(values).any(), name
        # the cycle predictor and the figures of merit are NaN where undefined
        assert name in ("pq", "cop", "eta") or not np.isnan(values).any(), name

    k, rho, cur = batch.k[:, ok], batch.rho[:, ok], batch.currents[:, ok]
    flux = np.maximum(k[_EXCITE] * rho[_LOWER], k[_RELAX] * rho[_UPPER]).max(axis=0)
    energy = flux * np.abs(channel_energies(EPS_B, EPS_U, kappa)).max()
    # each term beta_lam J_Q^lam of sigma is at most beta (|omega| + |mu|)
    # times the one-way flux
    entropy = np.maximum(beta[ok], BETA_R) * (
        energy + np.maximum(np.abs(mu_l[ok]), max(abs(MU_R), abs(MU_U))) * flux)
    assert (np.abs(batch.res_j_e[ok]) <= 1e-12 * energy).all()
    assert (np.abs(batch.res_j_n[ok]) <= 1e-12 * flux).all()
    assert (np.abs(cur[5]) <= 1e-12 * flux).all()  # J_N^u
    assert (batch.sigma_micro[ok] >= 0.0).all()
    assert (batch.sigma_macro[ok] >= -1e-12 * entropy).all()
    assert (np.abs(batch.sigma_macro[ok] - batch.sigma_micro[ok]) <= 1e-12 * entropy).all()

    text = b"".join(record_fields(f_e, f_n, beta, mu_l, batch))
    assert not re.search(rb"\b(nan|inf)\b", text, re.IGNORECASE)


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


def cycle_form_sigma(k, rho):
    """Entropy production as the sum over the chords AB via r, CD via r and
    BD via u of the chord's net flux times the affinity of the cycle it
    closes through the tree {AB via l, CD via l, AC via u}: ln m, ln n and
    ln c_l, each a sum of log rate ratios.  A third construction beside the
    heat currents and the network form, with channels read from the literal
    layout of ``test_kinetics.TestChannelTable.INDEX``."""
    index = test_kinetics.TestChannelTable.INDEX
    A, B, C, D = StateIndex

    def rate(lead, i, j):
        return k[index[(lead, i, j)]]

    def flux(lead, i, j):
        return rate(lead, i, j) * rho[i] - rate(lead, j, i) * rho[j]

    def affinity(*walk):
        return sum(np.log(rate(lead, i, j) / rate(lead, j, i)) for lead, i, j in walk)

    return (flux(Lead.R, A, B) * affinity((Lead.R, A, B), (Lead.L, B, A))
            + flux(Lead.R, C, D) * affinity((Lead.R, C, D), (Lead.L, D, C))
            + flux(Lead.U, B, D) * affinity((Lead.U, B, D), (Lead.L, D, C),
                                            (Lead.U, C, A), (Lead.L, A, B)))


# the inverse_plane.cfg window: its system and baths, forces in its box
PLANE_BOX = st.tuples(st.just(-1.5), st.lists(
    st.tuples(st.floats(0.02, 2.0), st.floats(0.02, 2.0)), min_size=1, max_size=12))
# raw-setup baths: three leads of their own beta and mu, one gamma
RAW_BATHS = st.tuples(st.floats(-2.0, 2.0), st.lists(
    st.tuples(*[st.floats(0.1, 5.0)] * 3, *[st.floats(-3.0, 3.0)] * 3, st.floats(0.2, 3.0)),
    min_size=1, max_size=12))


@pytest.mark.filterwarnings("ignore:eps_b \\+ kappa = 0")
@settings(max_examples=80, deadline=None)
@given(st.one_of(PLANE_BOX, RAW_BATHS))
def test_cycle_form_is_a_third_construction_of_sigma(draw):
    """sigma = g(AB via r) ln m + g(CD via r) ln n + g(BD via u) ln c_l
    equals the heat-current and the network form to within 1e-12 of the
    largest one-way channel flux times beta (|omega| + |mu|), the bound of
    each channel's log rate ratio."""
    kappa, points = draw
    sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=kappa)
    rows = np.array(points, dtype=float).T
    if len(rows) == 2:
        beta, mu_l = invert_forces(rows[0], rows[1], BETA_R, MU_R)
        betas, mus, gammas = (beta, BETA_R, beta), (mu_l, MU_R, MU_U), (1.0, 1.0, 1.0)
    else:
        betas, mus, gammas = tuple(rows[0:3]), tuple(rows[3:6]), (rows[6],) * 3
    batch = engine.evaluate(sys, betas, mus, gammas)
    assert (batch.status == engine.OK).all()
    sigma = cycle_form_sigma(batch.k, batch.rho)
    flux = np.maximum(batch.k[_EXCITE] * batch.rho[_LOWER],
                      batch.k[_RELAX] * batch.rho[_UPPER]).max(axis=0)
    beta_max = np.max(np.broadcast_arrays(*betas), axis=0)
    mu_max = np.max(np.abs(np.broadcast_arrays(*mus)), axis=0)
    entropy = beta_max * (np.abs(channel_energies(EPS_B, EPS_U, kappa)).max() + mu_max) * flux
    assert (np.abs(sigma - batch.sigma_micro) <= 1e-12 * entropy).all()
    assert (np.abs(sigma - batch.sigma_macro) <= 1e-12 * entropy).all()


def tilted_generators(k, kappa, chi):
    """W(chi), shape (N, 4, 4), with W[j, i] the tilted rate i -> j: each
    excitation rate (lower to upper state) times exp(chi . d) and each
    relaxation rate times exp(-chi . d), where d = (E_u, E_r, N_r) is what
    the excitation takes from lead u (energy omega), from lead r (energy
    omega) and from lead r (one particle); lead-l channels have d = 0 and
    the diagonal stays untilted.  Channels from the literal layout of
    ``test_kinetics.TestChannelTable.INDEX``; ``chi`` is (3, 1) or (3, N)."""
    A, B, C, D = StateIndex
    omega = {(A, B): EPS_B, (C, D): EPS_B + kappa, (A, C): EPS_U, (B, D): EPS_U + kappa}
    w = np.zeros((k.shape[1], 4, 4))
    for (lead, i, j), c in test_kinetics.TestChannelTable.INDEX.items():
        excites = (i, j) in omega
        energy = omega[(i, j) if excites else (j, i)]
        d = np.array((energy * (lead == Lead.U), energy * (lead == Lead.R), lead == Lead.R))
        w[:, j, i] += k[c] * np.exp((1.0 if excites else -1.0) * d.dot(chi))
        w[:, i, i] -= k[c]
    return w


@pytest.mark.parametrize("kappa", [-1.5, 1.5])
def test_green_kubo_at_zero_force(kappa):
    """At F = 0 the Hessian of the top eigenvalue of the tilted generator in
    (chi_E^r, chi_N^r), the covariance rate of (J_E^r, J_N^r), is 2 L, with
    L the engine's linear response from :func:`onsager_matrix` (Green-Kubo).
    Each mixed entry is differenced in its own order."""
    h = 1e-3
    k = rate_vector(EPS_B, EPS_U, kappa, (BETA_R,) * 3, (MU_R, MU_R, MU_U), (1.0,) * 3)
    steps = h * np.array([(0.0, a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]).T
    w = tilted_generators(np.tile(k[:, None], 9), kappa, steps)
    top = np.linalg.eigvals(w).real.max(axis=-1).reshape(3, 3)  # [chi_E, chi_N]
    d_e, d_n = (top[2] - top[0]) / (2 * h), (top[:, 2] - top[:, 0]) / (2 * h)
    curv_e = (top[2, 1] - 2 * top[1, 1] + top[0, 1]) / h**2
    curv_n = (top[1, 2] - 2 * top[1, 1] + top[1, 0]) / h**2
    hessian = np.array([[curv_e, (d_e[2] - d_e[0]) / (2 * h)],
                        [(d_n[2] - d_n[0]) / (2 * h), curv_n]])
    scale = np.abs(hessian).max()
    assert np.abs(hessian - 2.0 * onsager_matrix(kappa, 1e-4)).max() <= 1e-5 * scale
    assert abs(hessian[0, 1] - hessian[1, 0]) <= 1e-5 * scale
    assert np.linalg.eigvalsh(hessian).min() >= 0.0


@settings(max_examples=40, deadline=None)
@given(RAW_BATHS, st.tuples(*[st.floats(-1.0, 1.0)] * 3))
def test_gallavotti_cohen_symmetry(draw, chi):
    """lambda(chi) = lambda(-F - chi) for the top eigenvalue lambda of the
    tilted generator, the scaled cumulant generating function of (J_E^u,
    J_E^r, J_N^r), at any force (Lebowitz & Spohn, J. Stat. Phys. 95, 333
    (1999); Andrieux & Gaspard, J. Chem. Phys. 121, 6167 (2004)): the
    forces of engine.forces are the affinities of the three currents, one
    by one.  To within a few ulps of the larger tilted matrix's scale."""
    kappa, points = draw
    rows = np.array(points, dtype=float).T
    betas, mus = rows[0:3], rows[3:6]
    k = rate_vector(EPS_B, EPS_U, kappa, betas, mus, (rows[6],) * 3)
    chi = np.array(chi)[:, None]
    w, mirror = (tilted_generators(k, kappa, x) for x in (chi, -engine.forces(betas, mus) - chi))
    top, top_mirror = (np.linalg.eigvals(m).real.max(axis=-1) for m in (w, mirror))
    scale = np.maximum(np.abs(w).max(axis=(1, 2)), np.abs(mirror).max(axis=(1, 2)))
    assert (np.abs(top - top_mirror) <= 16 * np.finfo(float).eps * scale).all()


def literal_cycles(k):
    """m, n, c_l, the backward products of m and n and p/q, from the
    literal layout, each product written out left to right in walk order."""
    index = test_kinetics.TestChannelTable.INDEX
    A, B, C, D = StateIndex
    L, R, U = Lead
    ab_l, ba_l, cd_l, dc_l = (k[index[(L, i, j)]] for i, j in ((A, B), (B, A), (C, D), (D, C)))
    ab_r, ba_r, cd_r, dc_r = (k[index[(R, i, j)]] for i, j in ((A, B), (B, A), (C, D), (D, C)))
    ac_u, ca_u, bd_u, db_u = (k[index[(U, i, j)]] for i, j in ((A, C), (C, A), (B, D), (D, B)))
    with np.errstate(all="ignore"):
        den_m = ba_r * ab_l
        den_n = dc_r * cd_l
        m = (ab_r * ba_l) / den_m
        n = (cd_r * dc_l) / den_n
        c_l = (ab_l * bd_u * dc_l * ca_u) / (ba_l * db_u * cd_l * ac_u)
        p = (1.0 + ab_r / ab_l) / (1.0 + ba_r / ba_l)
        q = (1.0 + cd_r / cd_l) / (1.0 + dc_r / dc_l)
        return m, n, c_l, den_m, den_n, p / q


def literal_views(k, sys):
    """What mn_factors, pq_ratio and forces_micro give on one rate vector:
    ("ok", repr of the values) or ("raise", class, message), by the rules
    written out here on the literal products."""
    m, n, c_l, den_m, den_n, ratio = (float(v) for v in literal_cycles(k))

    def error(code):
        return ("raise", *engine.ERRORS[code])

    if den_m == 0.0 or den_n == 0.0:
        mn = error(engine.MN_DENOMINATOR)
    elif not (0.0 < m < math.inf and 0.0 < n < math.inf):
        mn = error(engine.MN_RANGE)
    else:
        mn = ("ok", repr((m, n)))
    positive = bool((k > 0.0).all())
    if not positive:
        pq = error(engine.LOG_DOMAIN)
    elif not (0.0 < c_l < math.inf and 0.0 < ratio < math.inf):
        pq = error(engine.PQ_RANGE)
    elif not np.abs(np.log(c_l)) <= 1e-9:
        pq = error(engine.UNREDUCED)
    else:
        pq = ("ok", repr(ratio))
    if sys.kappa == 0.0:
        micro = ("raise", UndefinedForceError, "microscopic forces are undefined for kappa = 0")
    elif not positive:
        micro = error(engine.LOG_DOMAIN)
    elif mn[0] == "raise":
        micro = mn
    else:
        inv_kappa, theta = 1.0 / sys.kappa, sys.eps_b / sys.kappa
        log_m, log_n = math.log(m), math.log(n)
        log_c = math.log(c_l) if 0.0 < c_l < math.inf else math.nan
        forces = (inv_kappa * log_c, inv_kappa * (log_n - log_m),
                  (1.0 + theta) * log_m - theta * log_n)
        micro = (("ok", repr(forces)) if all(map(math.isfinite, forces))
                 else error(engine.NONFINITE))
    return mn, pq, micro


def outcome(call, values):
    """("ok", repr of ``values(result)``) or ("raise", class, message)."""
    try:
        return ("ok", repr(values(call())))
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return ("raise", type(exc), str(exc))


# test_kinetics' rates in [0, 2] and at the bottom of the float range, and
# log-uniform rates down the Fermi tail, subnormals included
CYCLE_RATES = st.one_of(test_kinetics.RATES, st.floats(-745.0, 0.7).map(math.exp))
# rates of two-force baths (beta_l = beta_u), where p/q is defined
REDUCED_RATES = st.builds(
    lambda beta, beta_r, mu, kappa: rate_vector(EPS_B, EPS_U, kappa, (beta, beta_r, beta),
                                                mu, (1.0, 1.0, 1.0)),
    st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.tuples(*[st.floats(-3.0, 3.0)] * 3),
    st.floats(-3.0, 3.0))


@pytest.mark.filterwarnings("ignore:eps_b \\+ kappa = 0")
@settings(max_examples=300, deadline=None)
@given(st.one_of(arrays(np.float64, st.one_of(st.just((12,)),
                                              st.tuples(st.just(12), st.integers(1, 6))),
                       elements=CYCLE_RATES), REDUCED_RATES),
       st.one_of(st.sampled_from((-1.5, 0.0, 1.5)), st.floats(-3.0, 3.0)))
def test_cycle_stage_gives_the_literal_products(k, kappa):
    # the cycle table's products keep the operand order of the literal
    # products, so m, n, c_l and p/q keep their bits, and the views keep
    # their values and their errors
    m, n, c_l, _den_m, _den_n, ratio = literal_cycles(k)
    stage = engine.cycles(k)
    for got, want in zip(stage[:3] + engine.pq_status(k)[:1], (m, n, c_l, ratio)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=kappa)
    for column in k.reshape(12, -1).T:
        rc = RateConstants(column)
        got = (outcome(lambda: mn_factors(rc), lambda mn: (mn.m, mn.n)),
               outcome(lambda: pq_ratio(rc), lambda ratio: ratio),
               outcome(lambda: forces_micro(rc, sys),
                       lambda fs: (fs.f_e_u, fs.f_e_r, fs.f_n_r)))
        assert got == literal_views(column, sys)


def exact_ring(k, omega, mu):
    """Exact rho (4 Fractions), the nine currents, res_JE, res_JN and the
    largest one-way channel flux of one cell, from its 12 float rates taken
    as exact rationals.  The generator comes from the literal layout of
    ``test_kinetics.TestChannelTable``, and rho from Gaussian elimination of
    W with its last row replaced by the normalization: not the engine's
    spanning trees.  ``omega`` maps each (lower, upper) state pair to its
    transition energy and ``mu`` is the (l, r, u) triple, as Fractions."""
    rate = {key: Fraction(float(k[c])) for key, c in test_kinetics.TestChannelTable.INDEX.items()}
    w = [[Fraction(0)] * 4 for _ in range(4)]
    for (_lead, i, j), r in rate.items():
        w[j][i] += r
        w[i][i] -= r
    a, b = w[:3] + [[Fraction(1)] * 4], [Fraction(0)] * 3 + [Fraction(1)]
    for col in range(4):
        piv = next(row for row in range(col, 4) if a[row][col])
        a[col], a[piv], b[col], b[piv] = a[piv], a[col], b[piv], b[col]
        for row in range(col + 1, 4):
            fac = a[row][col] / a[col][col]
            a[row] = [x - fac * y for x, y in zip(a[row], a[col])]
            b[row] -= fac * b[col]
    rho = [Fraction(0)] * 4
    for row in (3, 2, 1, 0):
        rho[row] = (b[row] - sum(a[row][j] * rho[j] for j in range(row + 1, 4))) / a[row][row]
    je, jn, flux = dict.fromkeys(Lead, Fraction(0)), dict.fromkeys(Lead, Fraction(0)), Fraction(0)
    for lead, i, j in test_kinetics.TestChannelTable.PAIRS:
        up, down = rate[(lead, i, j)] * rho[i], rate[(lead, j, i)] * rho[j]
        flux = max(flux, up, down)
        jn[lead] += up - down
        je[lead] += omega[(i, j)] * (up - down)
    leads = (Lead.L, Lead.R, Lead.U)
    cur = ([je[lead] for lead in leads] + [jn[lead] for lead in leads]
           + [je[lead] - m * jn[lead] for lead, m in zip(leads, mu)])
    return rho, cur, sum(cur[0:3]), sum(cur[3:6]), flux


# the worst errors in units of eps over 120 seeded boxes of ~300 ok cells
# each (40 a box kind), times a margin of two: rho 2.98 relative; currents
# 3.08, res_JE 1.84 and res_JN 6.40, each against the cell's largest one-way
# flux times the column's weight (1 for J_N, max |omega| for J_E, that plus
# |mu_lam| for J_Q)
EXACT_BOUNDS = {"rho": 6.0, "currents": 6.0, "res_j_e": 4.0, "res_j_n": 13.0}


@pytest.mark.parametrize("seed, f_e_range, f_n_range, draws", [
    pytest.param(901, (0.02, 2.0), (0.02, 2.0), 300, id="first-quadrant"),
    pytest.param(902, (-1e-6, 1e-6), (-1e-6, 1e-6), 300, id="near-equilibrium"),
    # about a quarter of the census box is ok
    pytest.param(903, (-0.99, 400.0), (-2000.0, 2000.0), 1000, id="census"),
])
def test_exact_rational_oracle(seed, f_e_range, f_n_range, draws):
    """rho, the nine currents and the residuals of inverse_plane.cfg's
    system against their exact values from the engine's own float rates:
    the rounding error of the ring and currents stages alone.  A label read
    from the exact currents may differ only where a right-lead current lies
    within the current bound of tol_sign."""
    rng = np.random.default_rng(seed)
    kappa = -1.5
    sys = SystemParams(eps_b=EPS_B, eps_u=EPS_U, kappa=kappa)
    beta, mu_l = invert_forces(rng.uniform(*f_e_range, draws), rng.uniform(*f_n_range, draws),
                               BETA_R, MU_R)
    batch = engine.evaluate(sys, (beta, BETA_R, beta), (mu_l, MU_R, MU_U), (1.0, 1.0, 1.0))
    A, B, C, D = StateIndex
    omega = {(A, B): EPS_B, (C, D): EPS_B + kappa, (A, C): EPS_U, (B, D): EPS_U + kappa}
    omega_max = max(map(abs, omega.values()))
    omega = {pair: Fraction(v) for pair, v in omega.items()}
    eps = np.finfo(float).eps
    ok = np.flatnonzero(batch.status == engine.OK)
    assert len(ok) >= 200
    flipped = []
    for i in ok:
        mu = (float(mu_l[i]), MU_R, MU_U)
        rho, cur, res_j_e, res_j_n, flux = exact_ring(batch.k[:, i], omega,
                                                      [Fraction(m) for m in mu])
        rho = np.array([float(v) for v in rho])
        assert (np.abs(batch.rho[:, i] - rho) <= EXACT_BOUNDS["rho"] * eps * rho).all(), i
        weights = [omega_max] * 3 + [1.0] * 3 + [omega_max + abs(m) for m in mu]
        for got, want, weight in zip(batch.currents[:, i], cur, weights):
            assert abs(Fraction(float(got)) - want) <= (
                Fraction(EXACT_BOUNDS["currents"] * eps * weight) * flux), i
        assert abs(Fraction(float(batch.res_j_e[i])) - res_j_e) <= (
            Fraction(EXACT_BOUNDS["res_j_e"] * eps * omega_max) * flux), i
        assert abs(Fraction(float(batch.res_j_n[i])) - res_j_n) <= (
            Fraction(EXACT_BOUNDS["res_j_n"] * eps) * flux), i
        j_e, j_n = float(cur[1]), float(cur[4])
        label = engine.classify(batch.forces[1, i], batch.forces[2, i], j_e, j_n, engine.TOL_SIGN)
        if tuple(map(int, label)) != (batch.regime[i], engine.OK):
            near = [abs(abs(j) - engine.TOL_SIGN) <= EXACT_BOUNDS["currents"] * eps * weight
                    * float(flux) for j, weight in ((j_e, omega_max), (j_n, 1.0))]
            flipped.append((int(i), j_e, j_n, any(near)))
    # the cells whose label from the exact currents differs (none in these
    # boxes): each must have a right-lead current within the bound of tol_sign
    assert all(near for *_cell, near in flipped), flipped
