"""Rate constants, generator structure, net rates and time evolution."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qdicc import (ForbiddenTransitionError, IntegrationError, Lead,
                   PopulationVector, StateIndex, SystemParams, evolve,
                   generator, icc_reduction, invert_forces, net_transition_rate,
                   rate_constants, steady_state)
from qdicc import _kernels, engine
from qdicc.kinetics import CHANNEL_INDEX, CHANNEL_PAIRS

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
        assert rc.rate(Lead.L, StateIndex.A, StateIndex.B) == pytest.approx(0.4, abs=1e-15)
        assert rc.rate(Lead.L, StateIndex.B, StateIndex.A) == pytest.approx(0.4, abs=1e-15)

    def test_frozen_channel_value(self):
        # attractive coupling puts the C->D channel at omega = -0.5
        sys = SystemParams(eps_b=1.0, eps_u=2.5, kappa=-1.5)
        baths = make_baths(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        rc = rate_constants(sys, baths)
        assert rc.rate(Lead.R, StateIndex.C, StateIndex.D) == pytest.approx(
            FERMI_AT_MINUS_HALF, abs=1e-15)

    def test_exponent_past_the_float_range_saturates_without_warning(self):
        # beta (omega - mu) = 1e300 (omega + 1e300) overflows to inf on both
        # lead-l pairs; the occupations saturate to an exact 0 and 1
        sys = SystemParams(eps_b=1.0, eps_u=2.5, kappa=-1.5)
        baths = make_baths(1e300, 1.0, 1.0, -1e300, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = rate_constants(sys, baths)
        assert rc.values[:4].tolist() == [0.0, 1.0, 0.0, 1.0]
        assert np.isfinite(rc.values).all()

    def test_forbidden_channel_lookup(self):
        rng = np.random.default_rng(5)
        rc = rate_constants(random_system(rng), random_baths(rng))
        with pytest.raises(ForbiddenTransitionError):
            rc.rate(Lead.L, StateIndex.B, StateIndex.C)
        with pytest.raises(ForbiddenTransitionError):
            rc.rate(Lead.U, StateIndex.A, StateIndex.B)


class TestChannelTable:
    # the ring's channel layout written out by hand: the oracle for the
    # index, the pairs and the blocked mask derived from the _kernels tables
    A, B, C, D = StateIndex
    INDEX = {
        (Lead.L, A, B): 0, (Lead.L, B, A): 1, (Lead.L, C, D): 2, (Lead.L, D, C): 3,
        (Lead.R, A, B): 4, (Lead.R, B, A): 5, (Lead.R, C, D): 6, (Lead.R, D, C): 7,
        (Lead.U, A, C): 8, (Lead.U, C, A): 9, (Lead.U, B, D): 10, (Lead.U, D, B): 11,
    }
    PAIRS = {(Lead.L, A, B), (Lead.L, C, D), (Lead.R, A, B), (Lead.R, C, D),
             (Lead.U, A, C), (Lead.U, B, D)}
    BLOCKED = {(1, 2), (2, 1), (0, 3), (3, 0)}

    def test_channel_index(self):
        assert CHANNEL_INDEX == self.INDEX

    def test_channel_pairs(self):
        assert len(CHANNEL_PAIRS) == 6
        assert set(CHANNEL_PAIRS) == self.PAIRS

    def test_blocked_mask(self):
        assert {tuple(ij) for ij in np.argwhere(_kernels._BLOCKED).tolist()} == self.BLOCKED

    def test_cycle_table(self):
        # each cycle is a closed walk of channels, each chord of the spanning
        # tree {AB via l, CD via l, AC via u} lies in exactly one cycle and
        # each cycle holds one chord, and walking a cycle backward takes the
        # reverse of each channel in its place
        A, B, C, D = StateIndex
        step = {idx: (lead, i, j) for (lead, i, j), idx in self.INDEX.items()}
        for row in _kernels._CYCLES:
            walk = [step[c] for c in row]
            assert [j for _lead, _i, j in walk] == [i for _lead, i, _j in walk[1:] + walk[:1]]
        edges = [{(lead, frozenset((i, j))) for lead, i, j in map(step.get, row)}
                 for row in _kernels._CYCLES]
        chords = [(Lead.R, frozenset((A, B))), (Lead.R, frozenset((C, D))),
                  (Lead.U, frozenset((B, D)))]
        for chord in chords:
            assert sum(chord in cycle for cycle in edges) == 1, chord
        assert all(len(cycle & set(chords)) == 1 for cycle in edges)
        for idx, (lead, i, j) in step.items():
            assert _kernels._REVERSE[idx] == self.INDEX[(lead, j, i)]
        assert _kernels._CYCLES_BACK == tuple(
            tuple(self.INDEX[(lead, j, i)] for lead, i, j in map(step.get, row))
            for row in _kernels._CYCLES)

    def test_rates_sit_at_their_oracle_index(self):
        # each lead distinct, so a channel read with the wrong lead, energy
        # or direction misses its Fermi factor
        sys = SystemParams(eps_b=1.0, eps_u=2.5, kappa=-1.5)
        baths = make_baths(0.7, 1.3, 2.1, 0.4, 1.1, 3.0, 0.5, 1.0, 2.0)
        rc = rate_constants(sys, baths)
        energy = (0.0, sys.eps_b, sys.eps_u, sys.eps_b + sys.eps_u + sys.kappa)
        for (lead, i, j), idx in self.INDEX.items():
            res = baths.reservoir(lead)
            # a particle enters on the way from the pair's emptier state (the
            # lower index) to its fuller one, and leaves on the way back
            lower, upper = min(i, j), max(i, j)
            x = res.beta * (energy[upper] - energy[lower] - res.mu)
            f = 1.0 / (1.0 + math.exp(x if i < j else -x))
            assert rc.values[idx] == pytest.approx(res.gamma * f, rel=1e-13)


# a rate constant gamma f lies in [0, gamma]: draw it there, and from the
# subnormals and the smallest normal, where a stray non-zero factor in a
# table product would show
GAMMA = 2.0
RATES = st.one_of(st.sampled_from((0.0, 5e-324, 1e-320, np.finfo(float).tiny)),
                  st.floats(0.0, GAMMA))


def oracle_generator(k):
    """W[j, i] from TestChannelTable.INDEX, each rate added in lead order
    l, r, u, and each diagonal entry minus its column sum."""
    w = np.zeros((4, 4) + k.shape[1:])
    for (_lead, i, j), idx in TestChannelTable.INDEX.items():
        w[j, i] = w[j, i] + k[idx]
    for i in range(4):
        w[i, i] = -(w[0, i] + w[1, i] + w[2, i] + w[3, i])
    return w


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.one_of(st.just((12,)), st.tuples(st.just(12), st.integers(1, 6))),
              elements=RATES))
def test_table_products_are_exact(k):
    # the generator comes from the channel table by a matrix product, which
    # must give the bits of the entry-by-entry sums; the stationary solve of
    # a (4, 4, N) generator must give each column the bits of its own solve
    w = _kernels.generator_matrix(k)
    assert w.tobytes() == oracle_generator(k).tobytes()
    batch = engine.stationary(w)
    for n in range(k.shape[1] if k.ndim == 2 else 0):
        column = engine.stationary(_kernels.generator_matrix(k[:, n]))
        for whole, alone in zip(batch, column):
            assert whole[..., n].tobytes() == np.asarray(alone).tobytes()


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

    def test_off_diagonal_entries_are_lead_sums(self):
        # W[j, i] is the total rate i -> j: the sum over leads of rc.rate,
        # added in lead order l, r, u, and exactly zero for a blocked pair
        rng = np.random.default_rng(33)
        for _ in range(50):
            rc = rate_constants(random_system(rng), random_baths(rng, equal_gamma=False))
            w = generator(rc).matrix
            for i in StateIndex:
                for j in StateIndex:
                    if i == j:
                        continue
                    total = 0.0
                    for lead in Lead:
                        try:
                            total += rc.rate(lead, i, j)
                        except ForbiddenTransitionError:
                            pass
                    assert w[j, i] == total

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
        pv = PopulationVector(np.array([0.125, 0.25, 0.5, 0.125]))
        assert [pv[s] for s in StateIndex] == [0.125, 0.25, 0.5, 0.125]
        assert pv[2] == 0.5 and type(pv[2]) is float
        with pytest.raises(ValueError):
            PopulationVector(np.array([0.5, 0.5, 0.1, -0.1]))
        with pytest.raises(ValueError):
            PopulationVector(np.array([0.5, 0.5, 0.5, 0.5]))


def stage_rk4(w, rho0, dt, n_steps, stride):
    """Classic RK4 in stage form with evolve's per-step policing.

    Returns (samples, None), or (None, message) at the first failing step.
    """
    rho = np.array(rho0, dtype=float)
    samples = [rho]
    for step in range(1, n_steps + 1):
        k1 = w @ rho
        k2 = w @ (rho + dt / 2 * k1)
        k3 = w @ (rho + dt / 2 * k2)
        k4 = w @ (rho + dt * k3)
        rho = rho + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        drift = abs(rho.sum() - 1.0)
        where = f"at step {step} (t={step * dt:g}); use a smaller dt"
        if drift > 1e-9:
            return None, "normalization drift exceeded 1e-9 " + where
        if rho.min() < -1e-9:
            return None, "population below -1e-9 " + where
        if drift > 1e-12:
            rho = rho / rho.sum()
        if step % stride == 0 or step == n_steps:
            samples.append(rho)
    return np.array(samples), None


def one_step_matrix(w, dt):
    """RK4's one-step matrix R = sum_{k<=4} (dt W)^k / k!, in Horner form."""
    a, one = dt * w, np.eye(4)
    return one + a @ (one + a @ (one + a @ (one + a / 4) / 3) / 2)


def inverse_plane_generator(f_e=0.7, f_n=1.1):
    """The generator of configs/inverse_plane.cfg at one force point."""
    beta, mu_l = invert_forces(f_e, f_n, 1.0, 1.0)
    return generator(rate_constants(SystemParams(1.0, 2.5, -1.5),
                                    icc_reduction(beta, 1.0, mu_l, 1.0, 3.0))).matrix


def assert_matches_stage_form(w, rho0, dt, n_steps, stride):
    """evolve gives stage_rk4's samples at steps 0, stride, ..., n_steps
    within 1e-11, or raises IntegrationError with its message."""
    expected, message = stage_rk4(w, rho0, dt, n_steps, stride)
    if message is not None:
        with pytest.raises(IntegrationError) as exc:
            evolve(rho0, w, dt=dt, t_end=n_steps * dt, sample_stride=stride)
        assert str(exc.value) == message
        return
    traj = evolve(rho0, w, dt=dt, t_end=n_steps * dt, sample_stride=stride)
    steps = [*range(0, n_steps + 1, stride)]
    if steps[-1] != n_steps:
        steps.append(n_steps)
    assert traj.times.tolist() == [step * dt for step in steps]
    assert np.abs(traj.populations - expected).max() < 1e-11


class TestEvolve:
    def test_zero_generator_is_constant(self):
        rho0 = np.array([0.1, 0.2, 0.3, 0.4])
        traj = evolve(rho0, np.zeros((4, 4)), dt=0.01, t_end=1.0)
        assert np.allclose(traj.populations, rho0, atol=0)
        assert len(traj) == len(traj.times) == 101

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

    def test_matches_one_step_polynomial_powers(self):
        # classic RK4 on a linear system is rho <- R rho with the one-step
        # matrix R = sum_{k<=4} (dt W)^k / k!, built here in Horner form
        dt, n_steps, stride = 1e-3, 5000, 50
        rng = np.random.default_rng(121)
        for equal_gamma in (True, False, True, False):
            w = generator(rate_constants(random_system(rng),
                                         random_baths(rng, equal_gamma=equal_gamma))).matrix
            rho0 = rng.dirichlet(np.ones(4))
            a, one = dt * w, np.eye(4)
            r = one + a @ (one + a @ (one + a @ (one + a / 4) / 3) / 2)
            r_stride = np.linalg.matrix_power(r, stride)
            expected = [rho0]
            for _ in range(n_steps // stride):
                expected.append(r_stride @ expected[-1])
            traj = evolve(rho0, w, dt=dt, t_end=n_steps * dt, sample_stride=stride)
            assert np.array_equal(traj.times, np.arange(0, n_steps + 1, stride) * dt)
            assert np.abs(traj.populations - np.array(expected)).max() < 1e-11

    def test_normalization_holds_without_renormalizing(self):
        # the one-step matrix acts on the deviation from the steady state, so
        # its rounding shrinks with the deviation (worst seen 2.2e-14); applied
        # to rho itself, its column sums (1 up to rounding) drift to the 1e-12
        # renormalization threshold within these 50 chained calls
        rng = np.random.default_rng(131)
        worst = 0.0
        for equal_gamma in (True, False, True, False, True):
            w = generator(rate_constants(random_system(rng),
                                         random_baths(rng, equal_gamma=equal_gamma)))
            rho = rng.dirichlet(np.ones(4))
            for _ in range(50):
                traj = evolve(rho, w, dt=1e-3, t_end=1.0, sample_stride=10)
                worst = max(worst, np.abs(traj.populations.sum(axis=1) - 1.0).max())
                rho = traj.populations[-1]
        assert worst < 2e-13

    def test_oversized_step_matches_stage_form(self):
        # dt from 0.5 to 4 over max|W_ii|, across RK4's stability limit: each
        # case fails where the stage-form loop fails, with its message, or
        # finishes on the stage-form samples
        rng = np.random.default_rng(141)
        finished = []
        for case in range(20):
            w = generator(rate_constants(random_system(rng),
                                         random_baths(rng, equal_gamma=case % 2 == 0))).matrix
            dt = rng.uniform(0.5, 4.0) / np.abs(np.diag(w)).max()
            rho0 = rng.dirichlet(np.ones(4))
            expected, message = stage_rk4(w, rho0, dt, 200, 10)
            if message is None:
                traj = evolve(rho0, w, dt=dt, t_end=200 * dt, sample_stride=10)
                assert np.abs(traj.populations - expected).max() < 1e-11
            else:
                with pytest.raises(IntegrationError) as exc:
                    evolve(rho0, w, dt=dt, t_end=200 * dt, sample_stride=10)
                assert str(exc.value) == message
            finished.append(message is None)
        assert any(finished) and not all(finished)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-4.0, math.log10(4.0)),
           stride=st.sampled_from((1, 2, 7, 10, 64)), strides=st.integers(0, 6),
           rest=st.integers(0, 63), zeros=st.sets(st.integers(0, 3), max_size=3),
           negative=st.none() | st.floats(-1e-9, 0.0, exclude_max=True))
    def test_matches_stage_form_oracle(self, seed, log_scale, stride, strides, rest,
                                       zeros, negative):
        # dt from 1e-4 to 4 over max|W_ii|, so R = one-step matrix falls on
        # both sides of R >= 0; step counts end on a partial stride; rho0
        # with zero entries and with an entry in [-1e-9, 0)
        rng = np.random.default_rng(seed)
        w = generator(rate_constants(random_system(rng),
                                     random_baths(rng, equal_gamma=seed % 2 == 0))).matrix
        dt = 10.0 ** log_scale / np.abs(np.diag(w)).max()
        n_steps = max(1, strides * stride + rest % stride)
        rho0 = rng.dirichlet(np.ones(4))
        rho0[sorted(zeros)] = 0.0
        rho0 /= rho0.sum()
        if negative is not None:
            low, high = int(np.argmin(rho0)), int(np.argmax(rho0))
            rho0[high] += rho0[low] - negative
            rho0[low] = negative
        assert_matches_stage_form(w, rho0, dt, n_steps, stride)

    @pytest.mark.parametrize("dt, rho0, jumps", [
        (1e-3, [0.4, 0.3, 0.2, 0.1], True),
        (1e-3, [0.4 + 1e-9, 0.3, 0.3, -1e-9], False),
        (0.9, [0.25, 0.25, 0.25, 0.25], False),
        (1.0, [0.25, 0.25, 0.25, 0.25], False),
    ], ids=["relax-workload-side", "negative-rho0", "negative-r", "negative-r-fails"])
    def test_jump_rule_sides_match_stage_form(self, monkeypatch, dt, rho0, jumps):
        # the kernel jumps a whole stride (one matrix power) only where R >= 0
        # and rho0 >= 0; the inverse_plane system at dt = 1e-3 is the relax
        # workload's side; each side gives the per-step outcome
        w = inverse_plane_generator()
        assert (one_step_matrix(w, dt).min() >= 0.0) == (dt == 1e-3)
        powers = []
        matrix_power = np.linalg.matrix_power
        monkeypatch.setattr(np.linalg, "matrix_power",
                            lambda r, n: powers.append(n) or matrix_power(r, n))
        assert_matches_stage_form(w, np.array(rho0), dt, 1003 if dt < 0.1 else 203, 10)
        assert powers == ([10, 3] if jumps else [])

    def test_peak_memory_is_the_result_arrays(self):
        # the samples go into one preallocated (n, 4) array: with the times
        # and the sample steps the peak is 1.5x that array, where a list of
        # 4-element arrays peaked at 8x
        w = inverse_plane_generator()
        tracemalloc.start()
        try:
            traj = evolve(np.full(4, 0.25), w, dt=1e-3, t_end=100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == 100_001
        assert peak < 3 * traj.populations.nbytes + 2**16

    def test_oversized_step_raises(self):
        rng = np.random.default_rng(111)
        rc = rate_constants(random_system(rng), random_baths(rng, equal_gamma=False))
        w = generator(rc)
        with pytest.raises(IntegrationError, match="smaller dt"):
            evolve(np.array([1.0, 0.0, 0.0, 0.0]), w, dt=3.0, t_end=3000.0)

    @pytest.mark.parametrize("dt, message", [
        (100.0, "normalization drift exceeded 1e-9 at step 1 (t=100); use a smaller dt"),
        (10.0, "population below -1e-9 at step 1 (t=10); use a smaller dt"),
    ], ids=["drift", "negative"])
    def test_oversized_step_names_the_check_it_fails(self, dt, message):
        rc = rate_constants(SystemParams(1.0, 2.5, -1.5), icc_reduction(1.8, 1.0, -0.1, 1.0, 3.0))
        with pytest.raises(IntegrationError) as exc:
            evolve(np.array([1.0, 0.0, 0.0, 0.0]), generator(rc), dt=dt, t_end=dt)
        assert str(exc.value) == message

    def test_bad_arguments(self):
        w = np.zeros((4, 4))
        with pytest.raises(ValueError):
            evolve(np.full(4, 0.25), w, dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            evolve(np.full(4, 0.25), w, dt=0.5, t_end=0.1)
        for shape in ((3, 3), (5, 5), (4, 5)):
            with pytest.raises(ValueError, match="4x4"):
                evolve(np.full(4, 0.25), np.zeros(shape), dt=0.1, t_end=1.0)
        # 10^10 steps, above MAX_STEPS: refused before the kernel runs
        with pytest.raises(ValueError, match="steps"):
            evolve(np.full(4, 0.25), w, dt=1e-300, t_end=1e-290)

    def test_overflowing_tree_weights_fall_back_to_zero_anchor(self):
        # ring rates of 1e120 overflow the spanning-tree weights (products of
        # three rates); the steady state is degenerate and the kernel runs on
        # rho itself, with no numpy warning on the way
        w = np.zeros((4, 4))
        w[[1, 0, 3, 1, 2, 3, 0, 2], [0, 1, 1, 3, 3, 2, 2, 0]] = 1e120
        np.fill_diagonal(w, -w.sum(axis=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve(np.full(4, 0.25), w, dt=1e-122, t_end=1e-120)
        assert np.abs(traj.populations - 0.25).max() < 1e-15

    def test_raw_matrix_is_validated_as_generator(self):
        # the steady state reads only the ring entries of W, so a raw array
        # that is not a generator must be refused, not integrated or solved
        w = generator(rate_constants(SystemParams(eps_b=1.0, eps_u=2.5, kappa=-1.5),
                                     equal_baths(beta=1.0, mu=1.0))).matrix
        blocked, leaky, negative = w.copy(), w.copy(), w.copy()
        blocked[1, 2] += 0.1
        blocked[2, 2] -= 0.1
        leaky[0, 1] += 0.1
        negative[3, 1] = -0.1
        negative[1, 1] = -negative[[0, 2, 3], 1].sum()
        for bad, match in ((blocked, "blocked"), (leaky, "sum to zero"),
                           (negative, "non-negative")):
            with pytest.raises(ValueError, match=match):
                evolve(np.full(4, 0.25), bad, dt=1e-3, t_end=0.01)
            with pytest.raises(ValueError, match=match):
                steady_state(bad)

    @pytest.mark.parametrize("dt, t_end", [(1e-3, np.inf), (np.nan, 1.0),
                                           (1e-3, np.nan), (np.inf, 1.0),
                                           (1e-300, 1e10)])  # t_end / dt overflows
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

    @pytest.mark.parametrize("stride", [3, np.int64(3)], ids=["int", "numpy-int64"])
    def test_integer_stride_of_either_type(self, stride):
        traj = evolve(np.full(4, 0.25), np.zeros((4, 4)), dt=0.1, t_end=1.0,
                      sample_stride=stride)
        assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0])

    def test_rho0_must_hold_four_values(self):
        with pytest.raises(ValueError, match="rho0"):
            evolve([0.5, 0.5], np.zeros((4, 4)), dt=0.01, t_end=0.1)
        with pytest.raises(ValueError, match="rho0"):
            evolve(np.full((2, 4), 0.25), np.zeros((4, 4)), dt=0.01, t_end=0.1)

    @pytest.mark.parametrize("rho0", [[0.5] * 4, [1.2, -0.2, 0.0, 0.0]],
                             ids=["sum-2", "negative"])
    def test_rho0_off_the_simplex_rejected(self, rho0):
        # these used to fail at step 1 with advice to use a smaller dt
        w = generator(rate_constants(SystemParams(eps_b=1.0, eps_u=2.5, kappa=-1.5),
                                     equal_baths(beta=1.0, mu=1.0)))
        with pytest.raises(ValueError, match="rho0 must sum to 1"):
            evolve(rho0, w, dt=1e-3, t_end=1.0)

    def test_rho0_within_drift_is_renormalized_at_the_first_step(self):
        rng = np.random.default_rng(151)
        w = generator(rate_constants(random_system(rng), random_baths(rng)))
        rho0 = np.full(4, 0.25)
        rho0[0] += 5e-12
        traj = evolve(rho0, w, dt=1e-3, t_end=0.1)
        assert np.array_equal(traj.populations[0], rho0)
        assert np.abs(traj.populations[1:].sum(axis=1) - 1.0).max() < 1e-12

    def test_list_input_accepted(self):
        traj = evolve([0.7, 0.1, 0.1, 0.1], np.zeros((4, 4)), dt=0.01, t_end=0.1)
        assert np.array_equal(traj.populations[-1], [0.7, 0.1, 0.1, 0.1])
