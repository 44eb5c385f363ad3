"""The dense-solve kernels the span tracer binds: solve4's (x, ok) contract
against numpy's dense solve, steady_rho and cycle_legs against the
spanning-tree ring."""
import numpy as np

from qdicc import _kernels, engine


class TestSolve4:
    def test_matches_numpy_on_random_systems(self):
        rng = np.random.default_rng(241)
        for _ in range(100):
            a = rng.normal(size=(4, 4))
            b = rng.normal(size=4)
            x, ok = _kernels.solve4(a, b)
            assert ok
            assert np.abs(x - np.linalg.solve(a, b)).max() < 1e-10 * max(
                1.0, np.abs(np.linalg.solve(a, b)).max())

    def test_flags_singular_matrix(self):
        a = np.zeros((4, 4))
        _x, ok = _kernels.solve4(a, np.ones(4))
        assert not ok

    def test_inputs_not_mutated(self):
        rng = np.random.default_rng(251)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=4)
        a0, b0 = a.copy(), b.copy()
        _kernels.solve4(a, b)
        assert np.array_equal(a, a0)
        assert np.array_equal(b, b0)


def test_steady_rho_and_cycle_legs_match_the_spanning_tree_ring():
    # the dense-solve kernels against engine.stationary, which reads the
    # same RING order: the legs are the same two products per leg, so equal
    rng = np.random.default_rng(261)
    for _ in range(100):
        w = _kernels.generator_matrix(10.0 ** rng.uniform(-2.0, 2.0, size=12))
        rho, _gamma_cw, legs, status = engine.stationary(w)
        assert status == engine.OK
        dense, ok = _kernels.steady_rho(w)
        assert ok
        assert np.abs(dense - rho).max() < 1e-13
        assert np.array_equal(_kernels.cycle_legs(w, rho), legs)
