"""The hand-rolled 4x4 solver kernel against numpy's dense solve."""
import numpy as np

from qdicc import _kernels


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
