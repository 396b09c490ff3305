"""The section solver's kernel: its log-sum, and rows that solve the same in
every batch."""
import numpy as np
import pytest

from fiberalloc import layer_section
from fiberalloc import section
from fiberalloc.section import SOLVED
from conftest import log_potential, random_model


def assert_logaddexp(a, x, ulps=4):
    """section._logaddexp(a, x) is np.logaddexp(a, x) to ``ulps`` units in
    the last place of max(|result|, 1): near 0 the sum max(a, x) + log1p(..)
    cancels, and both round on the scale of its terms."""
    with np.errstate(invalid="ignore"):   # inf - inf, as in layer_section
        got, ref = section._logaddexp(a, x), np.logaddexp(a, x)
    assert np.array_equal(np.isfinite(got), np.isfinite(ref))
    finite = np.isfinite(ref)
    assert np.array_equal(got[~finite], ref[~finite], equal_nan=True)
    scale = np.spacing(np.maximum(np.abs(ref[finite]), 1.0))
    assert np.all(np.abs(got[finite] - ref[finite]) <= ulps * scale)


class TestLogSum:
    @pytest.mark.parametrize("scale", [1.0, 10.0, 700.0, 1e5, 1e300])
    def test_random_finite_pairs(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)))
        a, x = rng.uniform(-scale, scale, size=(2, 20000))
        assert_logaddexp(a, x)

    def test_equal_arguments(self):
        a = np.random.default_rng(1).normal(scale=100.0, size=5000)
        assert_logaddexp(a, a.copy())
        assert_logaddexp(np.array([0.0, -0.0, 1e-300, -745.0]),
                         np.array([0.0, 0.0, 1e-300, -745.0]))

    def test_far_apart_arguments(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-50.0, 50.0, size=20000)
        x = a + rng.uniform(-1e3, 1e3, size=20000)
        assert_logaddexp(a, x)

    @pytest.mark.parametrize("inf", [np.inf, -np.inf])
    def test_infinite_argument(self, inf):
        x = np.array([-1e300, -3.0, 0.0, 2.5, 1e300, inf, np.nan])
        assert_logaddexp(np.full_like(x, inf), x)
        assert_logaddexp(x, np.full_like(x, inf))

    def test_broadcast_rows(self):
        # the solver's shapes: a (k, n) array of log offsets and a column of r
        rng = np.random.default_rng(3)
        log_off = np.log(rng.exponential(size=(300, 5)))
        log_off[rng.random((300, 5)) < 0.2] = -np.inf   # a vanishing offset
        assert_logaddexp(log_off, rng.normal(scale=5.0, size=(300, 1)))


class TestBatchInvariance:
    """A row of layer_section is solved the same alone, in a batch of 7 and
    in a batch of 4100 rows, more than one solve_rows chunk."""

    @pytest.mark.parametrize("n", [3, 6])
    def test_rows_are_bit_identical_in_every_batch(self, n):
        rng = np.random.default_rng(40 + n)
        m = random_model(rng, n)
        rows = section.SOLVE_CHUNK_ROWS + 4
        # known states on random layers with |v_i| over 12 decades
        V0 = np.sign(rng.normal(size=(rows, n))) * 10.0 ** rng.uniform(
            -6.0, 6.0, size=(rows, n))
        W = (V0 * np.abs(V0)) @ m.A.T
        C = float(np.median(log_potential(m, V0)))
        picks = [0, 1, 2, rows // 2, rows - 2, rows - 1]
        for layer in range(n + 1):
            V, lam, status = layer_section(m, W, layer, C)
            assert np.any(status == SOLVED)
            for lo in (0, section.SOLVE_CHUNK_ROWS - 3, rows - 7):
                V7, lam7, status7 = layer_section(m, W[lo:lo + 7], layer, C)
                assert np.array_equal(V7, V[lo:lo + 7], equal_nan=True)
                assert np.array_equal(lam7, lam[lo:lo + 7], equal_nan=True)
                assert np.array_equal(status7, status[lo:lo + 7])
            for k in picks:
                V1, lam1, status1 = layer_section(m, W[k], layer, C)
                assert np.array_equal(V1[0], V[k], equal_nan=True)
                assert np.array_equal(lam1[0], lam[k], equal_nan=True)
                assert status1[0] == status[k]
            # solve_rows chunks the batch, and its rows are those of one call
            solved = status == SOLVED
            V_rows, lam_rows = section.solve_rows(m, W[solved], layer, C)
            assert np.array_equal(V_rows, V[solved])
            assert np.array_equal(lam_rows, lam[solved])
