import math

import numpy as np
import pytest

from fiberalloc import (
    BoundaryStateError,
    CrossingStateError,
    actuation,
    crossing_parameters,
    extremal_inverse,
    fiber_segments,
    jacobian,
    potential,
    potential_along_fiber,
    potential_gradient,
    potential_near_crossing,
    potential_slope,
    section_intersection,
)
from conftest import assert_on_leaf, random_model

SQRT2 = math.sqrt(2.0)
INV_SQRT2 = 1.0 / SQRT2


def dense_scan_roots(model, w, lo, hi, C, points=100_000):
    """Independent oracle: count sign changes of C_w - C on a dense grid.

    Evaluates the fiber-restricted potential directly from its definition,
    bypassing the library's solver path.
    """
    z = model.A_pinv @ np.atleast_1d(w)
    lam = np.linspace(lo, hi, points)
    u = z[None, :] + lam[:, None] * model.b[None, :]
    vals = 0.5 * np.sum(model.b * np.sign(u) * np.log(np.abs(u)), axis=1) - C
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    return lam[sign_change]


class TestPotential:
    def test_zero_at_ones(self, m2):
        assert potential(m2, [1.0, 1.0]).value == pytest.approx(0.0)

    def test_log_value(self, m2):
        assert potential(m2, [math.e, 1.0]).value == pytest.approx(INV_SQRT2)

    def test_boundary_sentinel(self, m2):
        p = potential(m2, [1.0, 0.0])
        assert p.value == -math.inf
        assert p.boundary_indices == {1}
        assert not p.finite

    def test_opposing_divergence_is_indeterminate(self, m2):
        p = potential(m2, [0.0, 1e-15])
        assert p.indeterminate


class TestGradient:
    def test_equals_b_at_unit_state(self, m2):
        np.testing.assert_allclose(potential_gradient(m2, [1.0, 1.0]), m2.b)

    def test_componentwise_scaling(self, m2):
        np.testing.assert_allclose(
            potential_gradient(m2, [2.0, 1.0]), [0.35355, -0.70711], atol=5e-6)

    def test_boundary_raises(self, m2):
        with pytest.raises(BoundaryStateError):
            potential_gradient(m2, [1.0, 0.0])

    def test_matches_finite_differences(self, m2):
        v = np.array([1.3, -0.7])
        h = 1e-7
        g = potential_gradient(m2, v)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (potential(m2, v + e).value - potential(m2, v - e).value) / (2 * h)
            assert fd == pytest.approx(g[i], abs=1e-6)

    def test_foliation_orthogonal_to_task_directions(self):
        # columns of D(v) A^T span the task-actuating subspace; the potential
        # gradient must be orthogonal to all of them
        rng = np.random.default_rng(43)
        for _ in range(200):
            n = rng.integers(2, 7)
            m = random_model(rng, n)
            v = rng.uniform(0.2, 3.0, size=n) * rng.choice([-1, 1], size=n)
            cols = np.abs(v)[:, None] * m.A.T
            g = potential_gradient(m, v)
            for j in range(m.m):
                dot = abs(cols[:, j] @ g)
                assert dot <= 1e-9 * np.linalg.norm(cols[:, j]) * np.linalg.norm(g)


class TestPotentialAlongFiber:
    def test_closed_form_zero(self, m2):
        assert potential_along_fiber(m2, [2.0], 2.0).value == pytest.approx(0.0, abs=1e-12)

    def test_crossing_sentinel(self, m2):
        p = potential_along_fiber(m2, [2.0], SQRT2)
        assert not p.finite

    def test_central_fiber_closed_form(self, m2):
        # C(lambda) = (1/(2 sqrt 2)) ln(lambda^2 / 2) on the central fiber
        assert potential_along_fiber(m2, [0.0], SQRT2).value == pytest.approx(0.0, abs=1e-12)
        lam = 3.7
        expect = (1.0 / (2.0 * SQRT2)) * math.log(lam**2 / 2.0)
        assert potential_along_fiber(m2, [0.0], lam).value == pytest.approx(expect)

    def test_agrees_with_potential_of_fiber_point(self, m2):
        from fiberalloc import fiber_point
        for lam in (-3.0, 0.3, 2.5):
            direct = potential_along_fiber(m2, [2.0], lam).value
            via_gamma = potential(m2, fiber_point(m2, [2.0], lam).v).value
            assert direct == pytest.approx(via_gamma, abs=1e-10)


class TestPotentialSlope:
    def test_value(self, m2):
        assert potential_slope(m2, [2.0], 0.0) == pytest.approx(0.5)

    def test_crossing_raises(self, m2):
        with pytest.raises(CrossingStateError):
            potential_slope(m2, [2.0], SQRT2)

    def test_matches_finite_difference(self, m2):
        h = 1e-7
        fd = (potential_along_fiber(m2, [2.0], 2.0 + h).value
              - potential_along_fiber(m2, [2.0], 2.0 - h).value) / (2 * h)
        assert potential_slope(m2, [2.0], 2.0) == pytest.approx(fd, abs=1e-6)

    def test_positive_everywhere(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            m = random_model(rng, int(rng.integers(2, 7)))
            assert potential_slope(m, rng.normal(size=m.m),
                                   float(rng.normal(scale=3))) > 0.0


class TestSectionIntersection:
    def test_extremal_closed_form(self, m2):
        sp = section_intersection(m2, [2.0], 2, 0.0)
        assert sp.lam == pytest.approx(2.0, abs=1e-10)
        np.testing.assert_allclose(sp.v, [1.55377, -0.64359], atol=5e-6)
        np.testing.assert_allclose(actuation(m2, sp.v), [2.0], rtol=1e-10)
        assert sp.layer == 2

    def test_central_fiber_positive_segment(self, m2):
        sp = section_intersection(m2, [0.0], 1, 0.0)
        assert sp.lam == pytest.approx(SQRT2, abs=1e-10)
        np.testing.assert_allclose(sp.v, [1.0, -1.0], atol=1e-10)

    def test_middle_segment_vs_dense_scan(self, m2):
        sp = section_intersection(m2, [2.0], 1, 0.0)
        assert -SQRT2 < sp.lam < SQRT2
        roots = dense_scan_roots(m2, [2.0], -SQRT2 + 1e-6, SQRT2 - 1e-6, 0.0,
                                 points=1_000_000)
        assert len(roots) == 1
        assert sp.lam == pytest.approx(roots[0], abs=1e-5)

    def test_strict_monotonicity_on_segments(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            m = random_model(rng, int(rng.integers(2, 7)))
            w = rng.normal(size=m.m)
            tr = crossing_parameters(m, w)
            segs = fiber_segments(m, tr)
            lo, hi = segs[rng.integers(len(segs))]
            lo = max(lo, (hi if math.isfinite(hi) else 0.0) - 10.0)
            hi = min(hi, lo + 10.0)
            lams = np.sort(rng.uniform(lo + 1e-6, hi - 1e-6, size=10))
            vals = [potential_along_fiber(m, w, x).value for x in lams]
            assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_unbounded_segments_are_the_extremal_inverse(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            m = random_model(rng, int(rng.integers(2, 6)))
            w = rng.normal(size=m.m)
            C = float(rng.normal(scale=30.0))
            tr = crossing_parameters(m, w)
            for seg, branch in ((0, "negative"),
                                (len(tr.distinct_crossings), "positive")):
                sp = section_intersection(m, w, seg, C, trace=tr)
                assert np.array_equal(sp.v, extremal_inverse(m, w, C, branch))
                assert sp.layer == (m.n if branch == "positive" else 0)

    def test_segment_after_merged_crossings_is_on_their_layer(self, m3):
        # crossings 0 and 1e-9 merge in the trace: segment 1 lies in layer 2
        w = m3.A @ (m3.b * (0.5 - np.array([0.0, 1e-9, 1.0])))
        tr = crossing_parameters(m3, w)
        assert [len(idx) for _, idx in tr.distinct_crossings] == [2, 1]
        sp = section_intersection(m3, w, 1, 0.3, trace=tr)
        assert sp.layer == 2
        assert tr.distinct_crossings[0][0] < sp.lam < tr.distinct_crossings[1][0]
        assert_on_leaf(m3, sp.v, w, 0.3)

    def test_reproducible_to_1e10(self, m2):
        a = section_intersection(m2, [1.7], 1, 0.4).lam
        b = section_intersection(m2, [1.7], 1, 0.4).lam
        assert abs(a - b) <= 1e-10

    def test_same_leaf_same_segment_coincide(self):
        # the pair (layer, potential) identifies a unique leaf: equal C on the
        # same fiber segment must give the same state
        rng = np.random.default_rng(59)
        for _ in range(20):
            m = random_model(rng, int(rng.integers(2, 5)))
            w = rng.normal(size=m.m)
            C = float(rng.normal())
            seg = int(rng.integers(m.n + 1))
            p1 = section_intersection(m, w, seg, C)
            p2 = section_intersection(m, w, seg, C)
            np.testing.assert_allclose(p1.v, p2.v, atol=1e-10)
            # accuracy floor near a crossing is slope-limited: one ulp of
            # lambda moves C by slope * eps * |lambda|
            from fiberalloc import potential_slope
            floor = potential_slope(m, w, p1.lam) * (abs(p1.lam) + 1) * 1e-15
            assert potential(m, p1.v).value == pytest.approx(C, abs=1e-8 + floor)


class TestBoundaryLimits:
    def test_potential_diverges_at_segment_ends(self, m3):
        tr = crossing_parameters(m3, [4.0, -3.0])
        # transitional segment 1: entry crossing index 0, exit crossing index 1
        entry = potential_near_crossing(m3, tr, 0, "above", math.log(1e-6))
        exit_ = potential_near_crossing(m3, tr, 1, "below", math.log(1e-6))
        assert entry < -1.0
        assert exit_ > 1.0
        # far below the representable offset range the divergence continues
        assert potential_near_crossing(m3, tr, 0, "above", -1e4) < -1e3
        assert potential_near_crossing(m3, tr, 1, "below", -1e4) > 1e3

    def test_matches_direct_evaluation_at_representable_offsets(self, m3):
        tr = crossing_parameters(m3, [4.0, -3.0])
        lam_star = tr.distinct_crossings[1][0]
        delta = 1e-8
        split = potential_near_crossing(m3, tr, 1, "below", math.log(delta))
        direct = potential_along_fiber(m3, [4.0, -3.0], lam_star - delta).value
        # split form freezes the non-vanishing components at lam_star: O(delta)
        assert split == pytest.approx(direct, abs=1e-6)
