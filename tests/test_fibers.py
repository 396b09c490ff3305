import math
import re

import numpy as np
import pytest

from fiberalloc import (
    actuation,
    asymptotic_diagnostics,
    crossing_parameters,
    fiber_point,
    fiber_tangent_space,
    forward_progress,
    jacobian,
    naive_minimum_norm_inverse,
    potential,
    potential_along_fiber,
    potential_gradient,
    potential_slope,
    section_intersection,
    smoothness_probe,
)
from fiberalloc.errors import WrongShapeError
from conftest import random_model

SQRT2 = math.sqrt(2.0)


class TestFiberPoint:
    def test_minimum_norm_point(self, m2):
        p = fiber_point(m2, [2.0], 0.0)
        np.testing.assert_allclose(p.v, [1.0, 1.0])
        np.testing.assert_allclose(actuation(m2, p.v), [2.0])

    def test_crossing_point(self, m2):
        p = fiber_point(m2, [2.0], SQRT2)
        np.testing.assert_allclose(p.v, [SQRT2, 0.0], atol=1e-12)
        np.testing.assert_allclose(actuation(m2, p.v), [2.0], atol=1e-12)
        assert p.divergent_indices == {1}

    # the on-hyperplane rule is relative to the task scale: a tiny task's
    # regular point keeps its components, a huge task's crossing loses one
    @pytest.mark.parametrize("w, lam, v, divergent", [
        ([2e-20], 0.0, [1e-10, 1e-10], set()),
        ([5e20], -5e20 / SQRT2, [0.0, math.sqrt(5e20)], {0}),
    ], ids=["tiny-task", "huge-task-crossing"])
    def test_task_scale(self, m2, w, lam, v, divergent):
        p = fiber_point(m2, w, lam)
        np.testing.assert_allclose(p.v, v, rtol=1e-12)
        assert p.divergent_indices == divergent

    def test_central_fiber_closed_form(self, m2):
        for lam in (0.5, 1.0, 7.3):
            p = fiber_point(m2, [0.0], lam)
            expect = math.sqrt(lam / SQRT2) * np.array([1.0, -1.0])
            np.testing.assert_allclose(p.v, expect, rtol=1e-12)


class TestCrossingParameters:
    def test_generic_n2(self, m2):
        tr = crossing_parameters(m2, [2.0])
        lams = [lam for lam, _ in tr.crossings]
        np.testing.assert_allclose(lams, [-SQRT2, SQRT2], rtol=1e-12)
        assert [i for _, i in tr.crossings] == [0, 1]
        assert tr.generic
        assert [str(s) for s in tr.orthant_sequence] == ["(-,+)", "(+,+)", "(+,-)"]

    def test_non_generic_central(self, m2):
        tr = crossing_parameters(m2, [0.0])
        assert not tr.generic
        assert len(tr.distinct_crossings) == 1
        assert tr.skipped_orthants == 1
        assert [str(s) for s in tr.orthant_sequence] == ["(-,+)", "(+,-)"]

    def test_generic_n3(self, m3):
        tr = crossing_parameters(m3, [4.0, -3.0])
        assert tr.generic
        assert len(tr.orthant_sequence) == 4
        assert str(tr.orthant_sequence[0]) == "(-,-,+)"
        assert str(tr.orthant_sequence[-1]) == "(+,+,-)"


@pytest.mark.parametrize("w", [[1.0], [1.0, 2.0, 3.0]], ids=["short", "long"])
@pytest.mark.parametrize("call", [
    lambda m, w: fiber_point(m, w, 0.5),
    lambda m, w: crossing_parameters(m, w),
    lambda m, w: potential_along_fiber(m, w, 0.5),
    lambda m, w: naive_minimum_norm_inverse(m, w),
    lambda m, w: smoothness_probe(m, w, w, 0.0, [1e-3], allocator="naive"),
], ids=["fiber_point", "crossing_parameters", "potential_along_fiber",
        "naive_minimum_norm_inverse", "naive_smoothness_probe"])
def test_task_of_the_wrong_length_is_refused(m3, call, w):
    # einsum would broadcast a length-1 task over every task component
    with pytest.raises(WrongShapeError,
                       match=rf"tasks have shape \(1, {len(w)}\), expected \(rows, 2\)"):
        call(m3, w)


@pytest.mark.parametrize("v", [[2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]]],
                         ids=["short", "long", "row"])
@pytest.mark.parametrize("call", [potential, potential_gradient,
                                  fiber_tangent_space, forward_progress,
                                  jacobian, actuation],
                         ids=lambda f: f.__name__)
def test_state_of_the_wrong_shape_is_refused(m3, call, v):
    # numpy would broadcast a 1-component state over every actuator
    with pytest.raises(WrongShapeError, match=re.escape(
            f"state has shape {np.shape(v)}, expected (3,)")):
        call(m3, v)


@pytest.mark.parametrize("lam_list", [[2.0, 1.0], [1.0, 1.0], [-1.0, 2.0],
                                      [0.0], [1.0, math.nan], [1.0, math.inf]])
def test_asymptotic_diagnostics_refuses_a_bad_lambda_list(m2, lam_list):
    with pytest.raises(ValueError, match="lam_list must be positive and "
                                         "strictly increasing"):
        asymptotic_diagnostics(m2, [2.0], lam_list)


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("call, name", [
    (lambda m, x: fiber_point(m, [1.0, x], 0.5), "task component 1"),
    (lambda m, x: crossing_parameters(m, [1.0, x]), "task component 1"),
    (lambda m, x: potential_along_fiber(m, [1.0, x], 0.5), "task component 1"),
    (lambda m, x: potential_slope(m, [1.0, x], 0.5), "task component 1"),
    (lambda m, x: section_intersection(m, [1.0, x], 0, 0.0), "task component 1"),
    (lambda m, x: fiber_point(m, [1.0, 2.0], x), "lambda"),
    (lambda m, x: potential_along_fiber(m, [1.0, 2.0], x), "lambda"),
    (lambda m, x: potential_slope(m, [1.0, 2.0], x), "lambda"),
], ids=["fiber_point", "crossing_parameters", "potential_along_fiber",
        "potential_slope", "section_intersection", "fiber_point-lambda",
        "potential_along_fiber-lambda", "potential_slope-lambda"])
def test_non_finite_task_is_refused(m3, call, name, value):
    # a NaN task would give a NaN trace marked generic, an infinite one a
    # -inf potential with every component on its hyperplane; an infinite
    # lambda would give an infinite potential with no boundary index, a NaN
    # one a NaN point
    with pytest.raises(ValueError, match=f"{name} is not finite: {value}"):
        call(m3, value)


class TestTangentSpace:
    def test_regular(self, m2):
        t = fiber_tangent_space(m2, [1.0, 1.0])
        np.testing.assert_allclose(t, [0.70711, -0.70711], atol=5e-6)

    def test_boundary_alignment(self, m2):
        direction = fiber_tangent_space(m2, [SQRT2, 0.0])
        assert set(np.flatnonzero(direction)) == {1}
        np.testing.assert_allclose(direction, [0.0, -1.0])

    @pytest.mark.parametrize("v, halted", [
        ([1e-13, 1.0], set()),
        ([5e-324, 1.0], {0}),
    ], ids=["below-old-cut-off", "subnormal-overflow"])
    def test_boundary_iff_b_over_v_not_finite(self, m2, v, halted):
        # 1e-13 is regular; b_0 / 5e-324 overflows, without a RuntimeWarning
        t = fiber_tangent_space(m2, v)
        if halted:
            assert set(np.flatnonzero(t)) == halted
            assert forward_progress(m2, v) == math.inf
        else:
            np.testing.assert_allclose(t, m2.b / np.abs(v), rtol=1e-15)
            assert math.isfinite(forward_progress(m2, v))

    def test_inverse_scaling(self, m2):
        t1 = fiber_tangent_space(m2, [1.0, 1.0])
        t2 = fiber_tangent_space(m2, [2.0, 2.0])
        np.testing.assert_allclose(t2, 0.5 * t1)

    def test_kernel_of_jacobian(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = rng.integers(2, 7)
            m = random_model(rng, n)
            v = rng.uniform(0.3, 2.0, size=n) * rng.choice([-1, 1], size=n)
            t = fiber_tangent_space(m, v)
            J = jacobian(m, v)
            assert np.linalg.norm(J @ t) <= 1e-9 * np.linalg.norm(J) * np.linalg.norm(t)


class TestForwardProgress:
    def test_value(self, m2):
        assert forward_progress(m2, [1.0, 1.0]) == pytest.approx(0.5946, abs=1e-4)

    def test_positive_everywhere(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = rng.integers(2, 7)
            m = random_model(rng, n)
            v = rng.uniform(0.01, 5.0, size=n) * rng.choice([-1, 1], size=n)
            assert forward_progress(m, v) > 0.0

    def test_divergence_near_boundary(self, m2):
        small = forward_progress(m2, [1.0, 1e-9])
        assert small > 1e6


class TestAsymptotics:
    def test_central_fiber_is_its_own_asymptote(self, m2):
        rows = asymptotic_diagnostics(m2, [0.0], [10.0, 100.0])
        for row in rows:
            assert row["distance"] == pytest.approx(0.0, abs=1e-12)
            assert row["angle"] == pytest.approx(0.0, abs=1e-7)

    def test_inverse_sqrt_decay(self, m2):
        rows = asymptotic_diagnostics(m2, [2.0], [1e4, 4e4])
        d = {row["lambda"]: row["distance"] for row in rows}
        assert d[1e4] / d[4e4] == pytest.approx(2.0, rel=0.05)

    def test_angle_monotone_beyond_last_crossing(self, m2):
        lams = np.geomspace(2.0, 1e5, 40)
        rows = [r for r in asymptotic_diagnostics(m2, [2.0], lams)
                if r["lambda"] > 0]
        angles = [r["angle"] for r in rows]
        assert all(a2 <= a1 + 1e-12 for a1, a2 in zip(angles, angles[1:]))


class TestFiberProperties:
    def test_map_identity_random(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = rng.integers(2, 7)
            m = random_model(rng, n)
            w = rng.normal(size=m.m)
            lam = float(rng.normal(scale=5.0))
            p = fiber_point(m, w, lam)
            err = np.linalg.norm(actuation(m, p.v) - w)
            assert err <= 1e-9 * (1.0 + np.linalg.norm(w))

    def test_componentwise_monotonicity(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            n = rng.integers(2, 7)
            m = random_model(rng, n)
            w = rng.normal(size=m.m)
            l1, l2 = sorted(rng.normal(scale=5.0, size=2))
            z = m.A_pinv @ w
            dx = (z + l2 * m.b) - (z + l1 * m.b)
            assert np.all(np.sign(dx) == np.sign(m.b))

    def test_traversal_count_random(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = rng.integers(2, 7)
            m = random_model(rng, n)
            tr = crossing_parameters(m, rng.normal(size=m.m))
            assert tr.generic
            assert len(tr.orthant_sequence) == n + 1
            sb = np.sign(m.b).astype(int)
            assert tr.orthant_sequence[0].sigma == tuple(-sb)
            assert tr.orthant_sequence[-1].sigma == tuple(sb)

    def test_transitional_image_excludes_origin(self, m3):
        # dense grid of unit states inside transitional orthant (+,+,+)
        g = np.linspace(0.05, 1.0, 25)
        pts = np.array(np.meshgrid(g, g, g)).reshape(3, -1).T
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        norms = [np.linalg.norm(actuation(m3, v)) for v in pts]
        assert min(norms) > 0.2
