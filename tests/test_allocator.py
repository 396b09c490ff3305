import math
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberalloc import (
    ConfinementError,
    ExtremalSolveError,
    NonGenericSegmentError,
    OriginExcludedError,
    SectionInverseConfig,
    SectionSolveError,
    WrongShapeError,
    actuation,
    crossing_parameters,
    extremal_inverse,
    extremal_inverse_batch,
    layer_section,
    lift_trajectory,
    naive_minimum_norm_inverse,
    potential,
    raise_for_status,
    section_inverse,
    smoothness_probe,
)
from fiberalloc.model import EPS_ZERO
from fiberalloc.potential import OUT_OF_RANGE, SOLVED
from conftest import assert_on_leaf, log_potential, model_with_b, random_model

SQRT2 = math.sqrt(2.0)


class TestExtremalInverse:
    def test_closed_form(self, m2):
        v = extremal_inverse(m2, [2.0], 0.0)
        np.testing.assert_allclose(v, [1.55377, -0.64359], atol=5e-6)

    def test_zero_task(self, m2):
        # C = 0 on the central fiber sits at lambda = sqrt(2), i.e. v = (1, -1)
        v = extremal_inverse(m2, [0.0], 0.0)
        np.testing.assert_allclose(v, [1.0, -1.0], atol=1e-10)
        np.testing.assert_allclose(actuation(m2, v), [0.0], atol=1e-10)

    def test_right_inverse_property(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            m = random_model(rng, int(rng.integers(2, 7)))
            w = rng.normal(size=m.m, scale=3.0)
            C = float(rng.normal())
            v = extremal_inverse(m, w, C)
            err = np.linalg.norm(actuation(m, v) - w)
            assert err <= 1e-9 * (1.0 + np.linalg.norm(w))
            pv = potential(m, v)
            if pv.finite:
                assert pv.value == pytest.approx(C, abs=1e-8)
            else:
                # the level sits below the boundary band: the solver reached
                # it in split form, leaving a component within eps_zero of 0
                assert np.min(np.abs(v)) <= EPS_ZERO

    def test_orthant_confinement(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            m = random_model(rng, int(rng.integers(2, 7)))
            w = rng.normal(size=m.m, scale=3.0)
            vp = extremal_inverse(m, w, 0.0, branch="positive")
            vn = extremal_inverse(m, w, 0.0, branch="negative")
            assert np.all(np.sign(vp) == np.sign(m.b))
            assert np.all(np.sign(vn) == -np.sign(m.b))
            assert np.min(np.abs(vp)) > 0.0

    def test_injectivity_on_a_leaf(self):
        rng = np.random.default_rng(107)
        for _ in range(50):
            m = random_model(rng, int(rng.integers(2, 5)))
            w1 = rng.normal(size=m.m)
            w2 = rng.normal(size=m.m)
            v1 = extremal_inverse(m, w1, 0.5)
            v2 = extremal_inverse(m, w2, 0.5)
            assert np.linalg.norm(v1 - v2) > 1e-12 * np.linalg.norm(w1 - w2)

    def test_batch_matches_scalar(self, m3):
        rng = np.random.default_rng(109)
        W = rng.normal(size=(20, 2))
        for branch in ("positive", "negative"):
            V = extremal_inverse_batch(m3, W, 0.3, branch=branch)
            for wk, vk in zip(W, V):
                np.testing.assert_allclose(
                    vk, extremal_inverse(m3, wk, 0.3, branch=branch), atol=1e-10)


class TestExtremalLogOffsetSolve:
    def test_batch_on_leaf_at_large_tasks(self, m2a, m3, m3bal):
        # 110 bisections in lambda missed the leaf by up to 2e-6 here
        rng = np.random.default_rng(113)
        for m in (m3, m3bal, m2a):
            W = rng.normal(size=(200, m.m))
            W *= 5e2 / np.linalg.norm(W, axis=1, keepdims=True)
            for branch in ("positive", "negative"):
                assert_on_leaf(m, extremal_inverse_batch(m, W, 0.0, branch),
                               W, 0.0)

    def test_batch_deep_negative_level(self):
        # the batch bracket search gave up at C = -30
        rng = np.random.default_rng(127)
        for _ in range(20):
            m = random_model(rng, int(rng.integers(2, 7)))
            W = rng.normal(size=(20, m.m))
            for branch in ("positive", "negative"):
                assert_on_leaf(m, extremal_inverse_batch(m, W, -30.0, branch),
                               W, -30.0)

    @pytest.mark.parametrize("C, scale", [(30.0, 1.0), (60.0, 1.0),
                                          (0.0, 1e150)])
    def test_scalar_and_batch_beyond_the_old_lambda_cap(self, m2, m3, m3bal,
                                                        C, scale):
        rng = np.random.default_rng(131)
        for m in (m2, m3, m3bal):
            W = scale * rng.normal(size=(8, m.m))
            for branch in ("positive", "negative"):
                V = extremal_inverse_batch(m, W, C, branch)
                assert_on_leaf(m, V, W, C)
                for wk, vk in zip(W, V):
                    assert np.array_equal(extremal_inverse(m, wk, C, branch), vk)

    @pytest.mark.parametrize("branch, C", [("positive", -200.0),
                                           ("negative", 200.0)])
    def test_unrepresentable_state_names_the_row(self, m3, branch, C):
        W = np.array([[1.0, 0.5], [0.0, 1e150], [2.0, 1.0]])
        with pytest.raises(ExtremalSolveError) as exc:
            extremal_inverse_batch(m3, W, C, branch)
        assert exc.value.row == 1
        assert np.array_equal(exc.value.w, W[1])
        assert "row 1" in str(exc.value)

    def test_non_finite_task_names_the_row(self, m3):
        # the row sits in the second chunk of the batch solve
        k = import_module("fiberalloc.allocator").SOLVE_CHUNK_ROWS + 7
        W = np.ones((k + 3, 2))
        W[k, 0] = np.nan
        with pytest.raises(ExtremalSolveError) as exc:
            extremal_inverse_batch(m3, W, 0.0)
        assert exc.value.row == k

    def test_iteration_cap_names_the_row(self, m3, monkeypatch):
        monkeypatch.setattr(import_module("fiberalloc.potential"),
                            "NEWTON_MAX_ITER", 1)
        W = np.array([[0.0, 0.0], [3.0, -1.0]])
        with pytest.raises(ExtremalSolveError, match="Newton") as exc:
            extremal_inverse_batch(m3, W, 0.5)
        assert exc.value.row == 1
        assert np.array_equal(exc.value.w, W[1])

    @pytest.mark.parametrize("w", [[1.0], [1.0, 2.0, 3.0]])
    def test_wrong_task_length_is_refused(self, m3, w):
        # a short task must not read as zero-padded, a long one must not
        # surface as an IndexError
        with pytest.raises(WrongShapeError, match=r"\(rows, 2\)"):
            extremal_inverse(m3, w)
        with pytest.raises(WrongShapeError):
            extremal_inverse_batch(m3, np.tile(w, (3, 1)))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(2, 8),
           model_seed=st.integers(0, 2**32 - 1),
           branch=st.sampled_from(["positive", "negative"]))
    def test_known_states_scalar_equals_batch(self, data, n, model_seed, branch):
        # states built first, tasks and levels derived from them, so a
        # representable answer exists for every draw
        rng = np.random.default_rng(model_seed)
        m = random_model(rng, n)
        exps = np.array(data.draw(st.lists(
            st.floats(-100.0, 100.0), min_size=n, max_size=n)))
        sign = 1.0 if branch == "positive" else -1.0
        v = sign * np.sign(m.b) * 10.0 ** exps
        # more states on the same leaf: log offsets orthogonal to |b|
        d = rng.normal(scale=20.0, size=(3, n))
        ab = np.abs(m.b)
        d -= np.outer(d @ ab, ab) / (ab @ ab)
        V0 = np.vstack([v, v * np.exp(d)])
        W = (V0 * np.abs(V0)) @ m.A.T
        C = float(log_potential(m, v)[0])
        V = extremal_inverse_batch(m, W, C, branch)
        assert_on_leaf(m, V, W, C)
        assert np.array_equal(extremal_inverse(m, W[0], C, branch), V[0])
        # a Fortran-ordered batch and a row-strided view solve each row as
        # it is solved alone
        for layout in (np.asfortranarray(W), np.repeat(W, 2, axis=0)[::2]):
            V_l = extremal_inverse_batch(m, layout, C, branch)
            for k in range(len(W)):
                assert np.array_equal(extremal_inverse(m, W[k], C, branch), V_l[k])


class TestSectionInverse:
    def test_middle_layer(self, m2):
        sp, report = section_inverse(m2, [2.0], SectionInverseConfig(layer=1))
        assert sp.layer == 1
        assert np.min(np.abs(sp.v)) > 0.0
        assert report is None
        np.testing.assert_allclose(actuation(m2, sp.v), [2.0], rtol=1e-9)

    def test_origin_excluded(self, m2):
        with pytest.raises(OriginExcludedError):
            section_inverse(m2, [0.0], SectionInverseConfig(layer=1))

    def test_non_generic_layer_skip(self, m2):
        # a fiber with merged crossings skips intermediate layers; build one
        # from a task whose crossings coincide (w = 0 shifted is generic, so
        # use the central fiber via a near-zero task on an asymmetric model)
        with pytest.raises((NonGenericSegmentError, OriginExcludedError)):
            section_inverse(m2, [0.0], SectionInverseConfig(layer=1))

    def test_hinge_proximity_report(self, m3bal, monkeypatch):
        # a task generated by a state next to a hinge pulls the transitional
        # inverse into the margin band
        v_near = np.array([1e-4, 1.0, -2e-4])
        sig = tuple(int(np.sign(x)) for x in v_near)
        from fiberalloc import classify_orthant
        layer = classify_orthant(m3bal, sig).layer
        w = actuation(m3bal, v_near)
        C = potential(m3bal, v_near).value
        monkeypatch.setattr(import_module("fiberalloc.allocator"),
                            "HINGE_MARGIN", 1e-3)
        sp, report = section_inverse(m3bal, w, SectionInverseConfig(layer=layer, C=C))
        assert report is not None
        assert set(report.index_pair) == {0, 2}
        assert report.min_abs_v < 1e-3
        np.testing.assert_allclose(sp.v, v_near, rtol=1e-6)


    def test_layer_between_crossings_closer_than_eps_gap(self, m3):
        # crossings 1e-9 apart, far outside their noise bound: the trace keeps
        # them apart, and the solver solves the layer between them
        lam_star, lam = np.array([0.0, 1e-9, 1.0]), 5e-10
        u = m3.b * (lam - lam_star)
        v = np.sign(u) * np.sqrt(np.abs(u))
        w = actuation(m3, v)
        C = float(log_potential(m3, v)[0])
        assert crossing_parameters(m3, w).generic
        sp, _ = section_inverse(m3, w, SectionInverseConfig(layer=1, C=C))
        assert sp.layer == 1
        assert tuple(sp.orthant.sigma) == tuple(np.sign(v).astype(int))
        assert_on_leaf(m3, sp.v, w, C)


class TestBoundedSectionSolve:
    """layer_section on transitional layers, and its batch-of-one wrappers."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(3, 8),
           model_seed=st.integers(0, 2**32 - 1),
           decades=st.sampled_from([1.0, 6.0, 30.0, 100.0]))
    def test_known_states(self, data, n, model_seed, decades):
        # states built first, tasks and levels derived from them, so a
        # representable answer exists for every draw
        rng = np.random.default_rng(model_seed)
        m = random_model(rng, n)
        layer = data.draw(st.integers(1, n - 1))
        entered = np.zeros(n, dtype=bool)
        entered[rng.choice(n, size=layer, replace=False)] = True
        exps = np.array(data.draw(st.lists(
            st.floats(-decades, decades), min_size=n, max_size=n)))
        v = np.where(entered, 1.0, -1.0) * np.sign(m.b) * 10.0 ** exps
        # more states on the same leaf and orthant, plus a NaN and an inf task
        d = rng.normal(scale=3.0, size=(3, n))
        ab = np.abs(m.b)
        d -= np.outer(d @ ab, ab) / (ab @ ab)
        V0 = np.vstack([v, v * np.exp(d)])
        W = np.vstack([(V0 * np.abs(V0)) @ m.A.T, np.full((2, m.m), np.nan)])
        W[-1] = np.inf
        C = float(log_potential(m, v)[0])
        V, _, status = layer_section(m, W, layer, C)
        config = SectionInverseConfig(layer=layer, C=C)
        solved = status == SOLVED
        assert not solved[-2:].any()
        if solved.any():
            assert_on_leaf(m, V[solved], W[solved], C)
            entered_out = np.sign(V[solved]) * np.sign(m.b) > 0
            assert np.all(entered_out.sum(axis=1) == layer)
        # the rows of a Fortran-ordered batch and of a row-strided view
        layouts = [layer_section(m, X, layer, C)[0]
                   for X in (np.asfortranarray(W), np.repeat(W, 2, axis=0)[::2])]
        for k in range(len(W)):
            if solved[k]:
                v = section_inverse(m, W[k], config)[0].v
                assert np.array_equal(v, V[k])
                assert all(np.array_equal(v, V_l[k]) for V_l in layouts)
                continue
            # a failed row is named, in the batch and as a batch of one
            errors = (NonGenericSegmentError, SectionSolveError)
            with pytest.raises(errors, match=f"row {k}\\b"):
                raise_for_status(m, W[k:], layer, status[k:], first_row=k)
            with pytest.raises(errors, match="row 0"):
                section_inverse(m, W[k], config)

    @pytest.mark.parametrize("C", [-2000.0, 2000.0])
    def test_unrepresentable_state_names_the_row(self, m3, C):
        W = np.array([[1.0, 0.5], [2.0, -1.0]])
        _, _, status = layer_section(m3, W, 1, C)
        with pytest.raises(SectionSolveError, match="float64 range") as exc:
            raise_for_status(m3, W, 1, status)
        assert exc.value.row == 0
        assert not isinstance(exc.value, ExtremalSolveError)

    def test_iteration_cap_names_the_row(self, m3, monkeypatch):
        monkeypatch.setattr(import_module("fiberalloc.potential"),
                            "NEWTON_MAX_ITER", 1)
        with pytest.raises(SectionSolveError, match="Newton") as exc:
            section_inverse(m3, [3.0, -1.0], SectionInverseConfig(layer=2, C=7.0))
        assert exc.value.row == 0
        assert np.array_equal(exc.value.w, [3.0, -1.0])

    def test_layers_0_and_n_are_the_extremal_inverse(self, m3):
        W = np.array([[1.0, 0.5], [0.0, 0.0], [-3.0, 2.0]])
        for layer, branch in ((0, "negative"), (3, "positive")):
            V, _, status = layer_section(m3, W, layer, 0.4)
            assert np.all(status == SOLVED)
            assert np.array_equal(V, extremal_inverse_batch(m3, W, 0.4, branch))

    @pytest.mark.parametrize("layer, C", [(-1, 0.0), (4, 0.0), (1, math.inf)])
    def test_bad_layer_or_level_is_refused(self, m3, layer, C):
        with pytest.raises(ValueError):
            layer_section(m3, [[1.0, 0.5]], layer, C)

    def test_state_whose_squares_underflow_is_out_of_range(self, m3):
        # a subnormal task: on layers 1 and 2 max|v_i| is about 1e-160, so
        # every v_i^2 underflows and f(v) = w cannot be checked; the state was
        # returned as solved with a task residual 4.5e7 times the bound
        W = np.array([[1e-320, -3e-321]])
        for layer in (1, 2):
            _, _, status = layer_section(m3, W, layer, 0.0)
            with pytest.raises(SectionSolveError, match="float64 range"):
                raise_for_status(m3, W, layer, status)
        # the extremal states of the same task have max|v_i| of about 1.19
        for layer in (0, 3):
            V, _, status = layer_section(m3, W, layer, 0.0)
            assert np.all(status == SOLVED)
            assert np.max(np.abs(V)) > 1.0

    def test_task_whose_crossings_overflow_is_out_of_range(self, m3):
        # a finite task whose crossings overflow: no segment can be located,
        # and its crossings do not coincide (REFUSED) either
        W = np.array([[1.7e308, 1.7e308]])
        for layer in range(4):
            assert layer_section(m3, W, layer, 0.0)[2][0] == OUT_OF_RANGE

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 8), model_seed=st.integers(0, 2**32 - 1),
           decades=st.floats(0.0, 6.0), C=st.floats(-50.0, 50.0))
    def test_mirror(self, n, model_seed, decades, C):
        # (w, layer, C) and (-w, n - layer, -C) are mirror images, v -> -v;
        # on layers 0 and n bit for bit
        rng = np.random.default_rng(model_seed)
        m = random_model(rng, n)
        W = rng.normal(size=(4, m.m)) * 10.0 ** rng.uniform(-decades, decades,
                                                            size=(4, 1))
        for layer in range(n + 1):
            V, lam, status = layer_section(m, W, layer, C)
            V_m, lam_m, status_m = layer_section(m, -W, n - layer, -C)
            assert np.array_equal(status, status_m)
            if layer in (0, n):
                assert np.array_equal(V, -V_m) and np.array_equal(lam, -lam_m)
                continue
            ok = status == SOLVED
            np.testing.assert_allclose(V[ok], -V_m[ok], rtol=1e-13, atol=0.0)


class TestNaiveInverse:
    def test_examples(self, m2):
        np.testing.assert_allclose(naive_minimum_norm_inverse(m2, [2.0]), [1, 1])
        np.testing.assert_allclose(naive_minimum_norm_inverse(m2, [-2.0]), [-1, -1])

    def test_sqrt_cusp(self, m2):
        for eps in (1e-2, 1e-4, 1e-6):
            v = naive_minimum_norm_inverse(m2, [eps])
            np.testing.assert_allclose(v, math.sqrt(eps / 2.0) * np.ones(2),
                                       rtol=1e-12)


class TestLiftTrajectory:
    def test_sin_extremal_confined(self, m2):
        t = np.linspace(0.0, 2 * np.pi, 10_001)
        lift = lift_trajectory(m2, t, np.sin(t)[:, None], "extremal")
        assert lift.signature_changes == 0
        assert lift.masks[0] == 0b01   # signature (+,-): only v_1 > 0
        assert lift.max_speed < 10.0

    def test_sin_naive_flips_and_spikes(self, m2):
        t = np.linspace(0.0, 2 * np.pi, 10_001)
        lift = lift_trajectory(m2, t, np.sin(t)[:, None], "naive")
        assert lift.signature_changes >= 2
        coarse = lift_trajectory(m2, t[::4], np.sin(t[::4])[:, None], "naive")
        assert lift.max_speed > 1.5 * coarse.max_speed

    def test_constant_task_zero_speed(self, m3):
        t = np.linspace(0.0, 1.0, 100)
        W = np.tile([1.0, 0.5], (100, 1))
        for allocator in ("extremal", "naive", "section"):
            lift = lift_trajectory(m3, t, W, allocator,
                                   config=SectionInverseConfig(layer=1))
            assert lift.max_speed == pytest.approx(0.0, abs=1e-9)

    def test_mismatched_shape_is_refused(self, m3):
        t = np.linspace(0.0, 1.0, 5)
        W = np.ones((5, 2))
        with pytest.raises(WrongShapeError, match=r"\(2, 5\).*\(5,\)"):
            lift_trajectory(m3, t, W.T, "extremal")
        with pytest.raises(WrongShapeError):
            lift_trajectory(m3, t[:4], W, "naive")

    def test_confinement_violation_is_typed(self, m2, monkeypatch):
        def flipping(model, W, C=0.0, branch="positive"):
            V = np.tile(model.c, (len(W), 1))
            V[3:] *= -1.0
            return V
        monkeypatch.setattr(import_module("fiberalloc.allocator"),
                            "extremal_inverse_batch", flipping)
        t = np.linspace(0.0, 1.0, 6)
        with pytest.raises(ConfinementError, match="sample 3") as exc:
            lift_trajectory(m2, t, t[:, None], "extremal")
        assert exc.value.sample == 3

    def test_masks_beyond_64_actuators(self):
        m = model_with_b(np.linspace(1.0, 2.0, 70) * (-1.0) ** np.arange(70))
        t = np.linspace(0.0, 1.0, 4)
        W = np.outer(np.sin(3.0 * t), np.ones(69))
        for allocator in ("extremal", "naive"):
            lift = lift_trajectory(m, t, W, allocator)
            for v, k in zip(lift.v, lift.masks):
                assert [k >> i & 1 for i in range(70)] == list(v > 0)
        assert lift_trajectory(m, t, W, "extremal").signature_changes == 0

    def test_section_error_names_sample_and_time(self, m3):
        t = np.linspace(0.0, 1.0, 6)
        W = np.tile([1.0, 0.5], (6, 1))
        W[3, 1] = np.nan
        with pytest.raises(SectionSolveError, match=r"sample 3 \(t = 0\.6\)") as exc:
            lift_trajectory(m3, t, W, "section",
                            config=SectionInverseConfig(layer=1))
        assert exc.value.row == 3
        assert exc.value.t == t[3]

    def test_section_through_origin_reports_sample(self, m2):
        t = np.linspace(-1.0, 1.0, 21)  # crosses w = 0 at t = 0
        with pytest.raises(OriginExcludedError) as exc:
            lift_trajectory(m2, t, t[:, None], "section",
                            config=SectionInverseConfig(layer=1))
        assert any("sample 10" in str(arg) for arg in exc.value.args)


class TestSmoothnessProbe:
    def test_extremal_stable_at_origin(self, m2):
        rows = smoothness_probe(m2, [0.0], [1.0], 0.0, [1e-4, 1e-5, 1e-6])
        quotients = [r["quotient"] for r in rows]
        assert quotients[0] == pytest.approx(quotients[-1], rel=0.01)

    def test_naive_diverges_at_origin(self, m2):
        rows = smoothness_probe(m2, [0.0], [1.0], 0.0, [1e-4, 1e-6],
                                allocator="naive")
        q = [r["quotient"] for r in rows]
        assert q[1] / q[0] == pytest.approx(10.0, rel=0.05)  # h^(-1/2) growth

    def test_both_finite_away_from_crossings(self, m2):
        for allocator in ("extremal", "naive"):
            rows = smoothness_probe(m2, [3.0], [1.0], 0.0, [1e-4, 1e-5, 1e-6],
                                    allocator=allocator)
            q = [r["quotient"] for r in rows]
            assert q[0] == pytest.approx(q[-1], rel=0.01)
