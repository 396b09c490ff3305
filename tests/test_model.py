import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberalloc import (
    DegenerateRedundancyError,
    RankDeficientError,
    WrongShapeError,
    actuation,
    build_model,
    jacobian,
    load_model,
    transform,
    untransform,
)
from conftest import random_model


class TestBuildModel:
    def test_symmetric_1x2(self, m2):
        np.testing.assert_allclose(m2.b, [0.70711, -0.70711], atol=5e-6)
        np.testing.assert_allclose(m2.c, [0.84090, -0.84090], atol=5e-6)

    def test_asymmetric_1x2(self, m2a):
        np.testing.assert_allclose(m2a.b, [0.89443, -0.44721], atol=5e-6)

    def test_standard_2x3(self, m3):
        np.testing.assert_allclose(m3.b, [0.40825, 0.40825, -0.81650], atol=5e-6)

    def test_wrong_shape(self):
        with pytest.raises(WrongShapeError):
            build_model([[1.0, 1.0, 0.0]])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_refused(self, value):
        with pytest.raises(ValueError,
                           match="allocation matrix has non-finite entries"):
            build_model([[1.0, 1.0, 1.0], [1.0, value, 0.0]])

    def test_rank_deficient(self):
        with pytest.raises(RankDeficientError):
            build_model([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])

    def test_degenerate_redundancy_reports_index(self):
        # kernel of this matrix is (1, -1, 0)/sqrt(2): actuator 3 is critical
        with pytest.raises(DegenerateRedundancyError) as exc:
            build_model([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert exc.value.index == 2

    def test_sign_convention(self):
        rng = np.random.default_rng(7)
        for n in range(2, 8):
            assert random_model(rng, n).b[0] > 0

    def test_random_model_gives_up_on_wide_models(self):
        # a unit 70-vector almost always has a component below 0.05
        with pytest.raises(ValueError, match=r"n = 70 .* min_b = 0\.05"):
            random_model(np.random.default_rng(13), 70)

    def test_null_space_quality(self):
        rng = np.random.default_rng(11)
        for n in range(2, 9):
            m = random_model(rng, n)
            assert np.linalg.norm(m.A @ m.b) / np.linalg.norm(m.A) <= 1e-12
            assert abs(np.linalg.norm(m.b) - 1.0) <= 1e-12
            np.testing.assert_allclose(m.A @ m.A_pinv, np.eye(m.m), atol=1e-10)


class TestForwardMap:
    def test_actuation_examples(self, m2, m3):
        np.testing.assert_allclose(actuation(m2, [1, 1]), [2.0])
        np.testing.assert_allclose(actuation(m2, [1, -1]), [0.0])
        np.testing.assert_allclose(actuation(m3, [1, 2, -1]), [4.0, -3.0])

    def test_jacobian_examples(self, m2, m3):
        np.testing.assert_allclose(jacobian(m2, [1, 1]), [[2, 2]])
        np.testing.assert_allclose(jacobian(m2, [3, 0]), [[6, 0]])
        np.testing.assert_allclose(
            jacobian(m3, [1, 2, -1]), [[2, 4, 2], [2, -4, 0]])

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(2, 7)
            m = random_model(rng, n)
            v = rng.normal(size=n)
            k = float(rng.uniform(0.1, 10.0))
            np.testing.assert_allclose(
                actuation(m, k * v), k**2 * actuation(m, v), rtol=1e-10)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(20):
            n = rng.integers(2, 7)
            m = random_model(rng, n)
            v = rng.uniform(0.5, 2.0, size=n) * rng.choice([-1, 1], size=n)
            J = jacobian(m, v)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                col = (actuation(m, v + e) - actuation(m, v - e)) / (2 * h)
                np.testing.assert_allclose(col, J[:, i], atol=1e-5)


class TestTransform:
    def test_examples(self):
        np.testing.assert_allclose(transform([2, -3]), [4, -9])
        np.testing.assert_allclose(untransform([4, -9]), [2, -3])
        np.testing.assert_allclose(transform([0, 1]), [0, 1])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=2, max_size=8))
    def test_round_trip(self, vals):
        v = np.array(vals)
        np.testing.assert_allclose(untransform(transform(v)), v,
                                   rtol=1e-12, atol=1e-12)


class TestLoader:
    def test_load_valid(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"A": [[1.0, 1.0]]}))
        m = load_model(path)
        np.testing.assert_allclose(m.b, [0.70711, -0.70711], atol=5e-6)

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_model(path)

    @pytest.mark.parametrize("doc", [
        [[1.0, 1.0]], {"B": [[1.0, 1.0]]}, {"A": 5}, {"A": [1, 2]},
        {"A": []}, {"A": [[1.0, 1.0], 2.0]}, {"A": "[[1, 1]]"},
        {"A": [[1.0, {}]]}, {"A": [[1.0, "x"]]}, {"A": [[True, 2.0]]}])
    def test_load_not_a_matrix(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"model\.json: .*non-empty list"):
            load_model(path)

    def test_load_integer_beyond_the_float_range(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"A": [[1, 1, 1], [1, -1, 1' + "0" * 400 + "]]}")
        with pytest.raises(ValueError, match=r"big\.json: .*float64 range"):
            load_model(path)

    def test_load_json_nested_too_deeply(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"A": ' + "[" * 100_000 + "]" * 100_000 + "}")
        with pytest.raises(ValueError, match=r"deep\.json: JSON nested too deeply"):
            load_model(path)

    def test_load_ragged(self, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"A": [[1.0, 1.0, 0.0], [1.0, 1.0]]}))
        with pytest.raises(ValueError, match="ragged"):
            load_model(path)
