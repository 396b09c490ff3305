import argparse
import csv
import io
import json
import os
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import warnings
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberalloc import (actuation, allocator, build_model, classify_orthant,
                        crossing_parameters, errors, extremal_signature,
                        fiber_point, section, strata)
from fiberalloc.errors import (ConfinementError, DegenerateRedundancyError,
                               FiberAllocError, RankDeficientError,
                               SectionSolveError, WrongShapeError)
from fiberalloc.section import SOLVED
from fiberalloc.strata import orthant_masks
from fiberalloc.cli import COMMANDS, build_parser, main
from conftest import assert_on_leaf, known_state, log_potential, random_model

cli = import_module("fiberalloc.cli")
DATA = Path(__file__).parent / "data"


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]}))
    return str(path)


@pytest.fixture()
def model2_file(tmp_path):
    path = tmp_path / "model2.json"
    path.write_text(json.dumps({"A": [[1.0, 1.0]]}))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        comment = fh.readline()
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return comment, header, rows


def assert_csv_writer_bytes(path, text_col=None):
    """A comment line, then the bytes csv.writer writes for the header and
    rows with every float at %.17g: \r\n endings, the text column quoted."""
    comment, header, rows = read_csv(path)
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    for r in rows:
        writer.writerow([x if j == text_col else f"{float(x):.17g}"
                         for j, x in enumerate(r)])
    assert path.read_bytes() == (comment + text.getvalue()).encode()
    return comment, rows


def run_cli(parse, argv, capsys):
    """(exit code, stdout, stderr) of one call that exits through argparse."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestValidate:
    def test_ok(self, model_file, capsys):
        assert main(["validate", "--model", model_file]) == 0
        out = capsys.readouterr().out
        assert "2 x 3" in out
        assert "OK" in out

    def test_wrong_shape(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"A": [[1.0, 1.0]] * 2}))
        assert main(["validate", "--model", str(bad)]) == 1
        assert "validation error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--model", str(tmp_path / "nope.json")]) == 3

    def test_not_a_matrix(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"A": [1, 2]}))
        assert main(["validate", "--model", str(bad)]) == 1
        assert "bad.json" in capsys.readouterr().err


class TestFibers:
    def test_outputs_and_self_check(self, model2_file, tmp_path, capsys):
        out = tmp_path / "fib"
        rc = main(["fibers", "--model", model2_file, "--out", str(out),
                   "--w", "2.0", "--w", "-1.5", "--seed", "7"])
        assert rc == 0
        comment, header, rows = read_csv(out / "fiber_0.csv")
        assert comment.startswith("#") and "seed=7" in comment
        assert header == ["lambda", "v_1", "v_2", "is_crossing"]
        assert len(rows) >= 400
        # crossing rows are flagged and have a zero component
        marked = [r for r in rows if r[-1] == "1"]
        assert marked
        for r in marked:
            assert min(abs(float(r[1])), abs(float(r[2]))) == 0.0
        assert (out / "central_fiber.csv").exists()

    @pytest.mark.parametrize("lam", ["1e8", "1e21"])
    def test_self_check_far_out_along_the_fiber(self, model_file, tmp_path,
                                                lam):
        # the residual of a point far out grows with ||v||^2, as the rounding
        # of f(v) does
        out = tmp_path / "fib"
        assert main(["fibers", "--model", model_file, "--out", str(out),
                     "--w=4,-3", f"--lam-min=-{lam}", f"--lam-max={lam}",
                     "--samples", "50"]) == 0
        assert (out / "fiber_0.csv").exists()

    def test_csv_format(self, model2_file, tmp_path):
        out = tmp_path / "fib"
        assert main(["fibers", "--model", model2_file, "--out", str(out),
                     "--w", "2.0", "--samples", "50", "--seed", "4"]) == 0
        for name in ("fiber_0.csv", "central_fiber.csv"):
            comment, rows = assert_csv_writer_bytes(out / name)
            assert comment == "# fiberalloc 0.1.0 seed=4\n"
            assert {r[-1] for r in rows} == {"0", "1"}

    def test_window_leaves_a_crossing_out(self, model_file, tmp_path):
        # the fiber of w = (2, 1) crosses at -2.86, -0.41 and 0.82; the
        # window [-0.5, 0.3] holds only the second.  Each row is the point
        # fiber_point gives at its lambda, bit for bit.
        model = build_model([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
        out = tmp_path / "fib"
        assert main(["fibers", "--model", model_file, "--out", str(out),
                     "--w=2,1", "--lam-min=-0.5", "--lam-max=0.3",
                     "--samples", "401"]) == 0
        _, _, rows = read_csv(out / "fiber_0.csv")
        table = np.array(rows, dtype=float)
        lams = [lam for lam, _ in crossing_parameters(model, [2.0, 1.0]).crossings]
        assert table[table[:, -1] == 1, 0].tolist() == [lams[1]]
        grid = np.linspace(-0.5, 0.3, 401)
        assert table[:, 0].tolist() == sorted([*grid, lams[1]])
        for row in table:
            np.testing.assert_array_equal(
                row[1:4], fiber_point(model, [2.0, 1.0], row[0]).v)

    @pytest.mark.parametrize("samples, zero", [("400", "-0"), ("401", "0")])
    def test_central_fiber_crosses_once_at_zero(self, model_file, tmp_path,
                                                samples, zero):
        # the central fiber's crossings are -0.0, -0.0 and 0.0 (the sign of
        # -0.0 / b_i).  They make one row, marked; a grid of 401 points holds
        # 0.0 and gives its lambda, one of 400 does not and the first
        # crossing gives it.
        out = tmp_path / "fib"
        assert main(["fibers", "--model", model_file, "--out", str(out),
                     "--w=2,1", "--samples", samples]) == 0
        _, _, rows = read_csv(out / "central_fiber.csv")
        assert len(rows) == 401
        assert [r for r in rows if r[-1] == "1"] == [[zero, "0", "0", "0", "1"]]

    @pytest.mark.parametrize("w", ["--w=2", "--w=2,1,3"], ids=["short", "long"])
    def test_wrong_task_length_is_validation_error(self, model_file, tmp_path,
                                                   capsys, w):
        # a refused task leaves no file, not even that of the good task
        # before it
        out = tmp_path / "fib"
        assert main(["fibers", "--model", model_file, "--out", str(out),
                     "--w=1,1", w]) == 1
        shape = (1, len(w.split(",")))
        assert capsys.readouterr().err == (
            f"validation error: tasks have shape {shape}, expected (rows, 2)\n")
        assert not out.exists()

    @pytest.mark.parametrize("w", ["--w=nan,1", "--w=1,-inf"])
    def test_non_finite_task_is_solver_error(self, model_file, tmp_path,
                                             capsys, w):
        out = tmp_path / "fib"
        assert main(["fibers", "--model", model_file, "--out", str(out),
                     "--w=2,1", w, "--samples", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solver error: no fiber for w = [")
        assert err.endswith(": the task is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("lam_min, lam_max", [("1", "-1"), ("nan", "1"),
                                                  ("-1", "inf")])
    def test_reversed_or_infinite_window_is_validation_error(
            self, model_file, tmp_path, capsys, lam_min, lam_max):
        out = tmp_path / "fib"
        assert main(["fibers", "--model", model_file, "--out", str(out),
                     "--w=2,1", f"--lam-min={lam_min}",
                     f"--lam-max={lam_max}"]) == 1
        assert capsys.readouterr().err == (
            f"validation error: --lam-min={lam_min} and --lam-max={lam_max} "
            "must be finite, with --lam-min <= --lam-max\n")
        assert not out.exists()

    def test_nan_residual_fails_the_self_check(self, model_file, tmp_path,
                                               capsys, monkeypatch):
        # NaN compares False with any bound, so the check asks err <= bound
        def nan_fiber(model, w, lam):
            x = np.full((len(lam), model.n), np.nan)
            return x, np.zeros(x.shape, bool)

        monkeypatch.setattr(cli, "_on_fiber", nan_fiber)
        out = tmp_path / "fib"
        assert main(["fibers", "--model", model_file, "--out", str(out),
                     "--w=2,1", "--samples", "5"]) == 2
        assert capsys.readouterr().err == (
            "solver error: self-check failed: |f(v) - w| = nan\n")
        assert not out.exists()


class TestFoliation:
    def test_level_sets(self, model_file, tmp_path):
        out = tmp_path / "fol"
        rc = main(["foliation", "--model", model_file, "--out", str(out),
                   "--layer", "3", "--C", "0.0", "--C", "1.0",
                   "--grid", "8", "--seed", "3"])
        assert rc == 0
        for tag in ("0", "1"):
            _, header, rows = read_csv(out / f"foliation_C{tag}.csv")
            assert rows, "level set came out empty"
            assert header[:3] == ["v_1", "v_2", "v_3"]

    def test_states_below_eps_zero_pass_the_self_check(self, model_file,
                                                       tmp_path):
        # layer-1 states at C = -20 have a component near 1e-22; a self-check
        # that cut Phi off at eps_zero = 1e-12 aborted the command here
        out = tmp_path / "fol"
        assert main(["foliation", "--model", model_file, "--out", str(out),
                     "--layer", "1", "--C=-20", "--grid", "4", "--seed", "0"]) == 0
        _, _, rows = read_csv(out / "foliation_C-20.csv")
        assert len(rows) == 4 * 5
        V = np.array([[float(x) for x in r[:3]] for r in rows])
        W = np.array([[float(x) for x in r[5:]] for r in rows])
        assert np.min(np.abs(V)) < 1e-20
        model = build_model([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
        assert_on_leaf(model, V, W, -20.0)
        for r, v in zip(rows, V):
            assert r[4] == str(classify_orthant(model, np.sign(v)))

    def test_reproducible(self, model_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["foliation", "--model", model_file, "--out", str(out),
                  "--layer", "3", "--C", "0.5", "--grid", "8", "--seed", "11"])
            outs.append((out / "foliation_C0.5.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_csv_format(self, model_file, tmp_path):
        # layer 1 at C = -20 has components near 1e-22; the orthant column
        # sits between the floats and is quoted
        out = tmp_path / "fol"
        assert main(["foliation", "--model", model_file, "--out", str(out),
                     "--layer", "1", "--C=-20", "--C", "0.5", "--grid", "8",
                     "--seed", "6"]) == 0
        for tag in ("-20", "0.5"):
            comment, rows = assert_csv_writer_bytes(
                out / f"foliation_C{tag}.csv", text_col=4)
            assert comment == "# fiberalloc 0.1.0 seed=6\n"
            assert len(rows) == 8 * 5
            assert {r[4] for r in rows} <= {"(+,-,+)", "(-,+,+)", "(-,-,-)"}

    def test_orthant_is_its_layer(self, model_file, tmp_path):
        # --orthant keeps the rows of its layer's run that lie in the orthant
        model = build_model([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
        layer = classify_orthant(model, (1, -1, 1)).layer
        outs = []
        for option in ("--orthant=(+,-,+)", f"--layer={layer}"):
            out = tmp_path / option[2:9]
            assert main(["foliation", "--model", model_file, "--out", str(out),
                         option, "--C", "0.5", "--grid", "8"]) == 0
            _, _, rows = read_csv(out / "foliation_C0.5.csv")
            outs.append(rows)
        assert outs[0] and {r[4] for r in outs[0]} == {"(+,-,+)"}
        assert outs[0] == [r for r in outs[1] if r[4] == "(+,-,+)"]

    @pytest.mark.parametrize("orthant", ["+,-", "+,x,+", "+,-,+,+"],
                             ids=["short", "bad-sign", "long"])
    def test_invalid_orthant_is_validation_error(self, model_file, tmp_path,
                                                 capsys, orthant):
        rc = main(["foliation", "--model", model_file, "--out", str(tmp_path),
                   f"--orthant={orthant}", "--C", "0"])
        assert rc == 1
        assert "validation error: sigma must be a +/-1 vector of length 3" in \
            capsys.readouterr().err

    def test_empty_magnitude_is_validation_error(self, model_file, tmp_path,
                                                 capsys):
        rc = main(["foliation", "--model", model_file, "--out", str(tmp_path),
                   "--layer", "3", "--C", "0", "--magnitudes=0.25,,4"])
        assert rc == 1
        assert "validation error: empty entry in the vector '0.25,,4'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_magnitude_is_validation_error(self, model_file,
                                                      tmp_path, capsys, entry):
        out = tmp_path / "fol"
        rc = main(["foliation", "--model", model_file, "--out", str(out),
                   "--layer", "3", "--C", "0", "--grid", "4",
                   f"--magnitudes=1,{entry}"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"validation error: --magnitudes '1,{entry}': entry 2 is {entry}, "
            "not finite\n")
        assert not out.exists()

    def test_bad_later_level_writes_nothing(self, model_file, tmp_path,
                                            capsys):
        # every --C is checked before the first file is written, or the file
        # of --C 0 would be written before --C nan is refused
        argv = ["foliation", "--model", model_file, "--layer", "3", "--C", "0",
                "--C", "nan", "--grid", "4", "--out"]
        out = tmp_path / "fol"
        assert main(argv + [str(out)]) == 1
        assert capsys.readouterr().err == \
            "validation error: target potential level must be finite\n"
        assert not out.exists()
        old = tmp_path / "foliation_C0.csv"
        old.write_bytes(b"old")
        assert main(argv + [str(tmp_path)]) == 1
        assert old.read_bytes() == b"old"

    @pytest.mark.parametrize("state, err", [(1.0, "1"), (np.nan, "nan")],
                             ids=["off-the-leaf", "nan"])
    def test_failed_self_check_is_solver_error(self, model_file, tmp_path,
                                               capsys, monkeypatch, state, err):
        def off_the_leaf(model, W, layer, C):
            rows = len(W)
            return (np.full((rows, model.n), state), np.zeros(rows),
                    np.full(rows, SOLVED))

        monkeypatch.setattr(cli, "layer_section", off_the_leaf)
        out = tmp_path / "fol"
        assert main(["foliation", "--model", model_file, "--out", str(out),
                     "--layer", "3", "--C", "1", "--grid", "4"]) == 2
        assert capsys.readouterr().err == (
            f"solver error: self-check failed: |Phi(v) - C| = {err}\n")
        assert not out.exists()


class TestStrata:
    @pytest.mark.parametrize("layer", range(5))
    def test_files_are_pinned(self, tmp_path, layer):
        # integer combinatorics of a model with b = (+, -, +, +): the same
        # bytes on every machine
        model = tmp_path / "model4.json"
        model.write_text(json.dumps(
            {"A": [[1, 2, 0, 1], [0, 1, 1, -1], [1, 0, -1, 1]]}))
        assert main(["strata", "--model", str(model), "--out", str(tmp_path),
                     "--layer", str(layer)]) == 0
        for name in (f"layer_{layer}.json", f"layer_{layer}.dot"):
            assert (tmp_path / name).read_bytes() == \
                (DATA / "strata_3x4" / name).read_bytes()

    def test_layer_graph(self, model_file, tmp_path, capsys):
        out = tmp_path / "strata"
        rc = main(["strata", "--model", model_file, "--out", str(out),
                   "--layer", "1"])
        assert rc == 0
        doc = json.loads((out / "layer_1.json").read_text())
        assert len(doc["nodes"]) == 3
        dot = (out / "layer_1.dot").read_text()
        assert dot.startswith("graph")
        assert "3 orthants" in capsys.readouterr().out

    def test_layer_beyond_the_hinge_cap_is_validation_error(
            self, model_file, tmp_path, capsys, monkeypatch):
        # layer 1 of the 2 x 3 model has 3 hinges
        monkeypatch.setattr(import_module("fiberalloc.strata"), "MAX_HINGES", 2)
        rc = main(["strata", "--model", model_file, "--out",
                   str(tmp_path / "strata"), "--layer", "1"])
        assert rc == 1
        assert ("validation error: layer 1 of n = 3 has 3 reciprocal hinges, "
                "more than the cap of MAX_HINGES = 2") in capsys.readouterr().err
        assert not (tmp_path / "strata").exists()

    @pytest.mark.parametrize("layer", ["0", "3"])
    def test_extremal_layer_is_one_orthant(self, model_file, tmp_path, capsys,
                                           layer):
        out = tmp_path / "strata"
        assert main(["strata", "--model", model_file, "--out", str(out),
                     "--layer", layer]) == 0
        doc = json.loads((out / f"layer_{layer}.json").read_text())
        assert len(doc["nodes"]) == 1
        assert doc["edges"] == [] and doc["connected"]
        assert "1 orthants, 0 reciprocal hinges" in capsys.readouterr().out


#: Floats of an invert document: signed zeros, subnormals, numbers near the
#: ends of the float64 range, infinities and NaN among any others.
JSON_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1e-300, -1e-300,
    1e300, -1e300, 1.7976931348623157e308, np.inf, -np.inf, np.nan,
]) | st.floats()


class TestInvert:
    def test_extremal_json(self, model2_file, capsys):
        rc = main(["invert", "--model", model2_file, "--w", "2.0", "--C", "0.0"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["v"], [1.55377, -0.64359], atol=5e-6)
        np.testing.assert_allclose(doc["actuation_check"], [2.0], rtol=1e-9)

    def test_unrepresentable_state_is_solver_error(self, model_file, capsys):
        rc = main(["invert", "--model", model_file, "--w=0,1e150", "--C=-200"])
        assert rc == 2
        assert "row 0" in capsys.readouterr().err

    @pytest.mark.parametrize("w, reason", [
        ("--w=1.7e308,1.7e308", "crossings lambda*_i = -(A_pinv w)_i / b_i or "
                                "their noise bounds overflow"),
        ("--w=inf,1", "the task is not finite"),
    ], ids=["overflowed-crossings", "infinite-task"])
    def test_no_state_computed_names_the_cause(self, model_file, capsys, w,
                                               reason):
        rc = main(["invert", "--model", model_file, w, "--layer", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "section solve failed at row 0" in err and reason in err
        assert "the state has" not in err

    @pytest.mark.parametrize("w", ["--w=1", "--w=1,2,3", "--w=1,,2"])
    def test_wrong_task_length_is_validation_error(self, model_file, capsys, w):
        rc = main(["invert", "--model", model_file, w])
        assert rc == 1
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("layer, branch", [("0", "negative"),
                                               ("3", "positive")])
    def test_extremal_layer_is_the_branch(self, model_file, capsys, layer,
                                          branch):
        docs = []
        for option in (f"--layer={layer}", f"--branch={branch}"):
            assert main(["invert", "--model", model_file, "--w=2,1",
                         option]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("branch", ["positive", "negative"])
    def test_branch_layer_is_the_extremal_signatures(self, branch):
        rng = np.random.default_rng(7)
        for n in (2, 3, 6):
            model = build_model(rng.normal(size=(n - 1, n)))
            args = argparse.Namespace(branch=branch, layer=None)
            assert cli._layer(model, args) == \
                extremal_signature(model, branch).layer

    @pytest.mark.parametrize("layer", [[], ["--layer=0"], ["--layer=1"],
                                       ["--layer=3"]],
                             ids=["default", "0", "1", "n"])
    def test_solve_builds_no_orthant_signature(self, model_file, capsys,
                                               monkeypatch, layer):
        # invert prints no orthant signature, so it builds none
        def no_signature(*args):
            raise AssertionError("an orthant signature was built")
        for module in (section, strata):
            monkeypatch.setattr(module, "signature_from_mask", no_signature)
        assert main(["invert", "--model", model_file, "--w=2,1", *layer]) == 0
        assert json.loads(capsys.readouterr().out)["v"]

    def test_output_is_section_inverse(self, tmp_path, capsys, monkeypatch):
        # the state and hinge report of section_inverse on every layer of
        # n = 2..6; a wide hinge margin reports most transitional states
        monkeypatch.setattr(allocator, "HINGE_MARGIN", 0.5)
        rng = np.random.default_rng(11)
        path, reports = tmp_path / "model.json", 0
        for n in range(2, 7):
            model = random_model(rng, n)
            path.write_text(json.dumps({"A": model.A.tolist()}))
            for layer in range(n + 1):
                v = known_state(rng, model, layer)
                w = actuation(model, v)
                C = float(log_potential(model, v[None, :])[0])
                assert main(["invert", "--model", str(path),
                             "--w=" + ",".join(map(repr, w.tolist())),
                             f"--C={C!r}", f"--layer={layer}"]) == 0
                doc = json.loads(capsys.readouterr().out)
                sp, report = allocator.section_inverse(model, w, layer, C)
                assert doc["v"] == sp.v.tolist()
                assert doc["hinge_proximity"] == (None if report is None else {
                    "index_pair": list(report.index_pair),
                    "min_abs_v": report.min_abs_v})
                reports += report is not None
        assert reports >= 10

    def test_stdout_is_json_dumps_of_the_document(self, tmp_path, capsys,
                                                  monkeypatch):
        # on every layer of n = 2..5, with and without a hinge report
        monkeypatch.setattr(allocator, "HINGE_MARGIN", 0.5)
        rng = np.random.default_rng(12)
        path = tmp_path / "model.json"
        for n in range(2, 6):
            model = random_model(rng, n)
            path.write_text(json.dumps({"A": model.A.tolist()}))
            for layer in range(n + 1):
                v = known_state(rng, model, layer)
                w = actuation(model, v)
                C = float(log_potential(model, v[None, :])[0])
                assert main(["invert", "--model", str(path),
                             "--w=" + ",".join(map(repr, w.tolist())),
                             f"--C={C!r}", f"--layer={layer}"]) == 0
                sp, report = allocator.section_inverse(model, w, layer, C)
                doc = {"w": w.tolist(), "C": C, "v": sp.v.tolist(),
                       "actuation_check": actuation(model, sp.v).tolist(),
                       "hinge_proximity": None if report is None else {
                           "index_pair": list(report.index_pair),
                           "min_abs_v": report.min_abs_v}}
                assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(w=st.lists(JSON_FLOATS, min_size=1, max_size=7), C=JSON_FLOATS,
           v=st.lists(JSON_FLOATS, min_size=2, max_size=8),
           check=st.lists(JSON_FLOATS, min_size=1, max_size=7),
           hinge=st.none() | st.tuples(st.integers(0, 7), st.integers(0, 7),
                                       JSON_FLOATS))
    def test_writer_is_json_dumps(self, w, C, v, check, hinge):
        doc = {"w": w, "C": C, "v": v, "actuation_check": check,
               "hinge_proximity": None if hinge is None else {
                   "index_pair": list(hinge[:2]), "min_abs_v": hinge[2]}}
        assert cli._invert_json(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("name, text", [
        ("big.json", '{"A": [[1, 1, 1], [1, -1, 1' + "0" * 400 + "]]}"),
        ("deep.json", '{"A": ' + "[" * 100_000 + "]" * 100_000 + "}"),
    ], ids=["integer-beyond-float64", "nested-too-deeply"])
    def test_unreadable_model_is_validation_error(self, tmp_path, capsys,
                                                  name, text):
        path = tmp_path / name
        path.write_text(text)
        assert main(["invert", "--model", str(path), "--w=1,2"]) == 1
        assert capsys.readouterr().err.startswith(f"validation error: {path}: ")

    def test_transitional_origin_is_solver_error(self, model2_file, capsys):
        rc = main(["invert", "--model", model2_file, "--w", "0.0",
                   "--layer", "1"])
        assert rc == 2
        assert "solver error" in capsys.readouterr().err


def write_trajectory(tmp_path):
    """A 501-sample trajectory of the one-task model: w_1 = sin t."""
    path = tmp_path / "traj.csv"
    t = np.linspace(0.0, 2 * np.pi, 501)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "w_1"])
        for tk in t:
            writer.writerow([f"{tk:.17g}", f"{np.sin(tk):.17g}"])
    return str(path)


class TestLift:
    def test_extremal_summary(self, model2_file, tmp_path, capsys):
        traj = write_trajectory(tmp_path)
        out = tmp_path / "lift"
        rc = main(["lift", "--model", model2_file, "--trajectory", traj,
                   "--allocator", "extremal", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "lift_extremal.json").read_text())
        assert summary["signature_changes"] == 0
        assert summary["samples"] == 501
        assert summary["min_abs_v"] > 0.0
        _, header, rows = read_csv(out / "lift_extremal.csv")
        assert header[-1] == "signature"
        assert len(rows) == 501

    def test_naive_flips(self, model2_file, tmp_path):
        traj = write_trajectory(tmp_path)
        out = tmp_path / "lift"
        rc = main(["lift", "--model", model2_file, "--trajectory", traj,
                   "--allocator", "naive", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "lift_naive.json").read_text())
        assert summary["signature_changes"] >= 2

    @pytest.mark.parametrize("samples, k", [(["0,nan,1"], 0),
                                            (["0,1,0", "1,nan,1", "2,1,1"], 1)],
                             ids=["one-sample", "three-samples"])
    def test_naive_non_finite_task_is_solver_error(self, model_file, tmp_path,
                                                   capsys, samples, k):
        # named as a task, not as the speed it would give
        traj = tmp_path / "traj.csv"
        traj.write_text("t,w_1,w_2\n" + "\n".join(samples) + "\n")
        rc = main(["lift", "--model", model_file, "--trajectory", str(traj),
                   "--allocator", "naive", "--out", str(tmp_path / "lift")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"solver error: naive solve failed at sample {k} "
                              f"(t = {k}) (w = [nan  1.]): ")
        assert err.endswith(": the task is not finite\n")
        assert not (tmp_path / "lift").exists()

    def test_csv_format(self, model2_file, tmp_path):
        # a comment line, then csv.writer rows: \r\n endings, %.17g floats
        # and the signature quoted
        traj = write_trajectory(tmp_path)
        out = tmp_path / "lift"
        for allocator in ("extremal", "naive"):
            assert main(["lift", "--model", model2_file, "--trajectory", traj,
                         "--allocator", allocator, "--out", str(out),
                         "--seed", "5"]) == 0
            path = out / f"lift_{allocator}.csv"
            comment, header, rows = read_csv(path)
            assert comment == "# fiberalloc 0.1.0 seed=5\n"
            assert {r[-1] for r in rows} <= {"(+,-)", "(-,+)", "(+,+)", "(-,-)"}
            text = io.StringIO(newline="")
            writer = csv.writer(text)
            writer.writerow(header)
            for r in rows:
                writer.writerow([f"{float(x):.17g}" for x in r[:-1]] + [r[-1]])
            assert path.read_bytes() == (comment + text.getvalue()).encode()

    def test_extremal_on_a_transitional_layer_is_validation_error(
            self, model2_file, tmp_path, capsys):
        rc = main(["lift", "--model", model2_file, "--trajectory",
                   write_trajectory(tmp_path), "--allocator", "extremal",
                   "--layer", "1", "--out", str(tmp_path)])
        assert rc == 1
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--layer", "1"], ["--C", "5"],
                                       ["--branch", "positive"]])
    def test_naive_with_a_layer_or_C_is_validation_error(
            self, model2_file, tmp_path, capsys, flags):
        rc = main(["lift", "--model", model2_file, "--trajectory",
                   write_trajectory(tmp_path), "--allocator", "naive",
                   *flags, "--out", str(tmp_path)])
        assert rc == 1
        assert "naive allocator takes no layer and no C" in capsys.readouterr().err
        assert not (tmp_path / "lift_naive.csv").exists()

    def test_section_lift_takes_the_branch(self, model2_file, tmp_path):
        traj = write_trajectory(tmp_path)
        lifts = {}
        for allocator, branch in (("section", "negative"),
                                  ("extremal", "negative"),
                                  ("section", "positive")):
            out = tmp_path / branch
            assert main(["lift", "--model", model2_file, "--trajectory", traj,
                         "--allocator", allocator, "--branch", branch,
                         "--out", str(out)]) == 0
            lifts[allocator, branch] = (out / f"lift_{allocator}.csv").read_bytes()
        assert lifts["section", "negative"] == lifts["extremal", "negative"]
        assert lifts["section", "negative"] != lifts["section", "positive"]

    def test_non_finite_time_is_validation_error(self, model2_file, tmp_path,
                                                 capsys):
        traj = tmp_path / "traj.csv"
        traj.write_text("t,w_1\n0.0,1.0\nnan,0.5\n1.0,0.0\n")
        rc = main(["lift", "--model", model2_file, "--trajectory", str(traj),
                   "--out", str(tmp_path / "lift")])
        assert rc == 1
        assert "sample 1 has t = nan" in capsys.readouterr().err
        assert not (tmp_path / "lift").exists()

    def test_trajectory_without_samples_is_validation_error(
            self, model2_file, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        traj.write_text("t,w_1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # and numpy warns of no data
            rc = main(["lift", "--model", model2_file, "--trajectory",
                       str(traj), "--out", str(tmp_path / "lift")])
        assert rc == 1
        assert "traj.csv: the trajectory file has no samples" in \
            capsys.readouterr().err
        assert not (tmp_path / "lift").exists()

    def test_unreadable_row_names_the_trajectory_file(self, model2_file,
                                                      tmp_path, capsys):
        traj = tmp_path / "ragged.csv"
        traj.write_text("t,w_1\n0.0,1.0\n0.5\n")
        rc = main(["lift", "--model", model2_file, "--trajectory", str(traj),
                   "--out", str(tmp_path / "lift")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"validation error: {traj}: " in err
        assert "number of columns changed" in err
        assert not (tmp_path / "lift").exists()

    def test_confinement_violation_is_solver_error(self, model2_file, tmp_path,
                                                   capsys, monkeypatch):
        def flipping(model, W, layer, C, t=None, first_row=0):
            V = np.tile(model.c, (len(W), 1))
            V[10:] *= -1.0
            return V, np.zeros(len(W))
        monkeypatch.setattr(import_module("fiberalloc.allocator"),
                            "solve_rows", flipping)
        rc = main(["lift", "--model", model2_file, "--trajectory",
                   write_trajectory(tmp_path), "--out", str(tmp_path)])
        assert rc == 2
        assert "sample 10" in capsys.readouterr().err

    def test_speed_that_overflows_is_validation_error(self, model_file,
                                                      tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        traj.write_text("t,w_1,w_2\n0,1,0\n1e-320,2,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # refused, not warned of
            rc = main(["lift", "--model", model_file, "--trajectory",
                       str(traj), "--out", str(tmp_path / "lift")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "validation error: the speed |dv|/dt of sample 1 (t = "
            "9.99989e-321) is not finite: inf\n")
        assert not (tmp_path / "lift").exists()


#: values that a CSV row must spell as csv.writer does, in process and in
#: the helper alike
SPECIAL_VALUES = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -1e-310,
                  2.2250738585072014e-308, 1.7976931348623157e308, 1 / 3]


@pytest.mark.parametrize("command", ["fibers", "foliation", "lift"])
def test_an_output_csv_is_replaced_not_written(model2_file, tmp_path,
                                               command):
    # a hard link to the old file keeps its bytes, a symlink at the output
    # path is replaced while its target keeps its bytes, and the new file
    # gets the default mode
    flags, name = {
        "fibers": (["--w=2"], "fiber_0.csv"),
        "foliation": (["--layer=2", "--C=0.5"], "foliation_C0.5.csv"),
        "lift": (["--trajectory", write_trajectory(tmp_path)],
                 "lift_extremal.csv"),
    }[command]
    out = tmp_path / "out"
    path = out / name

    def run():
        assert main([command, "--model", model2_file, "--out", str(out),
                     *flags]) == 0
        return path.read_bytes()

    new = run()
    umask = os.umask(0)
    os.umask(umask)
    path.write_bytes(b"old")
    path.chmod(0o600)
    os.link(path, tmp_path / "link")
    assert run() == new
    assert (tmp_path / "link").read_bytes() == b"old"
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    target = tmp_path / "target"
    target.write_bytes(b"target")
    path.unlink()
    path.symlink_to(target)
    assert run() == new
    assert not path.is_symlink()
    assert target.read_bytes() == b"target"


class TestCsvHelper:
    """From HELPER_ROWS samples on, with more than one CPU, a helper process
    formats the blocks of a lift before its last bytes; fibers and foliation
    tables are formatted in process at any size.  The bytes are those written
    in process."""

    @pytest.fixture()
    def helpers(self, monkeypatch):
        """The helpers started, with HELPER_ROWS at 100, blocks of 64 rows
        and two CPUs."""
        started, start = [], cli._start_helper

        def spy(*args):
            started.append(start(*args))
            return started[-1]
        monkeypatch.setattr(cli, "_start_helper", spy)
        monkeypatch.setattr(cli, "BLOCK_ROWS", 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        return started

    def lift(self, model_file, tmp_path, name, *flags):
        out = tmp_path / name
        assert main(["lift", "--model", model_file, "--trajectory",
                     write_trajectory(tmp_path), "--out", str(out),
                     *flags]) == 0
        return out

    @pytest.mark.parametrize("allocator", ["extremal", "section", "naive"])
    def test_lift(self, model2_file, tmp_path, monkeypatch, helpers,
                  allocator):
        # 501 rows, 7 blocks of 64 and one of 53: whichever of them the
        # helper takes, by its own progress, every block or none, the bytes
        # are those of a lift in process
        flags = ["--allocator", allocator]
        ref = self.lift(model2_file, tmp_path, "ref", *flags)
        assert helpers == []
        monkeypatch.setattr(cli, "HELPER_ROWS", 100)
        default = cli.HELPER_BACKLOG
        for backlog in (default, 10**6, 0):
            monkeypatch.setattr(cli, "HELPER_BACKLOG", backlog)
            fed = self.frames_fed(monkeypatch)
            out = self.lift(model2_file, tmp_path, f"out{backlog}", *flags)
            if backlog == default:   # the first blocks are sent as lifted
                assert fed[:default] == [64] * default
            else:
                assert fed == ([64] * 7 + [53] if backlog else [])
            for name in (f"lift_{allocator}.csv", f"lift_{allocator}.json"):
                assert (out / name).read_bytes() == (ref / name).read_bytes()
        assert [h.returncode for h in helpers] == [0] * 3

    @pytest.mark.parametrize("helper_rows", [None, 100],
                             ids=["in-process", "pipelined"])
    def test_a_lift_replaces_the_previous_csv(self, model2_file, tmp_path,
                                              monkeypatch, helpers,
                                              helper_rows):
        # the old file is replaced, not written: a hard link to it keeps its
        # bytes, and a lift that fails leaves it as it is
        if helper_rows is not None:
            monkeypatch.setattr(cli, "HELPER_ROWS", helper_rows)
        csv_path = self.lift(model2_file, tmp_path, "out", "--C=0.5") / \
            "lift_extremal.csv"
        old = csv_path.read_bytes()
        os.link(csv_path, tmp_path / "old.csv")
        ref = self.lift(model2_file, tmp_path, "ref") / "lift_extremal.csv"
        assert csv_path.read_bytes() == old   # nothing ran into "out" yet
        self.lift(model2_file, tmp_path, "out")
        assert (tmp_path / "old.csv").read_bytes() == old
        new = csv_path.read_bytes()
        assert new == ref.read_bytes() != old
        assert [h.returncode for h in helpers] == \
            [0] * (0 if helper_rows is None else 3)
        # a NaN time stamp after the head, and states that underflow
        traj = write_trajectory(tmp_path)
        bad = tmp_path / "bad.csv"
        text = Path(traj).read_text()
        bad.write_text(text.replace("\n3.", "\nnan,0\n3.", 1))
        for trajectory, C, rc in ((bad, "0", 1), (traj, "-2000", 2)):
            assert main(["lift", "--model", model2_file, "--trajectory",
                         str(trajectory), f"--C={C}", "--out",
                         str(csv_path.parent)]) == rc
            assert csv_path.read_bytes() == new

    def test_helper_that_takes_every_block(self, model2_file, tmp_path,
                                           monkeypatch, capsys, helpers):
        # a first line of 4 bytes makes 60 samples look like some 500: the
        # helper starts, and is sent their one block as soon as it is lifted
        traj = Path(write_trajectory(tmp_path))
        lines = traj.read_text().splitlines(keepends=True)
        assert lines[1] == "0,0\n"
        traj.write_text("".join(lines[:61]))
        fed = self.frames_fed(monkeypatch)
        runs = self.lift_both_ways(model2_file, tmp_path, monkeypatch, capsys,
                                   traj)
        assert [h.returncode for h in helpers] == [0]
        assert fed == [60]
        assert runs[0] == runs[1]
        assert runs[0][0].count(b"\r\n") == 61

    @pytest.mark.parametrize("case", ["comment-lines", "no-temporary-file"])
    def test_lift_of_the_same_samples(self, model2_file, tmp_path,
                                      monkeypatch, helpers, case):
        # comment lines before the header are skipped, and a lift whose
        # helper has no frame file formats every row in process
        ref = self.lift(model2_file, tmp_path, "ref")
        traj = Path(write_trajectory(tmp_path))
        if case == "comment-lines":
            traj.write_text("# fiberalloc\n#t,w_1\n" + traj.read_text())
        else:
            def no_file():
                raise OSError("no space left for the frames")
            monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
        monkeypatch.setattr(cli, "HELPER_ROWS", 100)
        out = tmp_path / "out"
        assert main(["lift", "--model", model2_file, "--trajectory",
                     str(traj), "--out", str(out)]) == 0
        assert [getattr(h, "returncode", None) for h in helpers] == (
            [0] if case == "comment-lines" else [None])
        for name in ("lift_extremal.csv", "lift_extremal.json"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()

    def test_trajectory_without_a_header_row(self, model_file, tmp_path,
                                             monkeypatch, capsys, helpers):
        # its first sample would be read as the header and lost; refused
        # before a helper starts, so alike on one CPU and on two
        traj = tmp_path / "traj.csv"
        traj.write_text("0,1,2\n1,2,3\n2,3,4\n")
        monkeypatch.setattr(cli, "HELPER_ROWS", 1)
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)
            out = tmp_path / f"cpus{len(cpus)}"
            assert main(["lift", "--model", model_file, "--trajectory",
                         str(traj), "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"validation error: {traj}: the trajectory file has no header "
                "row: its first row is '0,1,2'\n")
            assert not out.exists()
        assert helpers == []

    @pytest.mark.parametrize("with_masks", [False, True])
    def test_special_values(self, tmp_path, with_masks):
        # the helper's half is in TestHelperFrames
        model = build_model([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
        values = np.random.default_rng(2).choice(SPECIAL_VALUES, size=(301, 4))
        kwargs = dict(model=model, masks=orthant_masks(values[:, :3]), at=2) \
            if with_masks else {}
        header = ["a", "b", "c", "d"] + (["orthant"] if with_masks else [])
        cli._write_csv(tmp_path / "ref.csv", header, values, 9, **kwargs)
        assert_csv_writer_bytes(tmp_path / "ref.csv",
                                text_col=2 if with_masks else None)

    def test_fibers_and_foliation_start_no_helper(self, model_file, tmp_path,
                                                  monkeypatch, helpers):
        # tables of 400 and 320 rows, above HELPER_ROWS, keep their bytes
        runs = {}
        for helper_rows in (None, 100):
            if helper_rows is not None:
                monkeypatch.setattr(cli, "HELPER_ROWS", helper_rows)
            out = tmp_path / f"rows{helper_rows}"
            assert main(["fibers", "--model", model_file, "--w=2,1", "--out",
                         str(out)]) == 0
            assert main(["foliation", "--model", model_file, "--layer=3",
                         "--C=0.5", "--out", str(out)]) == 0
            runs[helper_rows] = {p.name: p.read_bytes()
                                 for p in sorted(out.iterdir())}
        assert helpers == []
        assert len(read_csv(out / "fiber_0.csv")[2]) > 100
        assert len(read_csv(out / "foliation_C0.5.csv")[2]) > 100
        assert runs[None] == runs[100]

    def test_one_cpu_starts_no_helper(self, model2_file, tmp_path,
                                      monkeypatch):
        def no_helper(*args, **kwargs):
            raise AssertionError("a helper process was started")
        monkeypatch.setattr(cli, "HELPER_ROWS", 100)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(subprocess, "Popen", no_helper)
        out = self.lift(model2_file, tmp_path, "out")
        assert len(read_csv(out / "lift_extremal.csv")[2]) == 501

    def test_failed_helper_is_io_error(self, model2_file, tmp_path,
                                       monkeypatch, capsys, helpers):
        script = tmp_path / "fails"
        script.write_text("#!/bin/sh\nexit 1\n")
        script.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(script))
        monkeypatch.setattr(cli, "HELPER_ROWS", 100)
        rc = main(["lift", "--model", model2_file, "--trajectory",
                   write_trajectory(tmp_path), "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "the CSV row helper exited with code 1" in err

    def test_helper_that_cannot_start_leaves_the_rows_in_process(
            self, model2_file, tmp_path, monkeypatch, helpers):
        ref = self.lift(model2_file, tmp_path, "ref")
        monkeypatch.setattr(sys, "executable", str(tmp_path / "missing"))
        monkeypatch.setattr(cli, "HELPER_ROWS", 100)
        out = self.lift(model2_file, tmp_path, "out")
        assert helpers == [None]
        assert (out / "lift_extremal.csv").read_bytes() == \
            (ref / "lift_extremal.csv").read_bytes()

    def test_helper_of_a_failed_lift_is_reaped(self, model2_file, tmp_path,
                                               monkeypatch, capsys, helpers):
        # the lift starts its helper before the solve; a sample the solve
        # refuses kills it, and main reaps it and closes its pipes
        traj = Path(write_trajectory(tmp_path))
        lines = traj.read_text().splitlines(keepends=True)
        lines[1 + 400] = lines[1 + 400].split(",")[0] + ",nan\r\n"
        traj.write_text("".join(lines))
        started_before_solve = []

        def lift(*args, **kwargs):
            started_before_solve.append(len(helpers))
            return lift_block(*args, **kwargs)
        lift_block = cli.lift_block
        monkeypatch.setattr(cli, "lift_block", lift)
        monkeypatch.setattr(cli, "HELPER_ROWS", 100)
        rc = main(["lift", "--model", model2_file, "--trajectory", str(traj),
                   "--out", str(tmp_path / "lift")])
        assert rc == 2
        assert "sample 400" in capsys.readouterr().err
        assert started_before_solve[0] == 1
        assert set(started_before_solve) == {1}   # one helper, one pass
        (helper,) = helpers
        assert helper.returncode is not None
        assert helper.stdin.closed and helper.stdout.closed

    @pytest.mark.parametrize("cause", ["one-cpu", "helper-cannot-start"])
    def test_a_lift_without_a_helper_fails_in_one_pass(
            self, model2_file, tmp_path, monkeypatch, capsys, helpers, cause):
        # the lift reads and solves its blocks up to the bad one, once
        traj = self.edited_trajectory(
            tmp_path, lambda k, t, w: f"{t},nan" if k == 400 else None)
        calls, lift_block = [], cli.lift_block

        def lift(*args, **kwargs):
            calls.append(len(args[1]))
            return lift_block(*args, **kwargs)
        monkeypatch.setattr(cli, "lift_block", lift)
        monkeypatch.setattr(cli, "HELPER_ROWS", 100)
        if cause == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                                raising=False)
        else:
            monkeypatch.setattr(sys, "executable", str(tmp_path / "missing"))
        rc = main(["lift", "--model", model2_file, "--trajectory", str(traj),
                   "--out", str(tmp_path / "lift")])
        assert rc == 2
        assert "sample 400 (t = " in capsys.readouterr().err
        assert calls == [64] * 7   # sample 400 is in the seventh block
        assert helpers == ([] if cause == "one-cpu" else [None])
        assert not (tmp_path / "lift").exists()

    def frames_fed(self, patch):
        """The row counts of the frames sent to a helper from now on, while
        ``patch`` (a monkeypatch) keeps a spy on ``_feed_helper``."""
        fed, feed = [], cli._feed_helper

        def spy(helper, formats, masks, values):
            fed.append(len(values))
            feed(helper, formats, masks, values)
        patch.setattr(cli, "_feed_helper", spy)
        return fed

    def lift_both_ways(self, model_file, tmp_path, monkeypatch, capsys, traj):
        """The CSV and JSON bytes of a lift of ``traj`` with HELPER_ROWS at
        100, on two CPUs and on one.  Each exits 0 and writes no stderr."""
        monkeypatch.setattr(cli, "HELPER_ROWS", 100)
        runs = []
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)
            out = tmp_path / f"cpus{len(cpus)}"
            assert main(["lift", "--model", model_file, "--trajectory",
                         str(traj), "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            runs.append([(out / name).read_bytes() for name in
                         ("lift_extremal.csv", "lift_extremal.json")])
        return runs

    def fail_both_ways(self, model_file, tmp_path, monkeypatch, capsys,
                       helpers, traj, *flags):
        """The frames a pipelined lift of ``traj`` sent before it failed,
        with HELPER_BACKLOG so large that the helper is sent every block as
        soon as it is lifted.

        It fails as the lift in process alone (one CPU) does: the same exit
        code and error text, and no file.  Its helper is killed and reaped.
        """
        fed = self.frames_fed(monkeypatch)
        monkeypatch.setattr(cli, "HELPER_ROWS", 100)
        monkeypatch.setattr(cli, "HELPER_BACKLOG", 10**6)
        runs = []
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)
            out = tmp_path / f"cpus{len(cpus)}"
            rc = main(["lift", "--model", model_file, "--trajectory",
                       str(traj), "--out", str(out), *flags])
            runs.append((rc, capsys.readouterr().err))
            assert not out.exists()
        assert runs[0] == runs[1]
        assert runs[0][0] in (1, 2)
        (helper,) = helpers
        assert helper.returncode == -signal.SIGKILL
        assert helper.stdin.closed and helper.stdout.closed
        return fed, runs[0][1]

    def edited_trajectory(self, tmp_path, edit):
        """write_trajectory's file with ``edit(k, t, w)`` (a line's text or
        None) in place of each sample line."""
        traj = Path(write_trajectory(tmp_path))
        lines = traj.read_text().splitlines(keepends=True)
        for k, line in enumerate(lines[1:]):
            text = edit(k, *line.strip().split(","))
            if text is not None:
                lines[1 + k] = text + "\r\n"
        traj.write_text("".join(lines))
        return traj

    def test_ragged_row_in_the_tail(self, model2_file, tmp_path, monkeypatch,
                                    capsys, helpers):
        traj = self.edited_trajectory(
            tmp_path, lambda k, t, w: t if k == 400 else None)
        fed, err = self.fail_both_ways(model2_file, tmp_path, monkeypatch,
                                       capsys, helpers, traj)
        # the blocks before the ragged row's, the seventh, went to the helper
        assert fed == [64] * 6
        assert err.startswith(f"validation error: {traj}: ")
        assert "number of columns changed" in err
        assert "at row 401;" in err   # counted from the trajectory's start

    def test_non_increasing_time_in_the_tail(self, model2_file, tmp_path,
                                             monkeypatch, capsys, helpers):
        times = np.linspace(0.0, 2 * np.pi, 501)
        traj = self.edited_trajectory(
            tmp_path,
            lambda k, t, w: f"{times[399]:.17g},{w}" if k == 400 else None)
        fed, err = self.fail_both_ways(model2_file, tmp_path, monkeypatch,
                                       capsys, helpers, traj)
        assert fed == [64] * 6
        assert err == ("validation error: time stamps must be finite and "
                       "strictly increasing: sample 400 has "
                       f"t = {times[399]:g}\n")

    def test_solve_failures_in_the_head_and_the_tail(
            self, model2_file, tmp_path, monkeypatch, capsys, helpers):
        # sample 50's block is the first, and fails before any is sent
        traj = self.edited_trajectory(
            tmp_path, lambda k, t, w: f"{t},nan" if k in (50, 400) else None)
        fed, err = self.fail_both_ways(model2_file, tmp_path, monkeypatch,
                                       capsys, helpers, traj)
        assert fed == []
        assert err.startswith("solver error: ") and "sample 50 (t = " in err

    def test_first_bad_block_wins_over_a_later_parse_error(
            self, model2_file, tmp_path, monkeypatch, capsys, helpers):
        # a lift reads no further than its first bad block
        traj = self.edited_trajectory(
            tmp_path, lambda k, t, w: f"{t},nan" if k == 50 else
            t if k == 400 else None)
        fed, err = self.fail_both_ways(model2_file, tmp_path, monkeypatch,
                                       capsys, helpers, traj)
        assert fed == []
        assert err.startswith("solver error: ") and "sample 50 (t = " in err

    def test_blank_line_in_the_tail_is_skipped(self, model2_file, tmp_path,
                                               monkeypatch, capsys, helpers):
        # loadtxt warns of a blank line in a block it reads with max_rows
        ref = self.lift(model2_file, tmp_path, "ref")
        traj = self.edited_trajectory(
            tmp_path, lambda k, t, w: f"{t},{w}\r\n" if k == 400 else None)
        runs = self.lift_both_ways(model2_file, tmp_path, monkeypatch, capsys,
                                   traj)
        assert [h.returncode for h in helpers] == [0]
        assert runs == [[(ref / name).read_bytes() for name in
                         ("lift_extremal.csv", "lift_extremal.json")]] * 2

    def test_blank_lines_before_the_header_are_skipped(
            self, model2_file, tmp_path, monkeypatch, capsys, helpers):
        # as comment lines are, on one CPU and on two; the end of the file
        # still ends the search for the header row
        ref = self.lift(model2_file, tmp_path, "ref")
        traj = Path(write_trajectory(tmp_path))
        traj.write_text("\n\r\n \n# fiberalloc\n\n" + traj.read_text())
        runs = self.lift_both_ways(model2_file, tmp_path, monkeypatch, capsys,
                                   traj)
        assert [h.returncode for h in helpers] == [0]
        assert runs == [[(ref / name).read_bytes() for name in
                         ("lift_extremal.csv", "lift_extremal.json")]] * 2
        traj.write_text("\n\n")
        assert main(["lift", "--model", model2_file, "--trajectory", str(traj),
                     "--out", str(tmp_path / "blank")]) == 1
        assert capsys.readouterr().err == (
            f"validation error: {traj}: the trajectory file has no samples\n")
        assert not (tmp_path / "blank").exists()

    @pytest.mark.parametrize("failure", ["bad-block", "helper-exits-1",
                                         "helper-exits-0", "helper-killed"])
    def test_a_failed_lift_leaves_nothing_behind(
            self, model2_file, tmp_path, monkeypatch, capsys, helpers,
            failure):
        # no temporary file and no directory of its making, and the CSV of
        # an earlier lift keeps its bytes
        old = self.lift(model2_file, tmp_path, "old", "--C=0.5")
        before = {p.name: p.read_bytes() for p in old.iterdir()}
        assert sorted(before) == ["lift_extremal.csv", "lift_extremal.json"]
        traj = write_trajectory(tmp_path)
        monkeypatch.setattr(cli, "HELPER_ROWS", 100)
        if failure == "bad-block":
            traj = self.edited_trajectory(
                tmp_path, lambda k, t, w: f"{t},nan" if k == 400 else None)
            rc, err, code = 2, "sample 400 (t = ", -signal.SIGKILL
        elif failure == "helper-killed":
            lift_block = cli.lift_block

            def lift(*args, first_row, **kwargs):
                if first_row == 4 * cli.BLOCK_ROWS:
                    helpers[-1].kill()
                return lift_block(*args, first_row=first_row, **kwargs)
            monkeypatch.setattr(cli, "lift_block", lift)
            code = -signal.SIGKILL
            rc, err = 3, f"the CSV row helper exited with code {code}"
        else:   # one that starts, and exits before it reads a frame
            script = tmp_path / "helper"
            script.write_text(f"#!/bin/sh\nexit {failure[-1]}\n")
            script.chmod(0o755)
            monkeypatch.setattr(sys, "executable", str(script))
            code = int(failure[-1])
            rc, err = 3, ("the CSV row helper exited with code 1" if code
                          else "the CSV row helper finished 0 of 2 frames")
        for out in (tmp_path / "new" / "out", old):
            assert main(["lift", "--model", model2_file, "--trajectory",
                         str(traj), "--out", str(out)]) == rc
            assert f"{out / 'lift_extremal.csv'}: " * (rc == 3) + err in \
                capsys.readouterr().err
        assert [h.returncode for h in helpers] == [code] * 2
        assert not (tmp_path / "new").exists()
        assert {p.name: p.read_bytes() for p in old.iterdir()} == before

    def test_speed_overflow_in_the_tail(self, model2_file, tmp_path,
                                        monkeypatch, capsys, helpers):
        # t = k - 399, but 1e-320 at sample 400: a step whose speed overflows
        traj = self.edited_trajectory(
            tmp_path,
            lambda k, t, w: f"{1e-320 if k == 400 else k - 399:.17g},{w}")
        fed, err = self.fail_both_ways(model2_file, tmp_path, monkeypatch,
                                       capsys, helpers, traj)
        assert fed == [64] * 6
        assert err == ("validation error: the speed |dv|/dt of sample 400 "
                       "(t = 9.99989e-321) is not finite: inf\n")

    @pytest.fixture()
    def head_flips(self, model2_file, tmp_path, monkeypatch, helpers):
        """The first sample of the fifth block, where a solve that flips the
        state of every later sample puts the lift's one orthant change: the
        blocks on either side of it may go to the helper or not."""
        boundary = 4 * cli.BLOCK_ROWS

        def flipping(model, W, layer, C, t=None, first_row=0):
            V = np.tile(model.c, (len(W), 1))
            V[first_row + np.arange(len(W)) >= boundary] *= -1.0
            return V, np.zeros(len(W))
        monkeypatch.setattr(import_module("fiberalloc.allocator"),
                            "solve_rows", flipping)
        return boundary

    def test_orthant_change_at_the_head_is_a_confinement_error(
            self, model2_file, tmp_path, monkeypatch, capsys, helpers,
            head_flips):
        fed, err = self.fail_both_ways(model2_file, tmp_path, monkeypatch,
                                       capsys, helpers,
                                       write_trajectory(tmp_path))
        boundary = head_flips
        assert 0 < boundary < 501
        assert sum(fed) == boundary   # the block after the change fails
        assert err == (f"solver error: extremal lift changed orthant signature "
                       f"at sample {boundary}; confinement violated\n")

    def test_orthant_change_at_the_head_is_counted(
            self, model2_file, tmp_path, monkeypatch, helpers, head_flips):
        # whichever blocks the helper takes: by its own progress, every
        # block, or none
        monkeypatch.setattr(cli, "HELPER_ROWS", 100)
        outs = []
        for backlog in (cli.HELPER_BACKLOG, 10**6, 0):
            monkeypatch.setattr(cli, "HELPER_BACKLOG", backlog)
            outs.append(self.lift(model2_file, tmp_path, f"out{backlog}",
                                  "--allocator", "section"))
        assert [h.returncode for h in helpers] == [0] * 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        ref = self.lift(model2_file, tmp_path, "ref", "--allocator", "section")
        assert len(helpers) == 3
        for out in outs:
            summary = json.loads((out / "lift_section.json").read_text())
            assert summary["signature_changes"] == 1
            for name in ("lift_section.csv", "lift_section.json"):
                assert (out / name).read_bytes() == (ref / name).read_bytes()


class TestHelperFrames:
    """The helper formats the frames it is sent as the rows are formatted in
    process, appends their text to the output file and reports each frame
    finished, and a frame it cannot read ends it with an error that the end
    of its frames reports."""

    HEADER = ["a", "b", "c", "d", "orthant"]

    @pytest.fixture()
    def helper(self, monkeypatch):
        """A helper, with blocks of 8 rows, started in the test's call (so
        that capfd has its stderr), that appends to a new file replacing
        ``path`` at the end of the block."""
        monkeypatch.setattr(cli, "BLOCK_ROWS", 8)

        @contextmanager
        def started(path, header):
            with cli._replacing(path, cli._csv_head(header, 3)) as out:
                helper = cli._start_helper(out.fileno())
                with helper.frames, helper:
                    yield helper
        return started

    def test_wire_format(self, tmp_path):
        # a frame of 3 rows, a zero-row frame, and frames that stand alone:
        # the third repeats the first's format, under its own key 1; the
        # text is appended to the output file, after what it held, and each
        # frame is reported by one line
        frames = [({"rows": 3, "cols": 2, "formats": ["%.17g,%.17g,a\r\n"]},
                   [0, 0, 0], [1.0, 2.0, 3.0, 4.0, 0.5, -0.0]),
                  ({"rows": 0, "cols": 2, "formats": []}, [], []),
                  ({"rows": 2, "cols": 2, "formats": ["%.17g;%.17g,b\r\n",
                                                      "%.17g,%.17g,a\r\n"]},
                   [0, 1], [1e300, np.inf, np.nan, 5e-324])]
        out_path = tmp_path / "out.csv"
        out_path.write_bytes(b"head\r\n")
        out = os.open(out_path, os.O_WRONLY | os.O_APPEND)
        try:
            with tempfile.TemporaryFile() as fh:
                sizes = []
                for header, keys, values in frames:
                    data = (json.dumps(header).encode() + b"\n"
                            + struct.pack(f"{len(keys)}q", *keys)
                            + struct.pack(f"{len(values)}d", *values))
                    sizes.append(b"%d\n" % fh.write(data))
                fh.flush()
                proc = subprocess.run(
                    [sys.executable, "-I", "-S", str(cli._HELPER),
                     str(fh.fileno()), str(out), "ascii"],
                    input=b"".join(sizes), capture_output=True,
                    pass_fds=(fh.fileno(), out), check=True)
        finally:
            os.close(out)
        assert proc.stdout == b"\n" * 3
        assert out_path.read_bytes() == (
            b"head\r\n1,2,a\r\n3,4,a\r\n0.5,-0,a\r\n"
            b"1.0000000000000001e+300;inf,b\r\n"
            b"nan,4.9406564584124654e-324,a\r\n")

    def test_frames_are_the_rows_in_process(self, tmp_path, helper):
        # several frames, one of no rows, and masks first seen in later ones;
        # normal values, then infinities, NaN, signed zeros and subnormals
        model = build_model([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
        rng = np.random.default_rng(5)
        for values in (rng.normal(size=(90, 4)),
                       rng.choice(SPECIAL_VALUES, size=(90, 4))):
            masks = orthant_masks(values[:, :3])
            masks[:20] = masks[0]
            formats, bounds = {}, ((0, 20), (20, 20), (20, 21), (21, 90))
            with helper(tmp_path / "out.csv", self.HEADER) as h:
                for lo, hi in bounds:
                    cli._add_row_formats(formats, model, 4, None, masks[lo:hi])
                    cli._feed_helper(h, formats, masks[lo:hi], values[lo:hi])
                cli._finish_helper(h)
                cli._reap_helper(h, tmp_path / "out.csv")
                assert h.sent == h.done == len(bounds)
                # each frame lists the formats of its own distinct masks
                h.frames.seek(0)
                for lo, hi in bounds:
                    header = json.loads(h.frames.readline())
                    h.frames.seek(8 * (hi - lo) * 5, os.SEEK_CUR)
                    assert header["formats"] == [
                        formats[k] for k in sorted(set(masks[lo:hi].tolist()))]
                assert h.frames.read() == b""
            assert h.returncode == 0
            cli._write_csv(tmp_path / "ref.csv", self.HEADER, values, 3, model,
                           masks)
            assert (tmp_path / "out.csv").read_bytes() == \
                (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("cut", ["short", "rows"])
    def test_truncated_frame_is_io_error(self, tmp_path, capfd, helper, cut):
        # a frame shorter than announced, or than its rows need
        values, masks = np.ones((3, 2)), np.zeros(3, np.int64)
        formats = {0: "%.17g,%.17g\r\n"}
        header = json.dumps({"rows": 3, "cols": 2, "formats": []}).encode()
        frame = header + b"\n" + masks.tobytes() + values.tobytes()[:-8]
        path = tmp_path / "out.csv"
        with pytest.raises(OSError, match=f"{path}: the CSV row helper "
                                          "exited with code 1"):
            with helper(path, ["a", "b"]) as h:
                cli._feed_helper(h, formats, masks, values)
                h.frames.write(frame)
                h.frames.flush()
                h.stdin.write(b"%d\n" % (len(frame) + (cut == "short") * 8))
                cli._finish_helper(h)
                cli._reap_helper(h, path)
        assert "ValueError: frame of " in capfd.readouterr().err
        assert list(tmp_path.iterdir()) == []


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(cli.__file__).resolve().parents[1]
#: every flag of every subcommand, and tokens near them that the reader
#: leaves to argparse: abbreviations, help, the version, "--" and strays
READER_FLAGS = sorted({opt.flag for _, options in COMMANDS.values()
                       for opt in options})
NEAR_FLAGS = [flag[:-1] for flag in READER_FLAGS if len(flag) > 3] + [
    "-h", "--help", "--version", "--vers", "--", "-", "--bogus", "stray", ""]
#: values in argparse's and Python's number forms, choices and near misses
READER_VALUES = ["1", "3", "-1", "+3", "1_0", " 7", "2.5", "nan", "-inf",
                 "1e3", "0x1", "", "--", "-", "-h", "x", "1,2", "1;x",
                 "positive", "negative", "extremal", "naive", "bogus", "+,-,+"]
#: options that make each subcommand's argv complete
READER_BASES = {
    "validate": [["--model", "m.json"]],
    "fibers": [["--model", "m.json"], ["--w", "1,2"]],
    "foliation": [["--model", "m.json"], ["--layer", "1"], ["--C", "0"]],
    "strata": [["--model", "m.json"], ["--layer", "2"]],
    "invert": [["--model", "m.json"], ["--w", "1,2"]],
    "lift": [["--model", "m.json"], ["--trajectory", "t.csv"]],
}


@st.composite
def reader_argvs(draw):
    """An argv of a subcommand (or of a near miss of one): its complete
    options or not, and flags of its own, of others and near misses, each
    with a value as a token of its own, after "=" or none, in any order."""
    command = draw(st.sampled_from([*COMMANDS, "bogus", "-h", "--version"]))
    own = [opt.flag for opt in COMMANDS.get(command, ("", ()))[1]] or ["-h"]
    flag = st.one_of(st.sampled_from(own),
                     st.sampled_from(READER_FLAGS + NEAR_FLAGS))
    value = st.sampled_from(READER_VALUES)
    item = st.one_of(st.tuples(flag, value).map(list),
                     st.tuples(flag, value).map(lambda fv: ["=".join(fv)]),
                     flag.map(lambda f: [f]), value.map(lambda v: [v]))
    items = draw(st.lists(item, max_size=5))
    if command in COMMANDS and draw(st.booleans()):
        items += READER_BASES[command]
    items = draw(st.permutations(items))
    return [command] + [token for item in items for token in item]


#: argv that exit inside argparse, with help, a version or a usage error
PARSER_EXITS = [
    [], ["-h"], ["--version"], ["--vers"], ["bogus"], ["--"], ["-h", "invert"],
    *([name, "-h"] for name in COMMANDS),
    ["invert"], ["invert", "--model", "m.json", "--w", "1", "--bogus"],
    ["invert", "--model", "m.json", "--w", "1", "stray"],
    ["strata", "--layer", "x"],
    # errors after the command name, which the reader leaves to argparse
    ["invert", "--version"],
    ["invert", "--model", "m.json", "--w", "1", "--", "x"],
    ["invert", "--mod", "m.json", "--w=1", "--bogus"],
    ["invert", "--model", "m.json", "--w", "1", "--version"],
    ["lift", "--model", "m", "--trajectory", "t", "--allocator", "bogus"],
    ["invert", "--", "--model", "m", "--w", "1"],
    ["strata", "-h", "--bogus"],
    # --out and --seed only where the command writes or draws from them
    ["validate", "--model", "m.json", "--out", "o"],
    ["validate", "--model", "m.json", "--seed", "1"],
    ["invert", "--model", "m.json", "--w", "1", "--out", "o"],
    ["invert", "--model", "m.json", "--w", "1", "--seed", "1"],
    ["strata", "--model", "m.json", "--layer", "1", "--seed", "3"],
]


def _instance(cls):
    """An instance of the FiberAllocError class ``cls``."""
    if issubclass(cls, SectionSolveError):
        return cls(0, np.array([1.0, 2.0]), "a reason")
    args = {DegenerateRedundancyError: (1, 0.0), ConfinementError: (3,)}
    return cls(*args.get(cls, ("a message",)))


class TestExitCodes:
    @pytest.mark.parametrize("cls", [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, FiberAllocError)
    ], ids=lambda c: c.__name__)
    def test_error_class_picks_the_exit_code(self, capsys, monkeypatch, cls):
        exc = _instance(cls)

        def raising(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_invert", raising)
        validation = cls in (WrongShapeError, RankDeficientError,
                             DegenerateRedundancyError)
        assert main(["invert", "--model", "m.json", "--w=1,2"]) == \
            (1 if validation else 2)
        label = "validation error" if validation else "solver error"
        assert capsys.readouterr().err == f"{label}: {exc}\n"


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_EXITS,
                             ids=lambda argv: " ".join(argv) or "no-args")
    def test_main_exits_as_the_full_parser(self, argv, capsys, monkeypatch):
        # the reader leaves each of these to the full parser
        monkeypatch.setenv("COLUMNS", "80")
        full = run_cli(lambda a: build_parser().parse_args(a), argv, capsys)
        assert run_cli(main, argv, capsys) == full

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
    ])
    def test_root_errors_name_the_command_argument(self, argv, message, capsys):
        rc, _, err = run_cli(main, argv, capsys)
        assert rc == 2
        assert f"fiberalloc: error: {message}" in err

    def test_invert_layer_and_branch_exclude_each_other(self, capsys):
        rc, _, err = run_cli(main, ["invert", "--model", "m.json", "--w=1,2",
                                    "--layer", "3", "--branch", "negative"],
                             capsys)
        assert rc == 2
        assert "argument --branch: not allowed with argument --layer" in err

    def test_lift_layer_and_branch_exclude_each_other(self, capsys):
        rc, _, err = run_cli(main, ["lift", "--model", "m.json", "--trajectory",
                                    "t.csv", "--layer", "1", "--branch",
                                    "negative"], capsys)
        assert rc == 2
        assert "argument --branch: not allowed with argument --layer" in err

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    def test_help_is_the_stock_formatters(self, columns, capsys, monkeypatch):
        # the width read once per build formats the help as argparse's own
        # formatter, which reads the width itself, does
        monkeypatch.setenv("COLUMNS", columns)

        def helps():
            full = build_parser()
            return [full.format_help()] + [
                run_cli(full.parse_args, [name, "--help"], capsys)[1]
                for name in COMMANDS]
        ours = helps()
        monkeypatch.setattr(cli, "_help_formatter",
                            lambda: argparse.HelpFormatter)
        assert ours == helps()

    @pytest.mark.parametrize("command", [None, *COMMANDS])
    def test_a_build_reads_the_terminal_width_once(self, command, monkeypatch,
                                                   capsys):
        reads, size = [], shutil.get_terminal_size

        def counted(*args):
            reads.append(args)
            return size(*args)
        monkeypatch.setattr(shutil, "get_terminal_size", counted)
        if command is None:
            build_parser().format_help()
        else:   # the subcommand's help, printed by its subparser
            run_cli(build_parser().parse_args, [command, "-h"], capsys)
        assert len(reads) == 1

    @pytest.mark.parametrize("argv", [
        ["validate", "--model", "m.json"],
        ["fibers", "--model", "m.json", "--w", "1", "--w=-2", "--samples", "9"],
        ["foliation", "--model", "m.json", "--orthant", "+,-,+", "--C", "1"],
        ["strata", "--model", "m.json", "--layer", "2", "--out", "o"],
        ["invert", "--model", "m.json", "--w", "1,2", "--branch", "negative"],
        ["lift", "--model", "m.json", "--trajectory", "t.csv", "--out", "o"],
    ], ids=lambda argv: argv[0])
    def test_one_command_parser_gives_the_full_namespace(self, argv):
        # the reader, which reads the one command's options from COMMANDS
        one = cli._read_argv(argv)
        assert vars(one) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("workload",
                             ["invert_stream", "foliation", "lift_extremal"])
    def test_the_reader_reads_every_benchmark_request(self, workload, tmp_path,
                                                      monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        wl = import_module("workloads").WORKLOADS[workload](
            1, tmp_path, tmp_path / "out")
        for argv in [wl.warmup.argv] + [r.argv for r in wl.requests]:
            args = cli._read_argv(argv)
            assert args is not None, argv
            assert vars(args) == vars(build_parser().parse_args(argv))

    @settings(max_examples=500, deadline=None)
    @given(argv=reader_argvs())
    def test_the_reader_agrees_with_argparse(self, argv):
        args = cli._read_argv(argv)
        if args is not None:   # a NaN is never == itself, but its repr is
            assert (repr(sorted(vars(args).items())) ==
                    repr(sorted(vars(build_parser().parse_args(argv)).items())))

    def test_an_invert_does_not_import_argparse(self, model_file):
        # in a new interpreter: pytest imports argparse itself
        code = ("import sys\n"
                "from fiberalloc.cli import main\n"
                "rc = main(['invert', '--model', sys.argv[1], '--w=2,1'])\n"
                "print(rc, 'argparse' in sys.modules, file=sys.stderr)\n")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", code, model_file],
                              env=env, capture_output=True, text=True)
        assert proc.stderr == "0 False\n"


@pytest.mark.parametrize("argv, option", [
    (["invert", "--w=1,x"], "--w"),
    (["fibers", "--w", "1,x"], "--w"),
    (["foliation", "--layer", "3", "--C", "0", "--magnitudes", "1,x"],
     "--magnitudes"),
], ids=["invert", "fibers", "foliation"])
def test_a_vector_option_names_its_entry_that_is_not_a_number(
        argv, option, model_file, tmp_path, capsys):
    out = [] if argv[0] == "invert" else ["--out", str(tmp_path / "out")]
    assert main([*argv, "--model", model_file, *out]) == 1
    assert capsys.readouterr().err == \
        f"validation error: {option} '1,x': entry 2 is 'x', not a number\n"
    assert not (tmp_path / "out").exists()
