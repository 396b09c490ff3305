import argparse
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from importlib import import_module

import numpy as np
import pytest

from fiberalloc import (build_model, classify_orthant, crossing_parameters,
                        fiber_point)
from fiberalloc.strata import orthant_masks
from fiberalloc.cli import COMMANDS, build_parser, main
from conftest import assert_on_leaf

cli = import_module("fiberalloc.cli")


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


class TestStrata:
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

    def test_confinement_violation_is_solver_error(self, model2_file, tmp_path,
                                                   capsys, monkeypatch):
        def flipping(model, W, layer, C, t=None):
            V = np.tile(model.c, (len(W), 1))
            V[10:] *= -1.0
            return V, np.zeros(len(W))
        monkeypatch.setattr(import_module("fiberalloc.allocator"),
                            "solve_rows", flipping)
        rc = main(["lift", "--model", model2_file, "--trajectory",
                   write_trajectory(tmp_path), "--out", str(tmp_path)])
        assert rc == 2
        assert "sample 10" in capsys.readouterr().err


class TestCsvHelper:
    """From HELPER_ROWS rows on, with more than one CPU, the second half of a
    CSV is formatted by a helper process; the bytes are those written in
    process."""

    @pytest.fixture()
    def helpers(self, monkeypatch):
        """The helpers started, with HELPER_ROWS at 100, chunks of 64 rows
        and two CPUs."""
        started, start = [], cli._start_helper

        def spy(*args):
            started.append(start(*args))
            return started[-1]
        monkeypatch.setattr(cli, "_start_helper", spy)
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 64)
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
        # 501 rows: the halves are 250 and 251 rows, neither whole chunks
        flags = ["--allocator", allocator]
        ref = self.lift(model2_file, tmp_path, "ref", *flags)
        assert helpers == []
        monkeypatch.setattr(cli, "HELPER_ROWS", 100)
        out = self.lift(model2_file, tmp_path, "out", *flags)
        assert [h.returncode for h in helpers] == [0]
        for name in (f"lift_{allocator}.csv", f"lift_{allocator}.json"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()

    @pytest.mark.parametrize("with_masks", [False, True])
    def test_special_values(self, tmp_path, monkeypatch, helpers, with_masks):
        model = build_model([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
        special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -1e-310,
                   2.2250738585072014e-308, 1.7976931348623157e308, 1 / 3]
        values = np.random.default_rng(2).choice(special, size=(301, 4))
        kwargs = dict(model=model, masks=orthant_masks(values[:, :3]), at=2) \
            if with_masks else {}
        header = ["a", "b", "c", "d"] + (["orthant"] if with_masks else [])
        cli._write_csv(tmp_path / "ref.csv", header, values, 9, **kwargs)
        assert helpers == []
        assert_csv_writer_bytes(tmp_path / "ref.csv",
                                text_col=2 if with_masks else None)
        monkeypatch.setattr(cli, "HELPER_ROWS", 100)
        cli._write_csv(tmp_path / "out.csv", header, values, 9, **kwargs)
        assert [h.returncode for h in helpers] == [0]
        assert (tmp_path / "out.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

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


#: argv that exit inside argparse, with help, a version or a usage error
PARSER_EXITS = [
    [], ["-h"], ["--version"], ["--vers"], ["bogus"], ["--"], ["-h", "invert"],
    *([name, "-h"] for name in COMMANDS),
    ["invert"], ["invert", "--model", "m.json", "--w", "1", "--bogus"],
    ["invert", "--model", "m.json", "--w", "1", "stray"],
    ["strata", "--layer", "x"],
    # errors after the command name, where main's one-command parser runs
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


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_EXITS,
                             ids=lambda argv: " ".join(argv) or "no-args")
    def test_main_exits_as_the_full_parser(self, argv, capsys, monkeypatch):
        # main builds only argv[0]'s subcommand when argv[0] names one
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

    @pytest.mark.parametrize("argv", [
        ["validate", "--model", "m.json"],
        ["fibers", "--model", "m.json", "--w", "1", "--w=-2", "--samples", "9"],
        ["foliation", "--model", "m.json", "--orthant", "+,-,+", "--C", "1"],
        ["strata", "--model", "m.json", "--layer", "2", "--out", "o"],
        ["invert", "--model", "m.json", "--w", "1,2", "--branch", "negative"],
        ["lift", "--model", "m.json", "--trajectory", "t.csv", "--out", "o"],
    ], ids=lambda argv: argv[0])
    def test_one_command_parser_gives_the_full_namespace(self, argv):
        one = build_parser(argv[0]).parse_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        assert vars(one) == vars(build_parser().parse_args(argv))
