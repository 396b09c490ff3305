import csv
import io
import json
from importlib import import_module

import numpy as np
import pytest

from fiberalloc import build_model, classify_orthant
from fiberalloc.cli import COMMANDS, build_parser, main
from conftest import assert_on_leaf


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

    @pytest.mark.parametrize("w", ["--w=1", "--w=1,2,3"])
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


class TestLift:
    def write_trajectory(self, tmp_path):
        path = tmp_path / "traj.csv"
        t = np.linspace(0.0, 2 * np.pi, 501)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "w_1"])
            for tk in t:
                writer.writerow([f"{tk:.17g}", f"{np.sin(tk):.17g}"])
        return str(path)

    def test_extremal_summary(self, model2_file, tmp_path, capsys):
        traj = self.write_trajectory(tmp_path)
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
        traj = self.write_trajectory(tmp_path)
        out = tmp_path / "lift"
        rc = main(["lift", "--model", model2_file, "--trajectory", traj,
                   "--allocator", "naive", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "lift_naive.json").read_text())
        assert summary["signature_changes"] >= 2

    def test_csv_format(self, model2_file, tmp_path):
        # a comment line, then csv.writer rows: \r\n endings, %.17g floats
        # and the signature quoted
        traj = self.write_trajectory(tmp_path)
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

    def test_confinement_violation_is_solver_error(self, model2_file, tmp_path,
                                                   capsys, monkeypatch):
        def flipping(model, W, C=0.0, branch="positive"):
            V = np.tile(model.c, (len(W), 1))
            V[10:] *= -1.0
            return V
        monkeypatch.setattr(import_module("fiberalloc.allocator"),
                            "extremal_inverse_batch", flipping)
        rc = main(["lift", "--model", model2_file, "--trajectory",
                   self.write_trajectory(tmp_path), "--out", str(tmp_path)])
        assert rc == 2
        assert "sample 10" in capsys.readouterr().err


#: argv that exit inside argparse, with help, a version or a usage error
PARSER_EXITS = [
    [], ["-h"], ["--version"], ["--vers"], ["bogus"], ["--"], ["-h", "invert"],
    *([name, "-h"] for name in COMMANDS),
    ["invert"], ["invert", "--model", "m.json", "--w", "1", "--bogus"],
    ["invert", "--model", "m.json", "--w", "1", "stray"],
    ["strata", "--layer", "x"],
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

    @pytest.mark.parametrize("argv", [
        ["validate", "--model", "m.json"],
        ["fibers", "--model", "m.json", "--w", "1", "--w=-2", "--samples", "9"],
        ["foliation", "--model", "m.json", "--orthant", "+,-,+", "--C", "1"],
        ["strata", "--model", "m.json", "--layer", "2", "--seed", "3"],
        ["invert", "--model", "m.json", "--w", "1,2", "--branch", "negative"],
        ["lift", "--model", "m.json", "--trajectory", "t.csv", "--out", "o"],
    ], ids=lambda argv: argv[0])
    def test_one_command_parser_gives_the_full_namespace(self, argv):
        one = build_parser(argv[0]).parse_args(argv)
        assert vars(one) == vars(build_parser().parse_args(argv))
