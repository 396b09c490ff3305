"""Command-line front end: validate | fibers | foliation | strata | invert | lift.

Every subcommand takes --model (JSON file with the allocation matrix).
fibers, foliation, strata and lift write files and take --out (output
directory); fibers, foliation and lift also take --seed, recorded in every
output header (foliation draws its task directions from it).  CSV output
uses a header row and 17 significant digits so doubles round-trip losslessly.
A large CSV, such as the lift of a long trajectory, has its second half
formatted by a standard-library-only helper process when more than one CPU is
available; the bytes written are the same either way.

Exit codes: 0 success, 1 validation error, 2 solver error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
import warnings
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from ._csvrows import format_rows
from .allocator import lift_trajectory, section_inverse
from .errors import (
    BoundaryStateError,
    ConfinementError,
    CrossingStateError,
    DegenerateRedundancyError,
    NonGenericSegmentError,
    OriginExcludedError,
    RankDeficientError,
    SectionSolveError,
    WrongShapeError,
)
from .fibers import _on_fiber, crossings
from .model import (AllocationModel, actuation, load_model, transform,
                    untransform)
from .potential import phi_sum
from .section import SOLVED, layer_section
from .strata import (
    classify_orthant,
    extremal_signature,
    graph_to_dot,
    graph_to_json,
    layer_adjacency_graph,
    orthant_masks,
)

SELF_CHECK_TOL = 1e-8
#: Lift rows formatted per write; bounds the memory the CSV text takes.
CSV_CHUNK_ROWS = 4096
#: Rows from which a CSV's second half goes to a helper process, when more
#: than one CPU is free.  The helper takes 20-40 ms to start, the time of
#: formatting some 10k rows; the half it takes over is well past that.
HELPER_ROWS = 8 * CSV_CHUNK_ROWS
_HELPER = Path(__file__).with_name("_csvrows.py")

_VALIDATION_ERRORS = (WrongShapeError, RankDeficientError,
                      DegenerateRedundancyError, ValueError)
_SOLVER_ERRORS = (NonGenericSegmentError, OriginExcludedError,
                  CrossingStateError, BoundaryStateError, SectionSolveError,
                  ConfinementError)


@contextmanager
def _csv_file(path: Path, header: list[str], seed):
    """Open a CSV output and write its comment line and header row."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# fiberalloc {__version__} seed={seed}\n")
        csv.writer(fh).writerow(header)
        yield fh


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # not on every platform
        return os.cpu_count() or 1


def _start_helper(formats: dict, masks: np.ndarray, values: np.ndarray,
                  encoding: str):
    """A helper process formatting the rows ``masks``, ``values`` as
    :func:`_write_csv` does, with its output on a pipe; None when it cannot
    be started.

    Its input goes through a temporary file, so that the helper reads it at
    its own pace while this process formats its own rows.
    """
    import subprocess
    import tempfile
    table = sorted(formats)
    index = np.searchsorted(np.array(table, masks.dtype), masks)
    header = {"formats": [formats[k] for k in table], "cols": values.shape[1],
              "chunk": CSV_CHUNK_ROWS, "encoding": encoding}
    try:
        with tempfile.TemporaryFile() as rows:
            rows.write(json.dumps(header).encode() + b"\n")
            rows.write(memoryview(index.astype(np.int64, copy=False)))
            rows.write(memoryview(values))
            rows.seek(0)
            return subprocess.Popen([sys.executable, "-I", "-S", str(_HELPER)],
                                    stdin=rows, stdout=subprocess.PIPE)
    except OSError:
        return None


def _write_csv(path: Path, header: list[str], values: np.ndarray, seed,
               model: AllocationModel | None = None,
               masks: np.ndarray | None = None, at: int | None = None) -> None:
    """Float rows, and optionally orthant signatures, as csv.writer writes them.

    Floats get 17 significant digits.  With ``masks``, row k also gets the
    orthant signature of ``masks[k]`` (bit i set when v_i > 0), quoted (its
    commas make csv.writer quote it), before column ``at`` of ``values``
    (after the last one when ``at`` is None).  Each distinct mask is
    classified once, into a row format of its own, and rows are formatted
    CSV_CHUNK_ROWS at a time, with one %-format per chunk.

    From HELPER_ROWS rows on, when more than one CPU is free, the second half
    of the rows is formatted meanwhile by a helper process (``_csvrows.py``,
    standard library only) and appended; the file's bytes are the same.  A
    helper that fails raises OSError.
    """
    values = np.ascontiguousarray(values, dtype=float)
    rows, ncols = values.shape
    cols = ["%.17g"] * ncols
    at = ncols if at is None else at
    if masks is None:
        masks = np.zeros(rows, np.int64)
        keys, formats = masks.tolist(), {0: ",".join(cols) + "\r\n"}
    else:
        keys, formats = masks.tolist(), {}
        for k in set(keys):
            text = classify_orthant(model, [1 if k >> i & 1 else -1
                                            for i in range(model.n)])
            formats[k] = (",".join(cols[:at] + [f'"{text}"'] + cols[at:])
                          + "\r\n")
    with _csv_file(path, header, seed) as fh:
        helper, half = None, rows // 2
        if rows >= HELPER_ROWS and _cpus() > 1:
            helper = _start_helper(formats, masks[half:], values[half:],
                                   fh.encoding)
        split = rows if helper is None else half
        del keys[split:]   # the rest are the helper's
        with helper or nullcontext():   # Popen's exit waits for the helper
            try:
                fh.writelines(format_rows(
                    formats, keys, memoryview(values[:split].reshape(-1)),
                    ncols, CSV_CHUNK_ROWS))
                if helper is not None:
                    fh.flush()
                    shutil.copyfileobj(helper.stdout, fh.buffer, 1 << 16)
            except BaseException:
                if helper is not None:
                    helper.kill()
                raise
    if helper is not None and helper.returncode:
        raise OSError(f"{path}: the CSV row helper exited with code "
                      f"{helper.returncode}")


def _parse_vector(text: str) -> np.ndarray:
    """A vector written "1,2" or "1;2"; an empty entry is a ValueError."""
    tokens = text.replace(";", ",").split(",")
    if "" in tokens:
        raise ValueError(f"empty entry in the vector {text!r}")
    return np.array([float(tok) for tok in tokens])


def cmd_validate(args) -> int:
    model = load_model(args.model)
    residual = np.linalg.norm(model.A @ model.b) / np.linalg.norm(model.A)
    print(f"matrix: {model.m} x {model.n} (rank {model.m})")
    print("b =", np.array2string(model.b, precision=5))
    print("c =", np.array2string(model.c, precision=5))
    print(f"||A b|| / ||A|| = {residual:.3e}")
    print(f"min |b_i| = {np.min(np.abs(model.b)):.5f}")
    print("assumptions: full row rank, n = m+1, strict redundancy: OK")
    return 0


def cmd_fibers(args) -> int:
    model = load_model(args.model)
    out = Path(args.out)
    tasks = [_parse_vector(tok) for tok in args.w]
    lam_grid = np.linspace(args.lam_min, args.lam_max, args.samples)
    norm_A = np.linalg.norm(model.A, 2)

    def table(w) -> np.ndarray:
        (marks,), _ = crossings(model, w[None, :])
        marks = marks[(args.lam_min <= marks) & (marks <= args.lam_max)]
        # sorted, each value once as it first occurs: a grid 0.0 before a
        # crossing's -0.0
        lams = np.concatenate([lam_grid, marks])
        lams = lams[np.unique(lams, return_index=True)[1]]
        V = untransform(_on_fiber(model, w, lams[:, None])[0])
        werr = np.max(np.abs(transform(V) @ model.A.T - w), axis=1)
        # the residual scale of the map, ||A||_2 ||v||^2
        if np.any(werr > SELF_CHECK_TOL * norm_A * np.sum(V * V, axis=1)):
            raise AssertionError(f"self-check failed: |f(v) - w| = {werr.max():g}")
        # is_crossing 0.0 or 1.0 is written "0" or "1"
        return np.column_stack([lams, V, np.isin(lams, marks)])

    header = ["lambda"] + [f"v_{i+1}" for i in range(model.n)] + ["is_crossing"]
    for k, w in enumerate(tasks):
        _write_csv(out / f"fiber_{k}.csv", header, table(w), args.seed)
    _write_csv(out / "central_fiber.csv", header, table(np.zeros(model.m)),
               args.seed)
    print(f"wrote {len(tasks)} fiber polylines + central fiber to {out}")
    return 0


def cmd_foliation(args) -> int:
    model = load_model(args.model)
    out = Path(args.out)
    rng = np.random.default_rng(args.seed)
    mags = _parse_vector(args.magnitudes)
    if args.orthant:
        sigma = np.array([{"+": 1, "-": -1}.get(s, 0)
                          for s in args.orthant.strip("()").split(",")])
        # a signature of the wrong length or with a sign other than +/- is a
        # ValueError of classify_orthant
        layer = classify_orthant(model, sigma).layer
    else:
        sigma = None
        layer = args.layer

    dirs = rng.normal(size=(args.grid, model.m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    # one task per (direction, magnitude), magnitudes varying fastest
    W = (mags[None, :, None] * dirs[:, None, :]).reshape(-1, model.m)
    header = [f"v_{i+1}" for i in range(model.n)] + ["C", "orthant"] + \
        [f"w_{j+1}" for j in range(model.m)]
    for C in args.C:
        V, _, status = layer_section(model, W, layer, C)
        keep = status == SOLVED   # a row the solver refuses or fails is left out
        if sigma is not None:
            keep &= np.all((V > 0) == (sigma > 0), axis=1)
        V_ok, W_ok = V[keep], W[keep]
        err = np.abs(phi_sum(model.b, np.sign(V_ok), np.log(np.abs(V_ok))) - C)
        if np.any(err > SELF_CHECK_TOL):
            raise AssertionError(
                f"self-check failed: |Phi(v) - C| = {err.max():g}")
        values = np.column_stack([V_ok, np.full(len(V_ok), C), W_ok])
        _write_csv(out / f"foliation_C{C:g}.csv", header, values, args.seed,
                   model, orthant_masks(V_ok), at=model.n + 1)
    print(f"wrote {len(args.C)} level-set point clouds to {out}")
    return 0


def cmd_strata(args) -> int:
    model = load_model(args.model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    graph = layer_adjacency_graph(model, args.layer)
    (out / f"layer_{args.layer}.json").write_text(graph_to_json(graph))
    (out / f"layer_{args.layer}.dot").write_text(graph_to_dot(graph))
    print(f"layer {args.layer}: {len(graph['nodes'])} orthants, "
          f"{len(graph['edges'])} reciprocal hinges, "
          f"connected={graph['connected']}")
    return 0


def _layer(model: AllocationModel, args) -> int | None:
    """The layer of ``--layer``, or the extremal layer of ``--branch``; None
    when neither is given, so the naive allocator can tell (every other
    allocator then solves on the positive extremal layer n)."""
    if args.branch is not None:
        return extremal_signature(model, args.branch).layer
    return args.layer


def cmd_invert(args) -> int:
    model = load_model(args.model)
    w = _parse_vector(args.w)
    layer = _layer(model, args)
    sp, report = section_inverse(model, w, model.n if layer is None else layer,
                                 args.C)
    v = sp.v
    doc = {
        "w": [float(x) for x in w],
        "C": args.C,
        "v": [float(x) for x in v],
        "actuation_check": [float(x) for x in actuation(model, v)],
        "hinge_proximity": (
            None if report is None else
            {"index_pair": list(report.index_pair),
             "min_abs_v": report.min_abs_v}),
    }
    print(json.dumps(doc, indent=2))
    return 0


def cmd_lift(args) -> int:
    model = load_model(args.model)
    out = Path(args.out)
    with open(args.trajectory) as fh:
        for line in fh:
            if not line.startswith("#"):
                break   # the header row
        with warnings.catch_warnings():   # no rows is refused below
            warnings.filterwarnings("ignore",
                                    "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if not len(data):
        raise ValueError(
            f"{args.trajectory}: the trajectory file has no samples")
    t, w_samples = data[:, 0], data[:, 1:]

    lifted = lift_trajectory(model, t, w_samples, args.allocator,
                             _layer(model, args), args.C)

    header = ["t"] + [f"v_{i+1}" for i in range(model.n)] + \
        ["speed", "min_abs_v", "signature"]
    values = np.column_stack([t, lifted.v, lifted.speed, lifted.min_abs_v])
    _write_csv(out / f"lift_{args.allocator}.csv", header, values, args.seed,
               model, lifted.masks)
    summary = {
        "allocator": args.allocator,
        "samples": len(t),
        "seed": args.seed,
        "max_speed": lifted.max_speed,
        "signature_changes": lifted.signature_changes,
        "min_abs_v": float(np.min(lifted.min_abs_v)),
    }
    (out / f"lift_{args.allocator}.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary, indent=2))
    return 0


def _validate_args(p) -> None:
    p.set_defaults(func=cmd_validate)


def _fibers_args(p) -> None:
    p.add_argument("--w", action="append", required=True,
                   help="task vector, comma-separated (repeatable)")
    p.add_argument("--lam-min", type=float, default=-10.0)
    p.add_argument("--lam-max", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=400)
    p.set_defaults(func=cmd_fibers)


def _foliation_args(p) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--layer", type=int)
    group.add_argument("--orthant", help='signature like "+,-,+"')
    p.add_argument("--C", type=float, action="append", required=True)
    p.add_argument("--grid", type=int, default=64,
                   help="number of task directions")
    p.add_argument("--magnitudes", default="0.25,0.5,1,2,4")
    p.set_defaults(func=cmd_foliation)


def _strata_args(p) -> None:
    p.add_argument("--layer", type=int, required=True)
    p.set_defaults(func=cmd_strata)


def _layer_args(p) -> None:
    """--layer or --branch, read by :func:`_layer`."""
    group = p.add_mutually_exclusive_group()
    group.add_argument("--layer", type=int, default=None)
    group.add_argument("--branch", choices=["positive", "negative"])


def _invert_args(p) -> None:
    p.add_argument("--w", required=True)
    p.add_argument("--C", type=float, default=0.0)
    _layer_args(p)
    p.set_defaults(func=cmd_invert)


def _lift_args(p) -> None:
    p.add_argument("--trajectory", required=True,
                   help="CSV with header t, w_1..w_m")
    p.add_argument("--allocator", choices=["extremal", "section", "naive"],
                   default="extremal")
    p.add_argument("--C", type=float, default=0.0)
    _layer_args(p)
    p.set_defaults(func=cmd_lift)


#: subcommand -> (help text, function adding its own arguments and handler).
#: The handler is read from the module when a parser is built, so a wrapper
#: put in place of ``cmd_*`` is the one that runs.
COMMANDS = {
    "validate": ("check model assumptions", _validate_args),
    "fibers": ("sample fiber polylines to CSV", _fibers_args),
    "foliation": ("sample potential level sets to CSV", _foliation_args),
    "strata": ("export layer graph (JSON + DOT)", _strata_args),
    "invert": ("invert a single task", _invert_args),
    "lift": ("lift a task trajectory CSV", _lift_args),
}


def _add_command_args(p: argparse.ArgumentParser, name: str) -> None:
    """--model, --out and --seed where ``name`` reads them, then its own."""
    p.add_argument("--model", required=True, help="JSON model file")
    if name in ("fibers", "foliation", "strata", "lift"):
        p.add_argument("--out", default=".", help="output directory")
    if name in ("fibers", "foliation", "lift"):
        p.add_argument("--seed", type=int, default=0)
    COMMANDS[name][1](p)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser with every subcommand, or ``command``'s parser alone.

    ``command``'s parser is the full parser's subparser for it: it parses the
    arguments after the command name into the same namespace, less
    ``command``, and prints the same help and errors.  The full parser serves
    help, --version, a missing or unknown command, and arguments a command
    does not know.
    """
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"fiberalloc {command}")
        _add_command_args(parser, command)
        return parser
    parser = argparse.ArgumentParser(
        prog="fiberalloc",
        description="Fiber geometry and singularity-free allocation for "
                    "signed-quadratic actuation maps.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        _add_command_args(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        args, extras = build_parser(argv[0]).parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if extras:   # as the full parser reports what its subparser left
            build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    else:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except _VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
