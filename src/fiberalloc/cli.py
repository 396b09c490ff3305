"""Command-line front end: validate | fibers | foliation | strata | invert | lift.

Every subcommand takes --model (JSON file with the allocation matrix), --out
(output directory), and --seed (recorded in every output header).  CSV output
uses a header row and 17 significant digits so doubles round-trip losslessly.

Exit codes: 0 success, 1 validation error, 2 solver error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
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
from .fibers import crossing_parameters, fiber_point
from .model import AllocationModel, actuation, load_model
from .potential import SOLVED, layer_section, phi_sum
from .strata import (
    classify_orthant,
    enumerate_layer,
    extremal_signature,
    graph_to_dot,
    graph_to_json,
    layer_adjacency_graph,
    orthant_masks,
    reciprocal_hinges,
)

SELF_CHECK_TOL = 1e-8
#: Lift rows formatted per write; bounds the memory the CSV text takes.
CSV_CHUNK_ROWS = 4096

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
    """
    cols = ["%.17g"] * values.shape[1]
    at = len(cols) if at is None else at
    if masks is None:
        keys, fmt = [None] * len(values), {None: ",".join(cols) + "\r\n"}
    else:
        keys, fmt = masks.tolist(), {}
        for k in set(keys):
            text = classify_orthant(model, [1 if k >> i & 1 else -1
                                            for i in range(model.n)])
            fmt[k] = ",".join(cols[:at] + [f'"{text}"'] + cols[at:]) + "\r\n"
    with _csv_file(path, header, seed) as fh:
        for lo in range(0, len(values), CSV_CHUNK_ROWS):
            hi = lo + CSV_CHUNK_ROWS
            fh.write("".join([fmt[k] for k in keys[lo:hi]])
                     % tuple(values[lo:hi].ravel().tolist()))


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.replace(";", ",").split(",") if tok])


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
        trace = crossing_parameters(model, w)
        lams = sorted(set(lam_grid.tolist()))
        marks = {lam for lam, _ in trace.crossings
                 if args.lam_min <= lam <= args.lam_max}
        all_lams = sorted(set(lams) | marks)
        rows = []
        for lam in all_lams:
            p = fiber_point(model, w, lam)
            werr = np.max(np.abs(actuation(model, p.v) - w))
            # the residual scale of the map, ||A||_2 ||v||^2
            if werr > SELF_CHECK_TOL * norm_A * (p.v @ p.v):
                raise AssertionError(f"self-check failed: |f(v) - w| = {werr:g}")
            # is_crossing 0.0 or 1.0 is written "0" or "1"
            rows.append([lam, *p.v, float(lam in marks)])
        return np.array(rows, dtype=float).reshape(-1, model.n + 2)

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
    sigs = enumerate_layer(model, args.layer)
    hinges = reciprocal_hinges(model, args.layer)
    print(f"layer {args.layer}: {len(sigs)} orthants, {len(hinges)} reciprocal "
          f"hinges, connected={graph['connected']}")
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
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
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
    """The shared --model/--out/--seed options, then ``name``'s own."""
    p.add_argument("--model", required=True, help="JSON model file")
    p.add_argument("--out", default=".", help="output directory")
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
