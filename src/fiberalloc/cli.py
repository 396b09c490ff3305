"""Command-line front end: validate | fibers | foliation | strata | invert | lift.

Every subcommand takes --model (JSON file with the allocation matrix).
fibers, foliation, strata and lift write files and take --out (output
directory); fibers, foliation and lift also take --seed, recorded in every
output header (foliation draws its task directions from it).  CSV output
uses a header row and 17 significant digits so doubles round-trip losslessly.
Rows go from file to text in blocks of BLOCK_ROWS, each formatted with one
%-format.  fibers and foliation format every block in process.  When more
than one CPU is available, a long lift has most of its blocks formatted by a
standard-library-only helper process (``_csvrows.py``).  There is one lift
loop: it reads its trajectory a block at a time, in sample order, and lifts
each block after the sample before it.  It sends the blocks that start
before the trajectory's last bytes to the helper at once, one frame a block,
so that the helper formats them while the trajectory is still being read and
solved, and keeps the rest as blocks (every block, without a helper), which
it formats and writes after the helper's text.  A frame stands alone: one
JSON line with the row count and the formats of the block's distinct masks,
then the rows' keys into that list and their values, written to an unnamed
temporary file and announced by one line on the helper's stdin, so that
sending never waits for the helper.  The bytes written are the same as when
every row is formatted in process, and a lift that fails reports the first
error of its first bad block, with a helper or without.

Exit codes: 0 success, 1 validation error, 2 solver error, 3 I/O error.  A
ValueError, WrongShapeError, RankDeficientError or DegenerateRedundancyError
is a validation error; any other FiberAllocError, a failed self-check
included, is a solver error.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
import tempfile
import warnings
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from ._csvrows import format_rows
from .allocator import lift_block, section_inverse
from .errors import (DegenerateRedundancyError, FiberAllocError,
                     RankDeficientError, WrongShapeError)
from .fibers import _on_fiber, crossings
from .model import (AllocationModel, actuation, load_model, transform,
                    untransform)
from .potential import phi_sum
from .section import SOLVED, layer_section
from .strata import (
    classify_orthant,
    graph_to_dot,
    graph_to_json,
    layer_adjacency_graph,
    orthant_masks,
    signature_from_mask,
)

SELF_CHECK_TOL = 1e-8
#: Rows in a block, from file to text: a lift reads and solves a trajectory a
#: block at a time and sends a block to a helper as one frame, and every CSV
#: is formatted a block at a time, with one %-format, which bounds the memory
#: the text of a block takes.
BLOCK_ROWS = 4096
#: Samples from which a lift shares its rows with a helper process, when more
#: than one CPU is free.  The helper takes about 9 ms to start (2-vCPU AMD
#: EPYC), the time of formatting some 6k rows; the share it takes over is
#: well past that, and a lift starts it before it reads its trajectory.
HELPER_ROWS = 8 * BLOCK_ROWS
#: The share of a trajectory's bytes, at its end, whose blocks a lift with a
#: helper keeps to format itself, after it has read, solved and sent the
#: blocks before them to the helper.  Reading and solving take about 0.7 us a
#: row and formatting 1.45 us (2-vCPU AMD EPYC), so the two processes finish
#: together for 0.7 + 1.45 h = 1.45 (1 - h), h = 0.26, and a little later for
#: the helper's start-up and first block: 0.3.
LIFT_OWN_SHARE = 0.3
_HELPER = Path(__file__).with_name("_csvrows.py")

_VALIDATION_ERRORS = (WrongShapeError, RankDeficientError,
                      DegenerateRedundancyError, ValueError)


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # not on every platform
        return os.cpu_count() or 1


def _start_helper():
    """A helper process (``_csvrows.py``) that formats the frames written to
    ``helper.frames``, an unnamed temporary file, as its stdin announces
    them, and writes their text to its stdout pipe at the end of its stdin;
    None when it cannot be started."""
    import locale
    import subprocess
    try:
        frames = tempfile.TemporaryFile()
    except OSError:
        return None
    fd = frames.fileno()
    try:
        helper = subprocess.Popen(
            [sys.executable, "-I", "-S", str(_HELPER), str(fd),
             locale.getpreferredencoding(False)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
            pass_fds=(fd,))
    except OSError:
        frames.close()
        return None
    helper.frames = frames
    return helper


@contextmanager
def _csv_helper(rows: int):
    """The helper process of a lift of about ``rows`` samples, or None.

    One is started from HELPER_ROWS samples on, when more than one CPU is
    free, before the trajectory is read, so that its start-up overlaps the
    reading and solving of the first block (see :func:`_lift`).  Its frames
    go to a file, so that sending one never waits for the helper.  It is
    killed on an error in the block and always reaped on leaving it, and its
    file closed.
    """
    helper = _start_helper() if rows >= HELPER_ROWS and _cpus() > 1 else None
    if helper is None:
        yield None
        return
    # Popen's exit closes the pipes and waits for the helper
    with helper.frames, helper:
        try:
            yield helper
        except BaseException:
            helper.kill()
            raise


def _feed_helper(helper, formats: dict, masks: np.ndarray,
                 values: np.ndarray) -> None:
    """Send the rows ``masks``, ``values`` to ``helper`` as one frame that
    stands alone, row k to be formatted as ``formats[masks[k]]``.  A helper
    that has already exited is reported by its exit code, not here."""
    uniq, index = np.unique(masks, return_inverse=True)
    index = index.astype(np.int64, copy=False)
    values = np.ascontiguousarray(values, dtype=float)
    header = json.dumps({"rows": len(values), "cols": values.shape[1],
                         "formats": [formats[k] for k in uniq.tolist()]}
                        ).encode() + b"\n"
    frames = helper.frames
    frames.write(header)
    frames.write(memoryview(index))
    frames.write(memoryview(values))
    frames.flush()
    try:
        helper.stdin.write(b"%d\n" % (len(header) + index.nbytes
                                       + values.nbytes))
    except BrokenPipeError:
        pass


def _add_row_formats(formats: dict, model: AllocationModel | None,
                     ncols: int, at: int | None, masks: np.ndarray) -> None:
    """Add to ``formats`` the row format of each mask of ``masks`` it lacks:
    ``ncols`` floats at 17 significant digits and, given ``model``, the
    orthant signature of the mask, quoted, before column ``at`` (after the
    last one when None), as csv.writer writes a row."""
    cols = ["%.17g"] * ncols
    at = ncols if at is None else at
    for k in set(masks.tolist()) - formats.keys():
        text = [] if model is None else [f'"{signature_from_mask(model, k)}"']
        formats[k] = ",".join(cols[:at] + text + cols[at:]) + "\r\n"


def _write_csv(path: Path, header: list[str], values: np.ndarray, seed,
               model: AllocationModel | None = None,
               masks: np.ndarray | None = None, at: int | None = None) -> None:
    """Float rows, and optionally orthant signatures, as csv.writer would
    write them, after a comment line and the header row (fixed names, which
    need no quoting).

    Floats get 17 significant digits.  With ``masks``, row k also gets the
    orthant signature of ``masks[k]`` (bit i set when v_i > 0), quoted (its
    commas make csv.writer quote it), before column ``at`` of ``values``
    (after the last one when ``at`` is None).  Each distinct mask is
    classified once, into a row format of its own, and the rows are written
    in blocks of BLOCK_ROWS, all in process: only a lift shares its rows with
    a helper (:func:`_csv_helper`).
    """
    values = np.ascontiguousarray(values, dtype=float)
    if masks is None:
        masks = np.zeros(len(values), np.int64)
    formats = {}
    _add_row_formats(formats, model, values.shape[1], at, masks)
    _write_rows(path, header, seed, formats,
                ((masks[lo:lo + BLOCK_ROWS], values[lo:lo + BLOCK_ROWS])
                 for lo in range(0, len(values), BLOCK_ROWS)))


def _write_rows(path: Path, header: list[str], seed, formats: dict, blocks,
                helper=None) -> None:
    """Write the CSV of :func:`_write_csv`: the comment line, the header row,
    the text of every frame sent to ``helper``, unless it is None, then the
    rows of each block ``(masks, values)`` of ``blocks`` (values C-ordered) in
    the ``formats`` of their masks, a block with one %-format.  Each block is
    formatted as it is written; with a helper, every block is formatted after
    the end of its stdin and before its text is copied, while it formats its
    last frames.  A helper that fails raises OSError.

    A file already at ``path`` is replaced, not truncated: it is unlinked
    and a new file made, because a truncated file waits for the writeback
    of its old bytes on some file systems (hundreds of ms for a 13 MB lift
    CSV on ext4).  So a hard link to the old file elsewhere keeps the old
    bytes, a symlink at ``path`` is replaced rather than written through,
    and the new file gets the default mode.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# fiberalloc {__version__} seed={seed}\n" + ",".join(header)
                 + "\r\n")
        rows = (format_rows(formats, masks.tolist(),
                            memoryview(values.reshape(-1)))
                for masks, values in blocks)
        if helper is not None:
            helper.stdin.close()   # the helper writes its text at its end
            rows = list(rows)
            fh.flush()
            shutil.copyfileobj(helper.stdout, fh.buffer, 1 << 16)
        fh.writelines(rows)
    if helper is not None and helper.wait():
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
    if not -np.inf < args.lam_min <= args.lam_max < np.inf:
        raise ValueError(f"--lam-min={args.lam_min:g} and --lam-max="
                         f"{args.lam_max:g} must be finite, with --lam-min <= "
                         "--lam-max")
    lam_grid = np.linspace(args.lam_min, args.lam_max, args.samples)
    norm_A = np.linalg.norm(model.A, 2)

    def table(w) -> np.ndarray:
        if not np.all(np.isfinite(w)):
            raise FiberAllocError(f"no fiber for w = {w}: the task is not finite")
        # WrongShapeError for a task of the wrong length
        (marks,), _ = crossings(model, w[None, :])
        marks = marks[(args.lam_min <= marks) & (marks <= args.lam_max)]
        # sorted, each value once as it first occurs: a grid 0.0 before a
        # crossing's -0.0
        lams = np.concatenate([lam_grid, marks])
        lams = lams[np.unique(lams, return_index=True)[1]]
        V = untransform(_on_fiber(model, w, lams[:, None])[0])
        werr = np.max(np.abs(transform(V) @ model.A.T - w), axis=1)
        # the residual scale of the map, ||A||_2 ||v||^2
        if not np.all(werr <= SELF_CHECK_TOL * norm_A * np.sum(V * V, axis=1)):
            raise FiberAllocError(f"self-check failed: |f(v) - w| = {werr.max():g}")
        # is_crossing 0.0 or 1.0 is written "0" or "1"
        return np.column_stack([lams, V, np.isin(lams, marks)])

    header = ["lambda"] + [f"v_{i+1}" for i in range(model.n)] + ["is_crossing"]
    # every table is checked before a file is written
    tables = [table(w) for w in tasks + [np.zeros(model.m)]]
    names = [f"fiber_{k}.csv" for k in range(len(tasks))] + ["central_fiber.csv"]
    for name, values in zip(names, tables):
        _write_csv(out / name, header, values, args.seed)
    print(f"wrote {len(tasks)} fiber polylines + central fiber to {out}")
    return 0


def cmd_foliation(args) -> int:
    model = load_model(args.model)
    out = Path(args.out)
    rng = np.random.default_rng(args.seed)
    mags = _parse_vector(args.magnitudes)
    bad = np.flatnonzero(~np.isfinite(mags))
    if bad.size:
        raise ValueError(f"--magnitudes {args.magnitudes!r}: entry "
                         f"{bad[0] + 1} is {mags[bad[0]]:g}, not finite")
    if args.orthant:
        # a signature of the wrong length or with a sign other than +/- is a
        # ValueError of classify_orthant
        orthant = classify_orthant(model, [
            {"+": 1, "-": -1}.get(s, 0)
            for s in args.orthant.strip("()").split(",")])
        layer = orthant.layer
    else:
        orthant, layer = None, args.layer

    dirs = rng.normal(size=(args.grid, model.m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    # one task per (direction, magnitude), magnitudes varying fastest
    W = (mags[None, :, None] * dirs[:, None, :]).reshape(-1, model.m)
    header = [f"v_{i+1}" for i in range(model.n)] + ["C", "orthant"] + \
        [f"w_{j+1}" for j in range(model.m)]
    for C in args.C:
        V, _, status = layer_section(model, W, layer, C)
        masks = orthant_masks(V)
        keep = status == SOLVED   # a row the solver refuses or fails is left out
        if orthant is not None:
            keep &= masks == orthant.mask
        V_ok, W_ok = V[keep], W[keep]
        err = np.abs(phi_sum(model.b, np.sign(V_ok), np.log(np.abs(V_ok))) - C)
        if not np.all(err <= SELF_CHECK_TOL):
            raise FiberAllocError(
                f"self-check failed: |Phi(v) - C| = {err.max():g}")
        values = np.column_stack([V_ok, np.full(len(V_ok), C), W_ok])
        _write_csv(out / f"foliation_C{C:g}.csv", header, values, args.seed,
                   model, masks[keep], at=model.n + 1)
    print(f"wrote {len(args.C)} level-set point clouds to {out}")
    return 0


def cmd_strata(args) -> int:
    model = load_model(args.model)
    out = Path(args.out)
    graph = layer_adjacency_graph(model, args.layer)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"layer_{args.layer}.json").write_text(graph_to_json(graph))
    (out / f"layer_{args.layer}.dot").write_text(graph_to_dot(graph))
    print(f"layer {args.layer}: {len(graph['nodes'])} orthants, "
          f"{len(graph['edges'])} reciprocal hinges, "
          f"connected={graph['connected']}")
    return 0


def _layer(model: AllocationModel, args) -> int | None:
    """The layer of ``--layer``, or the extremal layer of ``--branch``: n
    for positive, 0 for negative.  None when neither is given, so the naive
    allocator can tell (every other allocator then solves on layer n)."""
    if args.branch is not None:
        return model.n if args.branch == "positive" else 0
    return args.layer


def cmd_invert(args) -> int:
    model = load_model(args.model)
    w = _parse_vector(args.w)
    layer = _layer(model, args)
    sp, report = section_inverse(model, w, model.n if layer is None else layer,
                                 args.C)
    doc = {
        "w": w.tolist(),
        "C": args.C,
        "v": sp.v.tolist(),
        "actuation_check": actuation(model, sp.v).tolist(),
        "hinge_proximity": (
            None if report is None else
            {"index_pair": list(report.index_pair),
             "min_abs_v": report.min_abs_v}),
    }
    print(json.dumps(doc, indent=2))
    return 0


def _read_rows(path, fh, first_row: int) -> np.ndarray:
    """The next block of float rows of the open trajectory file ``fh``, up to
    BLOCK_ROWS of them, as a 2-D array.  A row that does not parse is a
    ValueError naming the trajectory file ``path`` and the row's number in the
    whole trajectory, of which ``first_row`` rows were read before."""
    try:
        with warnings.catch_warnings():   # no rows is the caller's to judge
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            warnings.filterwarnings("ignore", r"Input line \d+ contained no data")
            return np.loadtxt(fh, delimiter=",", ndmin=2, max_rows=BLOCK_ROWS)
    except ValueError as exc:
        # loadtxt numbers the rows of its own read
        text = re.sub(r"(?<=at row )\d+", lambda m: str(int(m[0]) + first_row),
                      str(exc), count=1)
        raise ValueError(f"{path}: {text}") from exc


def _lift(model: AllocationModel, layer: int | None, args, path: Path,
          header: list[str]):
    """The lift of :func:`cmd_lift`: it reads the trajectory, lifts it
    (:func:`lift_block`) and writes every row.  Returns the lift's ``(speed,
    min_abs_v, masks)``.

    The trajectory's first row, after its ``#`` comment lines, is its header
    row; one whose every field is a number is a ValueError, since it would
    be a sample lost.  A helper process (see :func:`_csv_helper`) starts
    next, for a trajectory whose size is that of HELPER_ROWS lines like its
    first sample's.  Then each block of BLOCK_ROWS samples is read and lifted
    after the sample before it.  A block that starts before the last
    LIFT_OWN_SHARE of the samples' bytes is sent to the helper as one frame,
    so that the helper formats it while this process reads on; the others,
    and every block of a lift without a helper, are kept as blocks, and
    formatted and written after the helper's text.

    The first block that fails raises its first error, in the order of
    :func:`lift_block`: a row that does not parse, then a bad time stamp,
    then a sample that cannot be solved, a speed that is not finite, an
    orthant change.  The blocks depend on the file alone, so a lift fails
    alike with a helper and without, and writes no file.
    """
    lift = partial(lift_block, model, allocator=args.allocator, layer=layer,
                   C=args.C)
    with open(args.trajectory) as fh:
        while (line := fh.readline()).startswith("#"):   # then the header row
            pass
        try:   # a header row of numbers is a sample, which would be lost
            [float(field) for field in line.split(",")]
        except ValueError:
            pass
        else:
            raise ValueError(f"{args.trajectory}: the trajectory file has no "
                             f"header row: its first row is {line.strip()!r}")
        start = fh.tell()
        first = fh.readline()
        fh.seek(start)
        end = os.fstat(fh.fileno()).st_size
        keep_from = end - LIFT_OWN_SHARE * (end - start)
        with _csv_helper((end - start) // max(len(first), 1)) as helper:
            formats, parts, kept, rows, before = {}, [], [], 0, None
            while True:
                at = fh.buffer.tell()   # fh.tell() fails after a loadtxt
                if not len(block := _read_rows(args.trajectory, fh, rows)):
                    break
                t = block[:, 0]
                v, speed, min_abs_v, masks = lift(
                    t, block[:, 1:], first_row=rows, before=before)
                values = np.column_stack([t, v, speed, min_abs_v])
                _add_row_formats(formats, model, values.shape[1], None, masks)
                if helper is not None and at < keep_from:
                    _feed_helper(helper, formats, masks, values)
                else:
                    kept.append((masks, values))
                parts.append((speed, min_abs_v, masks))
                before, rows = (t[-1], v[-1]), rows + len(block)
            if not rows:
                raise ValueError(f"{args.trajectory}: the trajectory file has "
                                 "no samples")
            _write_rows(path, header, args.seed, formats, kept, helper)
    return tuple(np.concatenate(column) for column in zip(*parts))


def cmd_lift(args) -> int:
    """Lift a trajectory CSV and write its rows and summary (:func:`_lift`)."""
    model = load_model(args.model)
    out = Path(args.out)
    path = out / f"lift_{args.allocator}.csv"
    header = ["t"] + [f"v_{i+1}" for i in range(model.n)] + \
        ["speed", "min_abs_v", "signature"]
    speed, min_abs_v, masks = _lift(model, _layer(model, args), args, path,
                                    header)
    summary = {
        "allocator": args.allocator,
        "samples": len(speed),
        "seed": args.seed,
        "max_speed": float(np.max(speed)),
        "signature_changes": int(np.count_nonzero(np.diff(masks))),
        "min_abs_v": float(np.min(min_abs_v)),
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


def _help_formatter():
    """argparse's HelpFormatter at the width it would read for itself, read
    once here: argparse makes a formatter in most add_argument calls, and
    each one reads the terminal size."""
    return partial(argparse.HelpFormatter,
                   width=shutil.get_terminal_size().columns - 2)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser with every subcommand, or ``command``'s parser alone.

    ``command``'s parser is the full parser's subparser for it: it parses the
    arguments after the command name into the same namespace, less
    ``command``, and prints the same help and errors.  The full parser serves
    help, --version, a missing or unknown command, and arguments a command
    does not know.  Every parser built in one call formats its help at the
    terminal width read once, at the start of the call.
    """
    formatter = _help_formatter()
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"fiberalloc {command}",
                                         formatter_class=formatter)
        _add_command_args(parser, command)
        return parser
    parser = argparse.ArgumentParser(
        prog="fiberalloc",
        description="Fiber geometry and singularity-free allocation for "
                    "signed-quadratic actuation maps.",
        formatter_class=formatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        _add_command_args(sub.add_parser(name, help=help_text,
                                         formatter_class=formatter), name)
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
    except _VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except FiberAllocError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
