"""Command-line front end: validate | fibers | foliation | strata | invert | lift.

Every subcommand takes --model (JSON file with the allocation matrix).
fibers, foliation, strata and lift write files and take --out (output
directory); fibers, foliation and lift also take --seed, recorded in every
output header (foliation draws its task directions from it).  CSV output
uses a header row and 17 significant digits so doubles round-trip losslessly.
Rows go from file to text in blocks of BLOCK_ROWS, each formatted with one
%-format.  fibers and foliation format every block in process.  When more
than one CPU is available, a long lift shares its blocks with a
standard-library-only helper process (``_csvrows.py``), split by the
helper's own progress.  There is one lift loop: it reads its trajectory a
block at a time, in sample order, lifts each block after the sample before
it, and queues it.  The helper is sent the oldest queued block whenever it
has fewer than HELPER_BACKLOG frames it has not reported finished, so that
it formats blocks while the trajectory is still being read and solved.
After the last block the queued blocks are cut in quarters, and the lift
formats them from the newest back while the helper takes them from the
oldest, so that the helper's blocks are a prefix of the file.  The helper appends its text straight to the output
file, a new file under a temporary name whose descriptor it is given; once
it has finished, the lift appends its own text and moves the file onto the
output path.  A frame stands alone: one JSON line with the row count and the
formats of the block's distinct masks, then the rows' keys into that list
and their values, written to an unnamed temporary file and announced by one
line on the helper's stdin, so that sending never waits for the helper.  The
bytes written are the same as when every row is formatted in process, and a
lift that fails reports the first error of its first bad block, with a
helper or without, and leaves no file behind.

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
from collections import deque
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
from .section import SOLVED, _check_level, layer_section
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
#: block at a time and sends a block to a helper as one frame (a quarter
#: block, after its last block), and every CSV is formatted a block at a
#: time, with one %-format, which bounds the memory the text of a block
#: takes.
BLOCK_ROWS = 4096
#: Samples from which a lift shares its rows with a helper process, when more
#: than one CPU is free.  The helper takes about 30 ms from its start to its
#: first frame's report (2-vCPU Intel Xeon, formatting 4.3 us a row), the
#: time of formatting some 7k rows; the share it takes over is well past
#: that, and a lift starts it before it reads its trajectory.
HELPER_ROWS = 8 * BLOCK_ROWS
#: The frames a lift's helper may have been sent and not yet finished.  The
#: lift sends it the oldest block it has queued whenever it has fewer, so the
#: helper has its next frame at hand as it finishes one, and the blocks the
#: lift formats itself at its end are those the helper has not reached.
HELPER_BACKLOG = 2
_HELPER = Path(__file__).with_name("_csvrows.py")

_VALIDATION_ERRORS = (WrongShapeError, RankDeficientError,
                      DegenerateRedundancyError, ValueError)


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # not on every platform
        return os.cpu_count() or 1


def _start_helper(out_fd: int):
    """A helper process (``_csvrows.py``) that formats the frames written to
    ``helper.frames``, an unnamed temporary file, as its stdin announces
    them, appends their text to the file open as descriptor ``out_fd``, and
    reports each frame finished with one line on its stdout, which is read
    without blocking; None when it cannot be started.  ``helper.sent`` and
    ``helper.done`` count the frames sent and reported finished."""
    import locale
    import subprocess
    try:
        frames = tempfile.TemporaryFile()
    except OSError:
        return None
    fd = frames.fileno()
    try:
        helper = subprocess.Popen(
            [sys.executable, "-I", "-S", str(_HELPER), str(fd), str(out_fd),
             locale.getpreferredencoding(False)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
            pass_fds=(fd, out_fd))
    except OSError:
        frames.close()
        return None
    os.set_blocking(helper.stdout.fileno(), False)
    helper.frames, helper.sent, helper.done = frames, 0, 0
    return helper


@contextmanager
def _csv_helper(rows: int, out_fd: int):
    """The helper process of a lift of about ``rows`` samples, writing to the
    file open as descriptor ``out_fd``, or None.

    One is started from HELPER_ROWS samples on, when more than one CPU is
    free, before the trajectory is read, so that its start-up overlaps the
    reading and solving of the first block (see :func:`_lift`).  Its frames
    go to a file, so that sending one never waits for the helper.  It is
    killed on an error in the block and always reaped on leaving it, and its
    file closed.
    """
    helper = (_start_helper(out_fd) if rows >= HELPER_ROWS and _cpus() > 1
              else None)
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
    helper.sent += 1
    try:
        helper.stdin.write(b"%d\n" % (len(header) + index.nbytes
                                       + values.nbytes))
    except BrokenPipeError:
        pass


def _share_with_helper(helper, formats: dict, blocks: deque) -> None:
    """Send ``helper`` the oldest of ``blocks``, one frame a block, while it
    has fewer than HELPER_BACKLOG frames it has not reported finished."""
    helper.done += (helper.stdout.read(1 << 16) or b"").count(b"\n")
    while blocks and helper.sent - helper.done < HELPER_BACKLOG:
        _feed_helper(helper, formats, *blocks.popleft())


def _finish_helper(helper) -> None:
    """End ``helper``'s frames and wait until it has reported every frame
    finished, or has exited."""
    helper.stdin.close()
    os.set_blocking(helper.stdout.fileno(), True)
    while helper.done < helper.sent and (lines := helper.stdout.read(1 << 16)):
        helper.done += lines.count(b"\n")


def _reap_helper(helper, path: Path) -> None:
    """Wait for ``helper`` to exit.  A helper that fails, or that exits
    before it has reported every frame finished, raises OSError naming the
    CSV ``path``."""
    if helper.wait():
        raise OSError(f"{path}: the CSV row helper exited with code "
                      f"{helper.returncode}")
    if helper.done != helper.sent:
        raise OSError(f"{path}: the CSV row helper finished {helper.done} of "
                      f"{helper.sent} frames")


def _write_blocks(out, helper, path: Path, formats: dict,
                  blocks: deque) -> None:
    """Append to ``out``, the new CSV for ``path``, the text of the lifted
    ``blocks`` that this process formats, in order, a block with one
    %-format.

    Without a helper that is every block, each formatted as it is written.
    With one, the blocks are cut in quarters, so that the two processes end
    within about a quarter block's time of each other, and this process
    formats them from the newest back, while the helper still takes the
    oldest (:func:`_share_with_helper`): the helper's text stays a prefix of
    the file.  This process appends its text once the helper has reported
    every frame finished, while the helper exits, and then reaps it
    (:func:`_reap_helper`).
    """
    if helper is None:
        out.writelines(_block_text(formats, *block) for block in blocks)
        return
    step = BLOCK_ROWS // 4
    blocks = deque((masks[lo:lo + step], values[lo:lo + step])
                   for masks, values in blocks
                   for lo in range(0, len(values), step))
    own = []
    while blocks:
        _share_with_helper(helper, formats, blocks)
        if blocks:
            own.append(_block_text(formats, *blocks.pop()))
    _finish_helper(helper)
    out.writelines(reversed(own))
    _reap_helper(helper, path)


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


def _block_text(formats: dict, masks: np.ndarray, values: np.ndarray) -> str:
    """The text of the rows ``values`` (C-ordered), row k in the format
    ``formats[masks[k]]``, with one %-format."""
    return format_rows(formats, masks.tolist(), memoryview(values.reshape(-1)))


def _csv_head(header: list[str], seed) -> str:
    """A CSV's comment line and header row (fixed names, which need no
    quoting)."""
    return (f"# fiberalloc {__version__} seed={seed}\n" + ",".join(header)
            + "\r\n")


def _write_csv(path: Path, header: list[str], values: np.ndarray, seed,
               model: AllocationModel | None = None,
               masks: np.ndarray | None = None, at: int | None = None) -> None:
    """Float rows, and optionally orthant signatures, as csv.writer would
    write them, after a comment line and the header row.

    Floats get 17 significant digits.  With ``masks``, row k also gets the
    orthant signature of ``masks[k]`` (bit i set when v_i > 0), quoted (its
    commas make csv.writer quote it), before column ``at`` of ``values``
    (after the last one when ``at`` is None).  Each distinct mask is
    classified once, into a row format of its own, and the rows are
    formatted and written in blocks of BLOCK_ROWS, all in process: only a
    lift shares its rows with a helper (:func:`_csv_helper`).

    A file already at ``path`` is replaced, not truncated: it is unlinked
    and a new file made, because a truncated file waits for the writeback
    of its old bytes on some file systems (hundreds of ms for a 13 MB lift
    CSV on ext4).  So a hard link to the old file elsewhere keeps the old
    bytes, a symlink at ``path`` is replaced rather than written through,
    and the new file gets the default mode.
    """
    values = np.ascontiguousarray(values, dtype=float)
    if masks is None:
        masks = np.zeros(len(values), np.int64)
    formats = {}
    _add_row_formats(formats, model, values.shape[1], at, masks)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(_csv_head(header, seed))
        fh.writelines(_block_text(formats, masks[lo:lo + BLOCK_ROWS],
                                  values[lo:lo + BLOCK_ROWS])
                      for lo in range(0, len(values), BLOCK_ROWS))


@contextmanager
def _replacing(path: Path, head: str):
    """A new file, open for appending text, that starts with ``head`` and
    takes the place of the file at ``path`` at the end of the block.

    The directories missing on the way to ``path`` are made, and the file is
    made next to ``path`` under a temporary name, with the default mode.  At
    the end of the block it is closed, the file at ``path`` is unlinked, and
    the new one renamed to ``path``: a file already there is never written,
    so a hard link to it elsewhere keeps its bytes, and a symlink at
    ``path`` is replaced rather than written through.  On an error the new
    file is removed, and so are the directories made for it, so nothing is
    left behind and the file at ``path`` keeps its bytes.  The file is open
    for appending, so that a helper given its descriptor adds its text at
    the end.
    """
    made = []   # the missing directories, the deepest first
    for directory in (path.parent, *path.parent.parents):
        if directory.exists():
            break
        made.append(directory)
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        while tmp is None:
            name = path.with_name(f".{path.name}.{os.urandom(4).hex()}")
            try:
                fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                             | os.O_APPEND, 0o666)
            except FileExistsError:
                continue
            tmp = name
        with open(fd, "w", newline="") as fh:
            fh.write(head)
            fh.flush()   # before a helper appends to the file
            yield fh
        # the old file goes first: on ext4 a rename over a file starts the
        # writeback of the new one (auto_da_alloc), some 14 ms for a 13 MB
        # lift CSV, and the disk writes that follow slow the next run
        path.unlink(missing_ok=True)
        os.replace(tmp, path)
    except BaseException:
        if tmp is not None:
            tmp.unlink(missing_ok=True)
        for directory in made:
            try:
                directory.rmdir()
            except OSError:   # something else has been put there since
                break
        raise


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
    for C in args.C:   # every level is checked before a file is written
        _check_level(model, layer, C)
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
    sys.stdout.write(_invert_json(doc) + "\n")
    return 0


def _json_floats(text: str) -> str:
    """Numbers' reprs as json writes them: nan, inf and -inf as NaN, Infinity
    and -Infinity (no finite number's repr has an n)."""
    if "n" in text:
        return text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _json_list(values: list, indent: str) -> str:
    """``json.dumps(values, indent=2)`` of a flat list of floats and ints,
    nested at ``indent``."""
    if not values:
        return "[]"
    text = _json_floats(f",\n{indent}  ".join(map(repr, values)))
    return f"[\n{indent}  {text}\n{indent}]"


def _invert_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2)`` of :func:`cmd_invert`'s document, byte
    for byte, written from the reprs of its numbers: with an indent the json
    module runs its pure-Python encoder, which takes about twice as long."""
    hinge = doc["hinge_proximity"]
    if hinge is not None:
        hinge = (f'{{\n    "index_pair": {_json_list(hinge["index_pair"], "    ")},'
                 f'\n    "min_abs_v": {_json_floats(repr(hinge["min_abs_v"]))}\n  }}')
    return (f'{{\n  "w": {_json_list(doc["w"], "  ")},'
            f'\n  "C": {_json_floats(repr(doc["C"]))},'
            f'\n  "v": {_json_list(doc["v"], "  ")},'
            f'\n  "actuation_check": {_json_list(doc["actuation_check"], "  ")},'
            f'\n  "hinge_proximity": {"null" if hinge is None else hinge}\n}}')


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
    (:func:`lift_block`) and writes every row to ``path``.  Returns the
    lift's ``(speed, min_abs_v, masks)``.

    The trajectory's first row, after its ``#`` comment lines and blank
    lines, is its header row; one whose every field is a number is a
    ValueError, since it would be a sample lost.  The CSV's comment line and
    header row go to a new file (:func:`_replacing`), and a helper process
    (see :func:`_csv_helper`) starts next, for a trajectory whose size is
    that of HELPER_ROWS lines like its first sample's.  Then each block of
    BLOCK_ROWS samples is read and lifted after the sample before it, and
    queued.  The helper is sent the oldest queued block, as one frame,
    whenever it has fewer than HELPER_BACKLOG frames it has not finished, so
    that it formats the blocks and appends their text to the file while this
    process reads on.  After the last block this process formats the queued
    blocks, in quarters, from the newest back, while the helper still takes
    the oldest; once the helper has finished, it appends their text, and the
    file replaces ``path`` (:func:`_write_blocks`).  Without a helper it
    formats and writes every block.

    The first block that fails raises its first error, in the order of
    :func:`lift_block`: a row that does not parse, then a bad time stamp,
    then a sample that cannot be solved, a speed that is not finite, an
    orthant change.  The blocks depend on the file alone, so a lift fails
    alike with a helper and without, and leaves no file: the file at
    ``path`` keeps its bytes.
    """
    lift = partial(lift_block, model, allocator=args.allocator, layer=layer,
                   C=args.C)
    with open(args.trajectory) as fh:
        # then the header row ("" at the end of the file)
        while (line := fh.readline()).startswith("#") or line.isspace():
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
        # the samples there are if every line is as long as the first
        samples = ((os.fstat(fh.fileno()).st_size - start)
                   // max(len(first), 1))
        with _replacing(path, _csv_head(header, args.seed)) as out, \
                _csv_helper(samples, out.fileno()) as helper:
            formats, parts, queue, rows, before = {}, [], deque(), 0, None
            while len(block := _read_rows(args.trajectory, fh, rows)):
                t = block[:, 0]
                v, speed, min_abs_v, masks = lift(
                    t, block[:, 1:], first_row=rows, before=before)
                values = np.column_stack([t, v, speed, min_abs_v])
                _add_row_formats(formats, model, values.shape[1], None, masks)
                queue.append((masks, values))
                if helper is not None:
                    _share_with_helper(helper, formats, queue)
                parts.append((speed, min_abs_v, masks))
                before, rows = (t[-1], v[-1]), rows + len(block)
            if not rows:
                raise ValueError(f"{args.trajectory}: the trajectory file has "
                                 "no samples")
            _write_blocks(out, helper, path, formats, queue)
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
