"""End-to-end benchmark of the fiberalloc CLI, with an optional layer trace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload invert_stream --seed 1 --seconds 25 --trace 0

The workload's inputs are generated from --seed and written as the files the
CLI reads.  Requests go through ``fiberalloc.cli.main(argv)`` in this process,
one at a time, in rounds over a fixed request list, and every output is
checked by ``check.py``.  With --trace 0 the end-to-end metrics are measured;
with --trace 1 rounds with and without the layer wrappers of ``tracer.py``
alternate and the per-layer metrics are reported.  The last line of stdout is
the JSON result; the lines before it describe the environment and the run.
README.md defines every metric.
"""
import os

# BLAS threads are pinned before numpy loads; fresh interpreters inherit this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: at least this many fresh interpreters are timed for setup_s (the median)
SETUP_REPS = 7
SETUP_CODE = ("import sys, fiberalloc.cli\n"
              "from fiberalloc.model import load_model\n"
              "for p in sys.argv[1:]: load_model(p)\n")
PROBE_X = np.linspace(0.5, 2.0, 8)


def probe_calls() -> float:
    """Python calls into numpy on tiny arrays, plus formatting: the CLI's mix."""
    t0 = time.perf_counter()
    seen = {}
    for k in range(150):
        seen[f"{k:.3g}"] = float(np.sum(np.log(PROBE_X) * k))
    return time.perf_counter() - t0


def probe_arith() -> float:
    """A tight pure-Python arithmetic loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - t0


#: probe -> its median seconds on the machine the bounds were set on (2 vCPUs
#: of an Intel Xeon at 2.1 GHz); reported times are scaled to that speed
PROBES = {"calls": (probe_calls, 1.2e-3), "arith": (probe_arith, 1.4e-3)}
#: probe time taken between requests, as a share of the time inside them
PROBE_SHARE = 0.1


class Tally:
    """Op accounting for one round: attempted, failed, and why they failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()
        self.malformed = []

    def add(self, req, rc, stdout, error) -> int:
        """Count one request's ops and return how many of them passed."""
        passed = 0
        if error is not None:
            reason = error
        elif rc != 0:
            reason = f"exit {rc}"
        else:
            try:
                passed = req.check(stdout)
            except workloads.MalformedOutput as exc:
                self.malformed.append(str(exc))
                reason = "malformed output"
            else:
                reason = "check"
        self.attempted += req.ops
        self.failed += req.ops - passed
        if passed < req.ops:
            self.reasons[reason] += req.ops - passed
        return passed


class MachineSpeed:
    """How fast the machine runs right now, from a probe run between requests.

    On a shared machine the same work can take twice as long for tens of
    seconds at a time, and the probe slows with it.  Times divided by the
    run's median probe time, times the probe's reference time, vary far less
    between runs.  Each workload names the probe whose slowdowns its own
    time follows (see README.md).
    """

    def __init__(self, probe: str):
        self.probe, self.ref_s = PROBES[probe]
        self.samples = []
        self._owed = self.ref_s   # the first call probes at once

    def sample(self, busy_s: float) -> None:
        """Probe so that probing keeps up with PROBE_SHARE of the busy time."""
        self._owed += PROBE_SHARE * busy_s
        while self._owed >= self.ref_s:
            self._owed -= self.ref_s
            self.samples.append(self.probe())

    def scale(self) -> float:
        """Factor that turns a measured time into a time at reference speed."""
        return self.ref_s / statistics.median(self.samples)


class Session:
    """What every request of a run shares: the workload, its outputs, tallies.

    ``tally`` counts the first round only.  Later rounds repeat the same
    requests, so they are checked against it: a request whose passed ops
    differ from its first result counts in ``unsteady``, and makes the run
    incorrect.  The ops of a run thus depend on the seed alone, and not on
    how many rounds fit in the time.
    """

    def __init__(self, wl, out_dir: Path):
        self.wl = wl
        self.out_dir = out_dir
        self.tally = Tally()
        self.first = None   # passed ops per request in the first round
        self.unsteady = 0
        self.speed = MachineSpeed(wl.probe)

    def request(self, main, req, tally: Tally) -> tuple[float, int]:
        """Run one request, check it; (seconds inside ``main``, passed ops)."""
        rc, stdout, error, dt = invoke(main, req.argv)
        passed = tally.add(req, rc, stdout, error)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return dt, passed

    def round(self, main) -> list[float]:
        tally = self.tally if self.first is None else Tally()
        times, passed = [], []
        for req in self.wl.requests:
            dt, ok = self.request(main, req, tally)
            times.append(dt)
            passed.append(ok)
            self.speed.sample(dt)
        if self.first is None:
            self.first = passed
        else:
            self.unsteady += sum(a != b for a, b in zip(passed, self.first))
            self.tally.malformed += tally.malformed
        return times


def invoke(main, argv):
    """One request: (exit code, stdout, escaped exception or None, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    error, rc = None, None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # a crash of main fails every op it carried
            error = type(exc).__name__
            traceback.print_exc(file=err)
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), error, dt


def setup_runner(model_files):
    """A callable timing one fresh interpreter that imports the CLI and models."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-c", SETUP_CODE, *map(str, model_files)]

    def once() -> float:
        t0 = time.perf_counter()
        # wait() without a timeout blocks in waitpid; with one it polls
        with subprocess.Popen(cmd, env=env, cwd=ROOT,
                              stdin=subprocess.DEVNULL) as proc:
            if proc.wait() != 0:
                raise RuntimeError(f"set-up interpreter exited {proc.returncode}")
        return time.perf_counter() - t0
    return once


def end_to_end(s: Session, main, seconds: float):
    """Whole rounds over the request list until ``seconds`` inside main().

    Each request's time is its median over the rounds.  One set-up
    interpreter is timed before each round, so that setup_s samples the same
    stretch of machine time as the requests.  Peak memory is read after the
    first round, so that it does not depend on how many rounds fit.
    """
    setup = setup_runner(s.wl.model_files)
    setup()   # may compile bytecode
    setup_times, rounds = [], []
    busy = 0.0
    while busy < seconds or len(setup_times) < SETUP_REPS:
        setup_times.append(setup())
        s.speed.sample(setup_times[-1])
        if busy < seconds:
            rounds.append(s.round(main))
            busy += sum(rounds[-1])
            if len(rounds) == 1:
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = s.speed.scale()
    per_request = np.median(rounds, axis=0) * scale
    t = s.tally
    return {
        "setup_s": statistics.median(setup_times) * scale,
        "ops_per_s": (t.attempted - t.failed) / float(np.sum(per_request)),
        "ok_ratio": (t.attempted - t.failed) / t.attempted,
        "latency_p50_ms": float(np.percentile(1e3 * per_request, 50)),
        "latency_p99_ms": float(np.percentile(1e3 * per_request, 99)),
        "peak_rss_mb": peak_kib / 1024.0,
    }, {"requests": len(s.wl.requests), "rounds": len(rounds),
        "setup_samples": len(setup_times), "speed_scale": scale,
        "unscaled_latency_p50_ms": float(np.percentile(
            1e3 * per_request / scale, 50))}


def traced(s: Session, main, seconds: float):
    """Pairs of rounds, untraced and traced, until ``seconds`` have passed.

    Calls and raised repeat exactly, so they come from the first traced round;
    times are medians over the rounds, scaled like the end-to-end ones.
    """
    tr = tracer.Tracer()
    root = tr.wrap(tracer.ROOT, main)
    overheads, rounds = [], []
    t_start = time.perf_counter()
    for k in itertools.count():
        wall = {}
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            lo = tr.mark()
            if on:
                tr.install()
            try:
                wall[on] = sum(s.round(root if on else main))
            finally:
                tr.uninstall()
            if on:
                rounds.append(tr.summarize(lo, tr.mark()))
        overheads.append(wall[True] / wall[False])
        if time.perf_counter() - t_start >= seconds:
            break

    first = rounds[0]
    if any({n: v[0::2] for n, v in r.items()} !=
           {n: v[0::2] for n, v in first.items()} for r in rounds):
        print("warning: call counts differ between traced rounds", file=sys.stderr)
    if tr.missing:
        print(f"warning: not found, reported as 0: {tr.missing}", file=sys.stderr)
    scale = s.speed.scale()

    def self_s(names):
        return scale * statistics.median(sum(r[n][1] for n in names)
                                         for r in rounds)

    metrics = {}
    for name in tracer.NAMES:
        calls, _, raised = first[name]
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s([name])
        metrics[f"{name}.raised"] = raised
    metrics["cli.self_s"] = self_s([n for n in tr.names if n.startswith("cli.")])
    solves = first["potential.section_intersection"][0]
    metrics["potential.cw_evals_per_solve"] = (
        first["potential.potential_along_fiber"][0] / solves if solves else 0.0)
    metrics["strata.classify_per_solve"] = (
        first["strata.classify_orthant"][0] / solves if solves else 0.0)
    metrics["trace_overhead_ratio"] = statistics.median(overheads)
    return metrics, {"requests": len(s.wl.requests), "rounds": 2 * len(rounds),
                     "spans": tr.mark(), "speed_scale": scale}


def git_commit() -> str:
    """The checkout's commit read from .git, or 'unknown' outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared_units(trace: bool) -> dict:
    """name -> unit from BENCHMARK.json for the metrics this mode reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fiberalloc" / "cli.py").is_file():
        print(f"error: no fiberalloc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from fiberalloc import cli

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        inputs = work / "inputs"
        inputs.mkdir()
        wl = workloads.WORKLOADS[args.workload](args.seed, inputs, work / "out")
        session = Session(wl, work / "out")
        session.request(cli.main, wl.warmup, Tally())   # not counted
        run = traced if args.trace else end_to_end
        metrics, shape = run(session, cli.main, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass   # another run is using it

    units = declared_units(bool(args.trace))
    if set(units) != set(metrics):
        print("error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 2

    tally = session.tally
    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__,
           "commit": git_commit(), "blas_threads": os.environ["OMP_NUM_THREADS"]}
    print("env " + json.dumps(env))
    print("run " + json.dumps({
        **shape, "fail_ratio": tally.failed / max(tally.attempted, 1),
        "failures": dict(tally.reasons), "unsteady": session.unsteady}))
    for name, value in metrics.items():
        print(f"  {name:<45} {value:>14.6g} {units[name]}")
    for note in tally.malformed[:5]:
        print(f"malformed: {note}", file=sys.stderr)
    if session.unsteady:
        print(f"error: {session.unsteady} repeated requests passed a different "
              "number of ops than the first time", file=sys.stderr)
    print(json.dumps({
        "correct": (tally.attempted > 0 and not tally.malformed
                    and not session.unsteady),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
