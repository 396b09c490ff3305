"""Record alternating benchmark pairs of two commits in BENCH_<workload>.json.

Run from anywhere inside the repository:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload invert_stream \\
        --seed 5 --pairs 10

Each run is ``perfbench/run.py --trace 0`` in a fresh ``git archive`` export of
its commit, which starts without a bytecode cache, as a benchmark of a new
checkout does.  Pair k runs the parent first when k is even and the change
first when it is odd, because the first run of a pair tends to read slower.
Each run's ``env`` line and final JSON line are appended to
``BENCH_<workload>.json`` at the root of the repository as soon as the run
ends.  When the set is complete, its summary follows: for every end-to-end
metric of BENCHMARK.json, each side's median and quartiles (the exclusive
method of ``statistics.quantiles``), their IQR, and the pairs the change won,
ties counting for neither side.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(commit: str, into: Path) -> None:
    """The files of ``commit`` written under ``into``, as ``git archive``
    makes them."""
    into.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise RuntimeError(f"git archive {commit} exited {archive.returncode}")


def run_once(commit: str, args, work: Path) -> dict:
    """One benchmark run in a fresh export of ``commit``: its env and final
    JSON lines."""
    tree = work / "tree"
    shutil.rmtree(tree, ignore_errors=True)
    export(commit, tree)
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    shutil.rmtree(tree)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"perfbench/run.py at {commit} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    env_line = next(line for line in lines if line.startswith("env "))
    return {"env": json.loads(env_line[4:]), "result": json.loads(lines[-1])}


def summary(runs: list[dict], metrics: list[dict]) -> dict:
    """Each end-to-end metric's median, quartiles and IQR per side, and the
    pairs the change won on it."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["result"]["metrics"][name]["value"]
                         for r in runs if r["side"] == side] for side in SIDES}
        sides = {}
        for side, vals in values.items():
            q1, median, q3 = (statistics.quantiles(vals, n=4)
                              if len(vals) > 1 else vals * 3)
            sides[side] = {"median": median, "q1": q1, "q3": q3,
                           "iqr": q3 - q1}
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(values["parent"], values["change"]))
        out[name] = {"better": metric["better"], **sides, "change_wins": wins,
                     "pairs": len(values["change"])}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="the commit measured against")
    p.add_argument("change", help="the commit measured")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float,
                   help="run length (default: BENCHMARK.json's run_seconds)")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    commits = dict(zip(SIDES, (git("rev-parse", f"{c}^{{commit}}")
                               for c in (args.parent, args.change))))
    path = ROOT / f"BENCH_{args.workload}.json"
    doc = (json.loads(path.read_text()) if path.exists()
           else {"workload": args.workload, "sets": []})
    entry = {**commits, "seed": args.seed, "seconds": args.seconds,
             "pairs": args.pairs, "runs": []}
    doc["sets"].append(entry)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for first, side in enumerate(order):
                run = run_once(commits[side], args, Path(work))
                entry["runs"].append({"pair": pair, "side": side,
                                      "first": first == 0, **run})
                path.write_text(json.dumps(doc, indent=1) + "\n")
                value = run["result"]["metrics"]["ops_per_s"]["value"]
                print(f"pair {pair} {side}: ops_per_s {value:.6g}",
                      flush=True)
    entry["summary"] = summary(entry["runs"], spec["end_to_end"])
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for name, s in entry["summary"].items():
        print(f"{name}: parent {s['parent']['median']:.6g} "
              f"(IQR {s['parent']['iqr']:.3g}), change "
              f"{s['change']['median']:.6g}, change won "
              f"{s['change_wins']}/{s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
