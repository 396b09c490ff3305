"""Seeded workloads: the input files each one writes and the CLI requests it makes.

A workload is a fixed list of requests, run as repeated rounds.  Each request
is one ``fiberalloc.cli.main`` argv, the number of ops it asks for, and a
check that counts how many of those ops the output got right.  Request mixes
are stratified (equal shares of n, level and kind in a seeded order), so that
seeds differ in their draws but not in their proportions.  Outputs go to one
directory, which the runner empties after every request.  Why each workload
exists is in README.md.
"""
from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from check import Model, check_states


class MalformedOutput(Exception):
    """A request exited 0 but its output could not be read."""


@dataclass
class Request:
    argv: list[str]
    ops: int
    #: stdout of a call that exited 0 -> ops that passed the check
    check: Callable[[str], int]


@dataclass
class Workload:
    model_files: list[Path]
    warmup: Request
    requests: list[Request]   # one round
    #: the machine-speed probe its times are scaled by (run.PROBES)
    probe: str = "calls"


DEMO_A = [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]
LIFT_SAMPLES = 100_000
LIFT_DECADES = 3.0            # |w| reaches 10**LIFT_DECADES at the ends
FOLIATION_N = (4, 6, 8)
FOLIATION_C = (-1.0, 0.0, 1.0)
FOLIATION_REQUESTS = 360
FOLIATION_GRID = 4
FOLIATION_MAGNITUDES = (0.25, 1.0, 4.0)
INVERT_N = tuple(range(2, 9))
INVERT_MODELS_PER_N = 3
INVERT_REQUESTS = 1120
INVERT_KINDS = ("positive",) * 7 + ("negative",) * 7 + ("transitional",) * 6
INVERT_LOG10_V = (-6.0, 6.0)  # |v_i| = 10**U(lo, hi)


def _num(x) -> str:
    """Shortest text that parses back to the same double."""
    return repr(float(x))


def _vec(x) -> str:
    return ",".join(_num(v) for v in x)


def _write_model(path: Path, A: np.ndarray) -> Model:
    path.write_text(json.dumps({"A": np.asarray(A).tolist()}))
    return Model(A)


def _random_model(rng, n: int) -> np.ndarray:
    """A well-conditioned random m x n matrix whose |b_i| are all >= 0.05."""
    while True:
        A = rng.normal(size=(n - 1, n))
        s = np.linalg.svd(A, compute_uv=False)
        if s[-1] >= 1e-3 * s[0] and np.min(np.abs(Model(A).b)) >= 0.05:
            return A


def _stratified(rng, count: int, *choices) -> list[tuple]:
    """``count`` rows cycling through every combination of the choices, shuffled."""
    combos = list(itertools.product(*choices))
    return [combos[k % len(combos)] for k in rng.permutation(count)]


def _read_csv(path: Path, columns) -> np.ndarray:
    """Numeric columns of a CLI CSV (comment line, header, quoted strings)."""
    try:
        with warnings.catch_warnings():   # no rows is a valid output
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(path, delimiter=",", skiprows=2, quotechar='"',
                              usecols=columns, ndmin=2)
    except (OSError, ValueError) as exc:
        raise MalformedOutput(f"{path.name}: {exc}") from exc


def lift_extremal(seed: int, inputs: Path, out: Path) -> Workload:
    rng = np.random.default_rng(seed)
    model = _write_model(inputs / "demo.json", np.array(DEMO_A))
    turns = rng.uniform(40.0, 60.0)   # many turns: every direction is sampled
    phase = rng.uniform(0.0, 2.0 * np.pi)

    def trajectory(n_samples: int, name: str):
        half = n_samples // 2
        tau = (np.arange(n_samples) - half) / half   # tau = 0 exactly: w = 0
        r = tau * 10.0 ** (LIFT_DECADES * np.abs(tau))
        theta = phase + turns * 2.0 * np.pi * tau
        t = np.linspace(0.0, 10.0, n_samples)
        W = np.c_[r * np.cos(theta), r * np.sin(theta)]
        path = inputs / name
        np.savetxt(path, np.c_[t, W], fmt="%.17g", delimiter=",",
                   header="t,w_1,w_2", comments="")
        return path, t, W

    def request(n_samples: int, name: str) -> Request:
        path, t, W = trajectory(n_samples, name)
        argv = ["lift", "--model", str(inputs / "demo.json"), "--trajectory",
                str(path), "--allocator", "extremal", "--C=0.0",
                "--out", str(out), "--seed", str(seed)]

        def check(stdout: str) -> int:
            data = _read_csv(out / "lift_extremal.csv", range(1 + model.n))
            if data.shape[0] != len(t) or not np.array_equal(data[:, 0], t):
                raise MalformedOutput("lift rows do not match the trajectory")
            return int(np.sum(check_states(model, data[:, 1:], W, 0.0,
                                           branch=+1)))
        return Request(argv, n_samples, check)

    # the lift is large-array numpy work and CSV formatting; its times follow
    # the arithmetic probe, and not the one made of small numpy calls
    return Workload([inputs / "demo.json"],
                    warmup=request(2_000, "warmup.csv"),
                    requests=[request(LIFT_SAMPLES, "trajectory.csv")],
                    probe="arith")


def foliation(seed: int, inputs: Path, out: Path) -> Workload:
    rng = np.random.default_rng(seed)
    mags = np.array(FOLIATION_MAGNITUDES)
    ops = FOLIATION_GRID * len(mags)

    def request(path: Path, model: Model, layer: int, C: float,
                cli_seed: int) -> Request:
        argv = ["foliation", "--model", str(path), "--layer", str(layer),
                "--C=" + _num(C), "--grid", str(FOLIATION_GRID),
                "--magnitudes", _vec(mags), "--out", str(out),
                "--seed", str(cli_seed)]

        def check(stdout: str) -> int:
            files = sorted(out.glob("foliation_*.csv"))
            if len(files) != 1:
                raise MalformedOutput(f"expected one point cloud, got {files}")
            n, m = model.n, model.m
            data = _read_csv(files[0], [*range(n + 1), *range(n + 2, n + 2 + m)])
            V, C_col, W = data[:, :n], data[:, n], data[:, n + 1:]
            ok = check_states(model, V, W, C, layer=layer) & (C_col == C)
            norms = np.linalg.norm(W, axis=1, keepdims=True)
            ok &= np.any(np.abs(norms - mags) <= 1e-12 * mags, axis=1)
            distinct = {tuple(w) for w in W[ok]}
            return min(ops, len(distinct))
        return Request(argv, ops, check)

    # every request has a model of its own: a model that trips the self-check
    # often then weighs no more than any other draw
    def draw(k: int, n: int, C: float) -> Request:
        path = inputs / f"model_{k}.json"
        model = _write_model(path, _random_model(rng, n))
        return request(path, model, int(rng.integers(1, n)), C,
                       int(rng.integers(2**31)))

    mix = _stratified(rng, FOLIATION_REQUESTS, FOLIATION_N, FOLIATION_C)
    requests = [draw(k, *row) for k, row in enumerate(mix)]
    return Workload([Path(r.argv[2]) for r in requests],
                    draw(len(mix), FOLIATION_N[0], 0.0), requests)


def invert_stream(seed: int, inputs: Path, out: Path) -> Workload:
    rng = np.random.default_rng(seed)
    models = {n: [] for n in INVERT_N}
    for n in INVERT_N:
        for k in range(INVERT_MODELS_PER_N):
            path = inputs / f"n{n}_{k}.json"
            models[n].append((path, _write_model(path, _random_model(rng, n))))

    def draw(n: int, kind: str) -> Request:
        path, model = models[n][rng.integers(len(models[n]))]
        sb = np.sign(model.b)
        if kind == "transitional":
            layer = int(rng.integers(1, n))
            entered = np.zeros(n, dtype=bool)
            entered[rng.choice(n, size=layer, replace=False)] = True
            extra, rule = ["--layer", str(layer)], {"layer": layer}
        else:
            entered = np.full(n, kind == "positive")
            extra = [] if kind == "positive" else ["--branch", "negative"]
            rule = {"branch": +1 if kind == "positive" else -1}
        v = np.where(entered, sb, -sb) * 10.0 ** rng.uniform(*INVERT_LOG10_V,
                                                            size=n)
        w = model.actuation(v)
        C = float(model.log_potential(v)[0])
        argv = ["invert", "--model", str(path), "--w=" + _vec(w),
                "--C=" + _num(C), *extra]

        def check(stdout: str) -> int:
            try:
                v_out = np.array(json.loads(stdout)["v"], dtype=float)
            except (ValueError, KeyError, TypeError) as exc:
                raise MalformedOutput(f"invert output: {exc}") from exc
            return int(check_states(model, v_out, w, C, **rule)[0])
        return Request(argv, 1, check)

    mix = _stratified(rng, INVERT_REQUESTS, INVERT_N, INVERT_KINDS)
    return Workload([p for ms in models.values() for p, _ in ms],
                    draw(2, "positive"), [draw(*row) for row in mix])


WORKLOADS = {
    "lift_extremal": lift_extremal,
    "foliation": foliation,
    "invert_stream": invert_stream,
}
