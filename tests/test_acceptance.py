"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Each test prints its verdict through the capture bypass so the lines appear
in normal pytest output, then asserts so a failure still fails the run.
"""
import json
import math
import time
from itertools import combinations, product

import numpy as np
import pytest

from fiberalloc import (
    actuation,
    build_model,
    enumerate_layer,
    extremal_inverse,
    fiber_point,
    fiber_segments,
    jacobian,
    lift_trajectory,
    potential,
    potential_gradient,
    potential_near_crossing,
    reciprocal_hinges,
    section_intersection,
    untransform,
)
from fiberalloc.cli import main as cli_main
from fiberalloc.fibers import crossing_parameters
from conftest import model_with_b, random_model


@pytest.fixture()
def verdict(capsys):
    def _verdict(num, name, ok):
        with capsys.disabled():
            print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
        return ok
    return _verdict


def cw_direct(model, w, lam_grid):
    """Direct dense evaluation of the fiber-restricted potential (oracle)."""
    z = model.A_pinv @ np.atleast_1d(np.asarray(w, dtype=float))
    u = np.multiply.outer(np.asarray(lam_grid, dtype=float), model.b)
    u += z
    sb = np.where(u > 0, model.b, -model.b)
    np.abs(u, out=u)
    np.log(u, out=u)
    u *= sb
    return 0.5 * np.sum(u, axis=1)


def test_criterion_1_map_identity(verdict):
    start = time.perf_counter()
    rng = np.random.default_rng(20260826)
    worst = 0.0
    for _ in range(200):
        m = random_model(rng, int(rng.integers(2, 7)))
        for _ in range(50):
            w = rng.normal(size=m.m, scale=2.0)
            lam = float(rng.normal(scale=5.0))
            p = fiber_point(m, w, lam)
            err = np.linalg.norm(actuation(m, p.v) - w)
            worst = max(worst, err / (1.0 + np.linalg.norm(w)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    assert verdict(1, f"map identity (worst rel err {worst:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_2_orthogonality_witness(verdict):
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    states = 0
    while states < 10_000:
        m = random_model(rng, int(rng.integers(2, 7)))
        batch = 200
        V = rng.normal(size=(batch, m.n), scale=1.5)
        V[np.abs(V) < 1e-3] = 1e-3  # keep states regular
        for v in V:
            grad = potential_gradient(m, v)
            cols = (np.abs(v)[:, None]) * m.A.T  # columns of D(v) A^T
            inner = np.abs(cols.T @ grad)
            bound = np.linalg.norm(cols, axis=0) * np.linalg.norm(grad)
            worst = max(worst, float(np.max(inner / bound)))
        states += batch
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    assert verdict(2, f"orthogonality witness over {states} states "
                      f"(worst {worst:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_3_monotone_unique_root(verdict):
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    ok = True
    detail = ""
    for case in range(1000):
        m = random_model(rng, int(rng.integers(2, 6)))
        w = rng.normal(size=m.m, scale=2.0)
        trace = crossing_parameters(m, w)
        segs = fiber_segments(m, trace)
        k = int(rng.integers(len(segs)))
        lo, hi = segs[k]
        # draw a target level from a point inside the segment
        if math.isinf(lo):
            lam_true = hi - float(rng.uniform(0.05, 5.0))
        elif math.isinf(hi):
            lam_true = lo + float(rng.uniform(0.05, 5.0))
        else:
            lam_true = lo + float(rng.uniform(0.1, 0.9)) * (hi - lo)
        C = float(cw_direct(m, w, [lam_true])[0])
        sp = section_intersection(m, w, k, C)

        # dense-scan oracle: fine window around the root + full-segment sweep
        win = np.linspace(lam_true - 0.04, lam_true + 0.04, 100_000)
        win = win[(win > lo) & (win < hi)]
        vals = cw_direct(m, w, win) - C
        changes = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
        slo = lo if math.isfinite(lo) else lam_true - 50.0
        shi = hi if math.isfinite(hi) else lam_true + 50.0
        pad = 1e-9 * (abs(slo) + abs(shi) + 1.0)
        sweep = np.linspace(slo + pad, shi - pad, 5_000)
        svals = cw_direct(m, w, sweep) - C
        schanges = np.nonzero(np.diff(np.sign(svals)) != 0)[0]
        monotone = bool(np.all(np.diff(svals) > 0))

        if not (len(changes) == 1 and abs(sp.lam - win[changes[0]]) <= 1e-6
                and len(schanges) == 1 and monotone):
            ok = False
            detail = (f" (case {case}: {len(changes)} window roots, "
                      f"{len(schanges)} segment roots, monotone={monotone})")
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    assert verdict(3, f"monotone unique section root, 1000 cases "
                      f"({elapsed:.1f}s){detail}", ok)


def test_criterion_4_combinatorics_exact(verdict):
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    ok = True
    for n in range(2, 11):
        b = rng.normal(size=n)
        b[np.abs(b) < 0.1] = 0.1
        m = model_with_b(b)
        masks_by_layer = {l: [] for l in range(n + 1)}
        for mask in range(1 << n):
            sigma = tuple(1 if (mask >> i) & 1 else -1 for i in range(n))
            l = sum(1 for i in range(n) if sigma[i] * m.b[i] > 0)
            masks_by_layer[l].append(sigma)
        for l in range(n + 1):
            if len(enumerate_layer(m, l)) != math.comb(n, l):
                ok = False
            if len(masks_by_layer[l]) != math.comb(n, l):
                ok = False
            if 1 <= l <= n - 1:
                expected = math.comb(n, l) * l * (n - l) // 2
                alt = math.comb(n, 2) * math.comb(n - 2, l - 1)
                brute = sum(
                    1 for sa, sb in combinations(masks_by_layer[l], 2)
                    if sum(x != y for x, y in zip(sa, sb)) == 2)
                if not (len(reciprocal_hinges(m, l)) == expected == alt == brute):
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    assert verdict(4, f"layer/hinge combinatorics exact for n <= 10 "
                      f"({elapsed:.1f}s)", ok)


def test_criterion_5_asymptotic_laws(verdict):
    rng = np.random.default_rng(5)
    ok = True
    detail = ""
    for case in range(20):
        m = random_model(rng, int(rng.integers(2, 7)))
        w = rng.normal(size=m.m, scale=2.0)
        lams = np.logspace(3, 6, 40)
        dist = np.array([
            np.linalg.norm(fiber_point(m, w, lam).v
                           - fiber_point(m, np.zeros(m.m), lam).v)
            for lam in lams])
        slope = np.polyfit(np.log(lams), np.log(dist), 1)[0]
        if abs(slope + 0.5) > 0.05:
            ok = False
            detail = f" (case {case}: distance slope {slope:.3f})"
            break
        last = max(lam for lam, _ in crossing_parameters(m, w).crossings)
        angles = []
        for lam in np.geomspace(last + 1.0, 1e3 * (last + 1.0), 30):
            p = fiber_point(m, w, lam)
            t = p.tangent / np.linalg.norm(p.tangent)
            c = m.c / np.linalg.norm(m.c)
            angles.append(math.acos(min(1.0, abs(float(t @ c)))))
        if not np.all(np.diff(angles) <= 1e-12):
            ok = False
            detail = f" (case {case}: tangent angle not monotone)"
            break
    assert verdict(5, f"asymptotic -1/2 law + tangent alignment{detail}", ok)


def test_criterion_6_boundary_limits(verdict):
    rng = np.random.default_rng(6)
    ok = True
    detail = ""
    cases = [(random_model(rng, int(rng.integers(2, 7))),) for _ in range(10)]
    for (m,) in cases:
        w = rng.normal(size=m.m, scale=2.0)
        trace = crossing_parameters(m, w)
        for k in range(len(trace.distinct_crossings)):
            # side above crossing k = entry of the segment to its right,
            # side below = exit of the segment to its left
            entry = potential_near_crossing(m, trace, k, "above", -1e6)
            exit_ = potential_near_crossing(m, trace, k, "below", -1e6)
            if not (entry < -1e3 and exit_ > 1e3):
                ok = False
                detail = f" (crossing {k}: entry {entry:.3g}, exit {exit_:.3g})"
    assert verdict(6, f"potential passes below -1e3 / above +1e3 at every "
                      f"crossing{detail}", ok)


def test_criterion_7_allocation_benchmark(verdict):
    start = time.perf_counter()
    ok = True
    details = []

    def run(model, t, W):
        ext, nai = {}, {}
        for samples in (2_500, 10_000, 40_000):
            idx = np.linspace(0, len(t) - 1, samples).astype(int)
            ts, Ws = t[idx], W[idx]
            ext[samples] = lift_trajectory(model, ts, Ws, "extremal")
            nai[samples] = lift_trajectory(model, ts, Ws, "naive")
        return ext, nai

    # demo 1: m = 1, w(t) = sin t, crossings at pi and 2 pi
    m1 = build_model([[1.0, 1.0]])
    t = np.linspace(0.1, 2 * math.pi + 0.1, 40_000)
    W = np.sin(t)[:, None]
    # demo 2: m = 2, random trajectory through the origin at t = 0
    rng = np.random.default_rng(7)
    m2 = build_model([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    a, b2 = rng.normal(size=(2, 2))
    t2 = np.linspace(-1.0, 1.0, 40_000) + 1e-5
    W2 = np.outer(t2, a) + np.outer(t2 ** 2, b2)

    for name, (model, tt, WW) in (("sin", (m1, t, W)), ("origin", (m2, t2, W2))):
        ext, nai = run(model, tt, WW)
        const_sig = all(e.signature_changes == 0 for e in ext.values())
        stable = (abs(ext[40_000].max_speed - ext[10_000].max_speed)
                  <= 0.1 * ext[10_000].max_speed)
        growth1 = nai[10_000].max_speed / nai[2_500].max_speed
        growth2 = nai[40_000].max_speed / nai[10_000].max_speed
        ratio = ext[10_000].max_speed / nai[10_000].max_speed
        case_ok = (const_sig and stable and growth1 >= 1.9 and growth2 >= 1.9
                   and ratio <= 0.1)
        ok = ok and case_ok
        details.append(f"{name}: growth {growth1:.2f}/{growth2:.2f}, "
                       f"ratio {ratio:.3f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 20.0
    assert verdict(7, f"allocation benchmark ({'; '.join(details)}, "
                      f"{elapsed:.1f}s)", ok)


def test_criterion_8_hinge_alignment(verdict):
    # balanced n = 3 model: |b_i| all equal, reciprocal hinge on the line
    # v_0 = v_1 = 0 between the layer-1 petals (+,+,-) and (-,-,-).  Both
    # petals of the C = 0 leaf anchor tangentially to the hinge at the point
    # (0, 0, -1); approach it along the leaf at matched hinge distances d.
    m = build_model([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    C = 0.0

    def petal_points(d):
        v2 = -(1.0 + d)
        # level constraint with C = 0: |v_0| = |v_1| * |v_2| in the (+,+,-)
        # petal and |v_1| = |v_0| * |v_2| in the (-,-,-) petal
        va = np.array([d * abs(v2), d, v2])
        vb = np.array([-d, -d * abs(v2), v2])
        assert abs(potential(m, va).value - C) < 1e-12
        assert abs(potential(m, vb).value - C) < 1e-12
        return va, vb

    angles = []
    for d in (1e-2, 1e-3, 1e-4):
        va, vb = petal_points(d)
        na = potential_gradient(m, va)
        nb = potential_gradient(m, vb)
        na /= np.linalg.norm(na)
        nb /= np.linalg.norm(nb)
        angles.append(math.acos(min(1.0, abs(float(na @ nb)))))
    ok = angles[0] > angles[1] > angles[2] and angles[2] < 1e-2
    assert verdict(8, "hinge C1 alignment (angles "
                      + ", ".join(f"{a:.2e}" for a in angles) + ")", ok)


def test_criterion_9_figure_data(verdict, tmp_path):
    configs = {
        "n2_symmetric": [[1.0, 1.0]],
        "n2_asymmetric": [[1.0, 2.0]],
        "n3_standard": [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
        "n3_skew": [[1.0, 0.6, 0.2], [0.1, 1.0, 0.5]],
    }
    ok = True
    detail = ""
    for name, A in configs.items():
        mf = tmp_path / f"{name}.json"
        mf.write_text(json.dumps({"A": A}))
        out = tmp_path / name
        m_dim = len(A)
        n_dim = len(A[0])
        w_args = [f"--w={wv}" for wv in
                  (["2.0", "-1.0"] if m_dim == 1 else ["2.0,1.0", "-1.0,0.5"])]
        rc1 = cli_main(["fibers", "--model", str(mf), "--out", str(out),
                        "--seed", "9", *w_args])
        rc2 = cli_main(["foliation", "--model", str(mf), "--out", str(out),
                        "--seed", "9", "--layer", str(n_dim),
                        "--C", "0.0", "--C", "1.0", "--grid", "16"])
        files = list(out.glob("*.csv"))
        nonempty = all(len(f.read_text().splitlines()) > 2 for f in files)
        if not (rc1 == 0 and rc2 == 0 and len(files) >= 5 and nonempty):
            ok = False
            detail = f" ({name}: rc {rc1}/{rc2}, {len(files)} files)"
    assert verdict(9, f"figure-data regeneration with embedded "
                      f"self-checks{detail}", ok)
