"""Logarithmic potential, its gradient, the fiber-restricted potential, and
monotone section-intersection solving.

The potential Phi(v) = sum_i b_i sign(v_i) ln|v_i| is constant on the leaves
of the foliation orthogonal to the fibers.  Along a fiber it is strictly
increasing in lambda on every open segment, diverging to -inf at the segment's
entry crossing and +inf at its exit, so bounded segments are solved by
bracketed bisection.  On the positive extremal segment, lambda = lambda_max +
e^s and a_i = lambda_max - lambda*_i >= 0 make C_w a sum of softplus terms,
C_w(s) = K + 1/2 sum_i |b_i| logaddexp(ln a_i, s) with K = 1/2 sum_i |b_i|
ln|b_i|, increasing and convex in s.  Newton from s0 = (C - K) / (1/2 ||b||_1)
descends monotonically onto the root, and v_i = sign(b_i) sqrt|b_i|
exp(1/2 logaddexp(ln a_i, s)) is rebuilt from the logs, with no cap on lambda.
The negative extremal segment is the mirror image (C -> -C, v -> -v).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryStateError,
    CrossingStateError,
    ExtremalSolveError,
    NoBracketError,
    NonGenericSegmentError,
    WrongShapeError,
)
from .fibers import FiberTrace, crossing_parameters, fiber_point
from .model import AllocationModel, Task
from .strata import OrthantSignature, classify_orthant, extremal_signature

#: Bisection terminates at this width relative to the initial bracket.
BISECT_RTOL = 1e-12
#: Newton steps allowed per row of the extremal solve (a handful suffice).
NEWTON_MAX_ITER = 64
EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny
#: An extremal offset a_i is zero below CROSSING_RTOL * m * (|A_pinv| |w|)_i / |b_i|
#: plus the row's largest such bound: 32 times the rounding bound of lambda*.
CROSSING_RTOL = 32 * EPS


@dataclass(frozen=True)
class PotentialValue:
    """Potential evaluation result; infinite exactly when a component halts.

    ``value`` is finite iff ``boundary_indices`` is empty.  Simultaneous
    divergences of opposite sign set ``indeterminate`` and value NaN.
    """

    value: float
    boundary_indices: frozenset[int]
    indeterminate: bool = False

    @property
    def finite(self) -> bool:
        return not self.boundary_indices


@dataclass(frozen=True)
class SectionPoint:
    """A kinetic state on an orthogonal leaf, tagged (layer, C, orthant)."""

    v: np.ndarray
    lam: float
    C: float
    orthant: OrthantSignature
    layer: int


def _signed_log_sum(b: np.ndarray, u: np.ndarray, eps: float,
                    entry_signs: np.ndarray | None = None):
    """Evaluate sum b_i sign(u_i) ln|u_i| with divergence sentinels.

    ``entry_signs`` supplies the sign to use for components that are exactly
    zero (the orthant-entry limit, sign(b_i)).
    """
    absu = np.abs(u)
    boundary = absu <= eps
    if not boundary.any():
        return float(np.sum(b * np.sign(u) * np.log(absu))), frozenset(), False
    signs = np.sign(u)
    if entry_signs is not None:
        signs = np.where(signs == 0, entry_signs, signs)
    # term b_i sign(u_i) ln|u_i| -> -inf when b_i sign(u_i) > 0, +inf when < 0
    coeffs = b[boundary] * signs[boundary]
    to_minus = np.any(coeffs > 0)
    to_plus = np.any(coeffs < 0)
    idx = frozenset(np.nonzero(boundary)[0].tolist())
    if to_minus and to_plus:
        return float("nan"), idx, True
    return (float("-inf") if to_minus else float("inf")), idx, False


def potential(model: AllocationModel, v) -> PotentialValue:
    """Global potential Phi(v) = sum_i b_i sign(v_i) ln|v_i|."""
    v = np.asarray(v, dtype=float)
    value, idx, indet = _signed_log_sum(model.b, v, model.eps_zero,
                                        entry_signs=np.sign(model.b))
    return PotentialValue(value=value, boundary_indices=idx, indeterminate=indet)


def potential_gradient(model: AllocationModel, v) -> np.ndarray:
    """Gradient of the potential, (b_i / |v_i|)_i; regular states only."""
    v = np.asarray(v, dtype=float)
    if np.any(np.abs(v) <= model.eps_zero):
        raise BoundaryStateError("gradient undefined at a boundary state")
    return model.b / np.abs(v)


def potential_along_fiber(model: AllocationModel, w, lam: float) -> PotentialValue:
    """Fiber-restricted potential C_w(lambda) = Phi(gamma(w, lambda)).

    Evaluated directly in transformed coordinates with the 1/2 factor from the
    square-root transform: (1/2) sum b_i sign(u_i) ln|u_i| with u = z + lambda b.
    """
    w = w.w if isinstance(w, Task) else np.atleast_1d(np.asarray(w, dtype=float))
    u = model.A_pinv @ w + lam * model.b
    value, idx, indet = _signed_log_sum(model.b, u, model.eps_zero,
                                        entry_signs=np.sign(model.b))
    return PotentialValue(value=0.5 * value, boundary_indices=idx,
                          indeterminate=indet)


def potential_slope(model: AllocationModel, w, lam: float) -> float:
    """d C_w / d lambda = sum b_i^2 / (2 v_i^2); strictly positive."""
    w = w.w if isinstance(w, Task) else np.atleast_1d(np.asarray(w, dtype=float))
    u = model.A_pinv @ w + lam * model.b
    absu = np.abs(u)
    if np.any(absu <= model.eps_zero):
        raise CrossingStateError(f"lambda = {lam:g} sits on a hyperplane crossing")
    return float(np.sum(model.b ** 2 / (2.0 * absu)))


def potential_near_crossing(model: AllocationModel, trace: FiberTrace,
                            crossing_index: int, side: str,
                            log_delta: float) -> float:
    """C_w evaluated at distance exp(log_delta) inside a crossing.

    The vanishing components are linear in lambda, u_i = b_i (lambda - lam*),
    so their log terms split exactly as ln|b_i| + log_delta; passing the log
    of the offset keeps the evaluation exact far below the floating-point
    representable range of the offset itself, where the divergence of C_w
    toward the crossing would otherwise be unobservable.
    """
    lam_star, idx = trace.distinct_crossings[crossing_index]
    sgn = 1.0 if side == "above" else -1.0
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    u0 = trace.z + lam_star * model.b
    total = 0.0
    for i in range(model.n):
        if i in idx:
            # u_i = b_i * (sgn * delta): sign is sign(b_i)*sgn, log|u_i| splits
            s = math.copysign(1.0, model.b[i]) * sgn
            total += model.b[i] * s * (math.log(abs(model.b[i])) + log_delta)
        else:
            total += model.b[i] * math.copysign(1.0, u0[i]) * math.log(abs(u0[i]))
    return 0.5 * total


def fiber_segments(model: AllocationModel, trace: FiberTrace):
    """Open lambda intervals of a trace, outermost ones unbounded."""
    lams = [lam for lam, _ in trace.distinct_crossings]
    bounds = [(-math.inf, lams[0])]
    bounds += [(lams[k], lams[k + 1]) for k in range(len(lams) - 1)]
    bounds.append((lams[-1], math.inf))
    return bounds


def extremal_section(model: AllocationModel, W, C: float,
                     branch: str = "positive",
                     first_row: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Solve C_w = C on the unbounded extremal segment, one task per row of W.

    Returns ``(V, lam)``: per row the state with sign(v) = +/- sign(b)
    strictly, and its fiber parameter, from the log-offset Newton iteration of
    the module docstring.  Raises ExtremalSolveError for the first row that
    needs over NEWTON_MAX_ITER steps or whose state has a zero, subnormal or
    non-finite component, naming it as row ``first_row`` + its index in W.
    Raises WrongShapeError unless W has m columns.
    """
    if branch not in ("positive", "negative"):
        raise ValueError(f"branch must be 'positive' or 'negative', got {branch!r}")
    if not math.isfinite(C):
        raise ValueError("target potential level must be finite")
    sign = 1.0 if branch == "positive" else -1.0
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if W.ndim != 2 or W.shape[1] != model.m:
        raise WrongShapeError(f"tasks have shape {W.shape}, expected (rows, {model.m})")
    # the negative branch of (w, C) mirrors the positive branch of (-w, -C)
    lam_star = -sign * _rowwise_matvec(W, model.A_pinv) / model.b
    edge = lam_star.max(axis=1, keepdims=True)
    a = edge - lam_star
    # offsets within rounding noise carry no information about w; kept, they
    # inflate lost components and can push the edge one below float64 range
    noise = (CROSSING_RTOL * W.shape[1]
             * _rowwise_matvec(np.abs(W), np.abs(model.A_pinv)) / np.abs(model.b))
    a[a <= noise + noise.max(axis=1, keepdims=True)] = 0.0
    half_b = 0.5 * np.abs(model.b)
    offset = half_b @ np.log(np.abs(model.b)) - sign * C   # K - C
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_a = np.log(a)
        s = np.full(W.shape[0], -offset / half_b.sum())
        active = np.arange(W.shape[0])
        for _ in range(NEWTON_MAX_ITER):
            if active.size == 0:
                break
            s_act = s[active]
            L = np.logaddexp(log_a[active], s_act[:, None])
            F = _rowwise_matvec(L, half_b[None, :])[:, 0] + offset
            step = F / _rowwise_matvec(np.exp(s_act[:, None] - L),
                                       half_b[None, :])[:, 0]
            s[active] = s_act - step
            done = ((F <= 0.0) | ~np.isfinite(F)
                    | (np.abs(step) <= 4.0 * EPS * (1.0 + np.abs(s_act))))
            active = active[~done]
        if active.size:
            raise ExtremalSolveError(first_row + int(active[0]), W[active[0]],
                                     f"no convergence in {NEWTON_MAX_ITER} Newton steps")
        V = sign * model.c * np.exp(0.5 * np.logaddexp(log_a, s[:, None]))
        lam = sign * (edge[:, 0] + np.exp(s))
    bad = np.flatnonzero(~np.all(np.isfinite(V) & (np.abs(V) >= TINY), axis=1))
    if bad.size:
        raise ExtremalSolveError(
            first_row + int(bad[0]), W[bad[0]], "the state has a zero, subnormal or "
            "non-finite component (the leaf point lies outside the float64 range)")
    return V, lam


def _rowwise_matvec(W: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Rows of W @ M.T summed in a fixed order, so that a row's result is
    bit-identical in every batch (a batch of one included)."""
    out = W[:, :1] * M[:, 0]
    for j in range(1, W.shape[1]):
        out += W[:, j:j + 1] * M[:, j]
    return out


def section_intersection(model: AllocationModel, w, segment: int, C: float,
                         trace: FiberTrace | None = None) -> SectionPoint:
    """Solve C_w(lambda) = C on one open fiber segment.

    ``segment`` indexes the sorted open intervals between distinct crossings,
    0 through k (k = number of distinct crossings); for a generic fiber
    segment l lies in a layer-l orthant.  Every segment admits every real C.
    The unbounded end segments are solved by :func:`extremal_section`.

    On a bounded segment the root is isolated by bisection to relative width
    1e-12, then polished with a few Newton steps using the analytic slope,
    rejecting any step that leaves the bracket.
    """
    w = w.w if isinstance(w, Task) else np.atleast_1d(np.asarray(w, dtype=float))
    if not math.isfinite(C):
        raise ValueError("target potential level must be finite")
    if trace is None:
        trace = crossing_parameters(model, w)
    segs = fiber_segments(model, trace)
    if not 0 <= segment < len(segs):
        raise NonGenericSegmentError(
            f"segment {segment} out of range: fiber has {len(segs)} segments "
            f"({trace.skipped_orthants} orthants skipped by merged crossings)")
    if segment in (0, len(segs) - 1):
        branch = "positive" if segment else "negative"
        V, lam = extremal_section(model, w[None, :], C, branch)
        sig = extremal_signature(model, branch)
        return SectionPoint(v=V[0], lam=float(lam[0]), C=C, orthant=sig,
                            layer=sig.layer)
    lo, hi = segs[segment]

    def cw(lam):
        return potential_along_fiber(model, w, lam).value

    # Establish a bracket [a, b] with cw(a) <= C <= cw(b).  When the root sits
    # closer to a crossing than float64 can resolve in lambda, the bracketing
    # helpers raise and the split closed form at that crossing takes over.
    width = hi - lo
    if width <= 4.0 * EPS * (abs(lo) + abs(hi) + 1.0):
        raise NonGenericSegmentError(
            f"segment {segment} has zero width (merged crossings)")
    try:
        a = _approach_inside(cw, lo, hi, C, from_left=True)
    except NoBracketError:
        return _split_edge_solution(model, trace, segment - 1, "above", C)
    try:
        b = _approach_inside(cw, lo, hi, C, from_left=False)
    except NoBracketError:
        return _split_edge_solution(model, trace, segment, "below", C)

    lam = _bisect_polish(model, w, cw, a, b, C)
    # near a crossing the lambda granularity floors the residual; if the
    # polished root is both inaccurate and crossing-adjacent, the split
    # closed form at that crossing recovers full accuracy
    res = cw(lam)
    if not math.isfinite(res) or abs(res - C) > 1e-9 * (1.0 + abs(C)):
        dists = [abs(lam - ls) for ls, _ in trace.distinct_crossings]
        ci = int(np.argmin(dists))
        lam_star = trace.distinct_crossings[ci][0]
        if dists[ci] <= 1e-6 * (1.0 + abs(lam_star)):
            side = "above" if lam >= lam_star else "below"
            try:
                return _split_edge_solution(model, trace, ci, side, C)
            except NoBracketError:
                pass
    p = fiber_point(model, w, lam)
    sig = classify_orthant(model, np.where(p.v > 0, 1, -1))
    return SectionPoint(v=p.v, lam=lam, C=C, orthant=sig, layer=sig.layer)


def _split_edge_solution(model, trace, crossing_index, side, C) -> SectionPoint:
    """Closed-form root when it lies unresolvably close to a crossing.

    On the segment side where C_w diverges, the vanishing components are
    exactly linear, u_i = +/- b_i * delta, so C_w(delta) = F + coef * ln(delta)
    + offset + O(delta) with F frozen at the crossing.  Solving for ln(delta)
    recovers states whose smallest |v_i| lies far below the lambda resolution
    (the O(delta) term is negligible precisely in that regime).
    """
    lam_star, idx = trace.distinct_crossings[crossing_index]
    sgn = 1.0 if side == "above" else -1.0
    coef = offset = 0.0
    for i in idx:
        s = math.copysign(1.0, model.b[i]) * sgn
        coef += 0.5 * model.b[i] * s
        offset += 0.5 * model.b[i] * s * math.log(abs(model.b[i]))

    # first pass freezes the surviving components at the crossing; the second
    # re-evaluates them at the recovered offset, shrinking the O(delta) error
    # in both C and the reconstructed task to O(delta^2)
    delta = 0.0
    for _ in range(2):
        u = trace.z + (lam_star + sgn * delta) * model.b
        frozen = sum(
            0.5 * model.b[i] * math.copysign(1.0, u[i]) * math.log(abs(u[i]))
            for i in range(model.n) if i not in idx)
        log_delta = (C - frozen - offset) / coef
        delta = math.exp(min(log_delta, 700.0))
        if delta > 1e-8 * (1.0 + abs(lam_star)):
            # the root is representable in lambda; bracketing should have found it
            raise NoBracketError(C)
    v = np.empty(model.n)
    for i in range(model.n):
        if i in idx:
            s = math.copysign(1.0, model.b[i]) * sgn
            v[i] = s * math.exp(0.5 * (math.log(abs(model.b[i])) + log_delta))
        else:
            v[i] = math.copysign(math.sqrt(abs(u[i])), u[i])
    lam = lam_star + sgn * delta
    sig = classify_orthant(model, np.where(v > 0, 1, -1))
    return SectionPoint(v=v, lam=lam, C=C, orthant=sig, layer=sig.layer)


def _approach_inside(cw, lo, hi, C, from_left):
    """Shrink toward one endpoint of a bounded segment until C_w straddles C."""
    width = hi - lo
    frac = 0.25
    for _ in range(200):
        lam = (lo + frac * width) if from_left else (hi - frac * width)
        val = cw(lam)
        if math.isfinite(val) and ((val < C) if from_left else (val > C)):
            return lam
        frac *= 0.5
    raise NoBracketError(C)  # divergence guaranteed; loop exhaustion is numeric


def _bisect_polish(model, w, cw, a, b, C):
    """Bisection to relative width BISECT_RTOL, then slope-refined polish."""
    if a > b:
        a, b = b, a
    width0 = b - a
    while b - a > BISECT_RTOL * width0:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        val = cw(mid)
        if not math.isfinite(val):
            break  # mid landed on a crossing within eps_zero; bracket is final
        if val < C:
            a = mid
        else:
            b = mid
    lam = 0.5 * (a + b)
    for _ in range(3):
        try:
            val = cw(lam)
            step = (C - val) / potential_slope(model, w, lam)
        except CrossingStateError:
            break
        cand = lam + step
        if not (a < cand < b):
            break
        lam = cand
    return lam
