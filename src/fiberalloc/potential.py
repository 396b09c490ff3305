"""Logarithmic potential, its gradient, the fiber-restricted potential, and
monotone section-intersection solving.

The potential Phi(v) = sum_i b_i sign(v_i) ln|v_i| is constant on the leaves
of the foliation orthogonal to the fibers.  Along a fiber, u = z + lambda b
with u_i = b_i (lambda - lambda*_i), it is strictly increasing on every open
segment between crossings, from -inf to +inf, so each segment meets each leaf
once.  Every segment is solved by Newton in a log-offset coordinate s:

* extremal (positive; the negative one is its mirror, C -> -C, v -> -v):
  lambda = lambda_max + e^s and a_i = lambda_max - lambda*_i >= 0 give C_w(s)
  = K + 1/2 sum_i |b_i| logaddexp(ln a_i, s), K = 1/2 sum_i |b_i| ln|b_i|,
  convex in s; Newton from s0 = (C - K) / (1/2 ||b||_1) descends onto the root.
* bounded, between crossings lo < hi of a transitional layer: D = hi - lo,
  lambda = lo + D sigma(s), and ln|u_i / b_i| = logaddexp(ln a_i, ln D + ln
  sigma(s)) for an entered component, a_i = lo - lambda*_i, or
  logaddexp(ln c_i, ln D + ln sigma(-s)) for an exited one, c_i = lambda*_i -
  hi.  C_w(s) is affine at both ends, and its slope lies between mu, the
  smaller of the two ends' sums of 1/2 |b_i| over the components vanishing
  there, and 1/2 ||b||_1; so each evaluation brackets the root, and Newton
  from s = 0 bisects when a step leaves the bracket.

v_i = sign(u_i) sqrt|b_i| exp(1/2 ln|u_i / b_i|) is rebuilt from the logs, so
there is no cap on lambda and no special case for roots closer to a crossing
than lambda resolves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryStateError,
    CrossingStateError,
    ExtremalSolveError,
    NonGenericSegmentError,
    OriginExcludedError,
    SectionSolveError,
    WrongShapeError,
    row_label,
)
from .fibers import FiberTrace, crossing_parameters
from .model import AllocationModel
from .strata import OrthantSignature, classify_orthant

#: Newton steps allowed per row of a section solve (a handful suffice).
NEWTON_MAX_ITER = 64
EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny
#: The noise bound of a crossing lambda*_i is CROSSING_RTOL * m * (|A_pinv|
#: |w|)_i / |b_i|, 32 times its rounding bound.  Offsets to a segment's end
#: within their bound plus the end's (the row's largest, on an extremal
#: segment) are 0; a transitional layer whose bounding crossings lie within
#: the sum of theirs is refused.
CROSSING_RTOL = 32 * EPS
#: Per-row status of a section solve (see layer_section).
SOLVED, REFUSED, NO_CONVERGENCE, OUT_OF_RANGE = range(4)


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
    w = np.atleast_1d(np.asarray(w, dtype=float))
    u = model.A_pinv @ w + lam * model.b
    value, idx, indet = _signed_log_sum(model.b, u, model.eps_zero,
                                        entry_signs=np.sign(model.b))
    return PotentialValue(value=0.5 * value, boundary_indices=idx,
                          indeterminate=indet)


def potential_slope(model: AllocationModel, w, lam: float) -> float:
    """d C_w / d lambda = sum b_i^2 / (2 v_i^2); strictly positive."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
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
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    lam_star, idx = trace.distinct_crossings[crossing_index]
    u = trace.z + lam_star * model.b
    vanish = np.zeros(model.n, dtype=bool)
    vanish[list(idx)] = True
    # u_i = b_i * (+/- delta) for the vanishing components: ln|u_i| splits
    sign = np.where(vanish, np.sign(model.b) * (1.0 if side == "above" else -1.0),
                    np.sign(u))
    with np.errstate(divide="ignore"):
        log_u = np.where(vanish, np.log(np.abs(model.b)) + log_delta, np.log(np.abs(u)))
    return 0.5 * float(np.sum(model.b * sign * log_u))


def fiber_segments(model: AllocationModel, trace: FiberTrace):
    """Open lambda intervals of a trace, outermost ones unbounded."""
    lams = [lam for lam, _ in trace.distinct_crossings]
    bounds = [(-math.inf, lams[0])]
    bounds += [(lams[k], lams[k + 1]) for k in range(len(lams) - 1)]
    bounds.append((lams[-1], math.inf))
    return bounds


def layer_section(model: AllocationModel, W, layer: int,
                  C: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve C_w = C on the layer-``layer`` segment of each task row's fiber.

    Returns ``(V, lam, status)``: per row of W the state on the leaf C in a
    layer-``layer`` orthant, its fiber parameter and its status.  Layers 0 and
    n are the extremal segments of :func:`extremal_section`; a transitional
    one lies between the row's ``layer``-th and ``layer + 1``-th crossings.
    A row is REFUSED when those lie within their noise bound (CROSSING_RTOL)
    of each other, the zero task included; NO_CONVERGENCE after
    NEWTON_MAX_ITER steps; OUT_OF_RANGE when the task is not finite or the
    state has a zero, subnormal or non-finite component.  Raises ValueError
    for a non-finite C or a layer outside [0, n], WrongShapeError unless W
    has m columns.
    """
    if not math.isfinite(C):
        raise ValueError("target potential level must be finite")
    if not 0 <= layer <= model.n:
        raise ValueError(f"layer must lie in [0, {model.n}]")
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if W.ndim != 2 or W.shape[1] != model.m:
        raise WrongShapeError(f"tasks have shape {W.shape}, expected (rows, {model.m})")
    if layer in (0, model.n):
        return extremal_section(model, W, C, 1.0 if layer else -1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _bounded_section(model, W, layer, C)


def extremal_section(model: AllocationModel, W: np.ndarray, C: float,
                     sign: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve C_w = C on the unbounded extremal segment, one task per row of W.

    ``sign`` is +1 for the positive segment (layer n), -1 for the negative one
    (layer 0); W holds rows of m tasks, as :func:`layer_section` checks.
    Returns ``(V, lam, status)``: per row the state with sign(v) = sign *
    sign(b) strictly, its fiber parameter and its status, from the log-offset
    Newton iteration of the module docstring.
    """
    # the negative branch of (w, C) mirrors the positive branch of (-w, -C)
    lam_star = -sign * _rowwise_matvec(W, model.A_pinv) / model.b
    edge = lam_star.max(axis=1, keepdims=True)
    a = edge - lam_star
    # offsets within rounding noise carry no information about w; kept, they
    # inflate lost components and can push the edge one below float64 range
    noise = _crossing_noise(model, W)
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
        V = sign * model.c * np.exp(0.5 * np.logaddexp(log_a, s[:, None]))
        lam = sign * (edge[:, 0] + np.exp(s))
    status = np.where(np.all(np.isfinite(V) & (np.abs(V) >= TINY), axis=1),
                      SOLVED, OUT_OF_RANGE)
    status[active] = NO_CONVERGENCE
    return V, lam, status


def _bounded_section(model: AllocationModel, W: np.ndarray, layer: int,
                     C: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bounded-segment solve of the module docstring, for layer_section."""
    rows = np.arange(W.shape[0])
    lam_star = -_rowwise_matvec(W, model.A_pinv) / model.b
    noise = _crossing_noise(model, W)
    order = np.argsort(lam_star, axis=1)
    i_lo, i_hi = order[:, layer - 1], order[:, layer]
    lo, hi = lam_star[rows, i_lo], lam_star[rows, i_hi]
    noise_lo, noise_hi = noise[rows, i_lo], noise[rows, i_hi]
    entered = np.zeros(lam_star.shape, dtype=bool)
    np.put_along_axis(entered, order[:, :layer], True, axis=1)
    sg = np.where(entered, 1.0, -1.0)
    # a_i = lo - lambda*_i (entered), c_i = lambda*_i - hi (exited)
    off = sg * (np.where(entered, lo[:, None], hi[:, None]) - lam_star)
    off[off <= noise + np.where(entered, noise_lo[:, None], noise_hi[:, None])] = 0.0
    D = hi - lo
    status = np.where(D > noise_lo + noise_hi, SOLVED, REFUSED)
    status[~np.all(np.isfinite(W), axis=1)] = OUT_OF_RANGE

    half_b = 0.5 * np.abs(model.b)
    offset = _rowwise_matvec(sg, (half_b * np.log(np.abs(model.b)))[None, :])[:, 0] - C
    # C_w' lies in [mu, M]: the vanishing components at lo and hi give slope
    # H_lo sigma(-s) + H_hi sigma(s) >= min(H_lo, H_hi), no term more than |b_i|/2
    zero = off == 0.0
    mu = np.minimum(_rowwise_matvec(zero & entered, half_b[None, :])[:, 0],
                    _rowwise_matvec(zero & ~entered, half_b[None, :])[:, 0])
    M = half_b.sum()
    log_off, log_D = np.log(off), np.log(D)
    s = np.zeros(W.shape[0])
    s_lo, s_hi = np.full(W.shape[0], -np.inf), np.full(W.shape[0], np.inf)
    active = np.flatnonzero(status == SOLVED)
    for _ in range(NEWTON_MAX_ITER):
        if active.size == 0:
            break
        s_act = s[active]
        x = sg[active] * s_act[:, None]
        log_sig = -np.logaddexp(0.0, -x)          # ln sigma(sg_i s)
        L = np.logaddexp(log_off[active], log_D[active, None] + log_sig)
        F = _rowwise_matvec(sg[active] * L, half_b[None, :])[:, 0] + offset[active]
        dF = _rowwise_matvec(np.exp(log_D[active, None] + 2.0 * log_sig - x - L),
                             half_b[None, :])[:, 0]
        # the root lies between s - F/mu and s - F/M; Newton inside, else bisect
        far, near = s_act - F / mu[active], s_act - F / M
        lo_b = s_lo[active] = np.maximum(s_lo[active], np.minimum(far, near))
        hi_b = s_hi[active] = np.minimum(s_hi[active], np.maximum(far, near))
        new = s_act - F / dF
        new = np.where((new >= lo_b) & (new <= hi_b), new, 0.5 * (lo_b + hi_b))
        s[active] = new
        # stop on a step within rounding of s, or on an F within rounding of
        # its terms, where a Newton step would only chase the noise of F
        F_tol = 4.0 * EPS * (_rowwise_matvec(np.abs(L), half_b[None, :])[:, 0]
                             + np.abs(offset[active]))
        done = ((np.abs(F) <= F_tol) | ~np.isfinite(F)
                | (np.abs(new - s_act) <= 4.0 * EPS * (1.0 + np.abs(s_act))))
        active = active[~done]
    L = np.logaddexp(log_off, log_D[:, None] - np.logaddexp(0.0, -sg * s[:, None]))
    V = sg * model.c * np.exp(0.5 * L)
    lam = lo + D * np.exp(-np.logaddexp(0.0, -s))
    status[~np.all(np.isfinite(V) & (np.abs(V) >= TINY), axis=1)
           & (status == SOLVED)] = OUT_OF_RANGE
    status[active] = NO_CONVERGENCE
    return V, lam, status


def _crossing_noise(model: AllocationModel, W: np.ndarray) -> np.ndarray:
    """Per row, CROSSING_RTOL * m * (|A_pinv| |w|)_i / |b_i|: the rounding
    bound of the crossings lambda*_i, times 32."""
    return (CROSSING_RTOL * W.shape[1]
            * _rowwise_matvec(np.abs(W), np.abs(model.A_pinv)) / np.abs(model.b))


def _rowwise_matvec(W: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Rows of W @ M.T summed in a fixed order, so that a row's result is
    bit-identical in every batch (a batch of one included)."""
    out = W[:, :1] * M[:, 0]
    for j in range(1, W.shape[1]):
        out += W[:, j:j + 1] * M[:, j]
    return out


def raise_for_status(model: AllocationModel, W: np.ndarray, layer: int,
                     status: np.ndarray, first_row: int = 0, t=None) -> None:
    """Raise the typed error of the first row of W whose status is not SOLVED.

    It names the row ``first_row`` + its index in W, a lifted sample at time
    ``t[row]`` when ``t`` is given: OriginExcludedError for a REFUSED zero
    task, NonGenericSegmentError for another REFUSED row, else
    SectionSolveError (ExtremalSolveError on layers 0 and n).
    """
    if not status.any():   # SOLVED is 0
        return
    k = int(np.flatnonzero(status)[0])
    row = first_row + k
    t_row = None if t is None else float(t[row])
    if status[k] == REFUSED:
        where = row_label(row, t_row)
        if not np.any(W[k]):
            raise OriginExcludedError(f"zero task at {where} has no preimage "
                                      f"on transitional layer {layer}")
        raise NonGenericSegmentError(
            f"the fiber of {where} (w = {W[k]}) skips layer {layer}: its "
            "bounding crossings lie within the rounding bound of lambda*")
    if status[k] == NO_CONVERGENCE:
        reason = f"no convergence in {NEWTON_MAX_ITER} Newton steps"
    else:
        reason = ("the state has a zero, subnormal or non-finite component "
                  "(the leaf point lies outside the float64 range)")
    error = ExtremalSolveError if layer in (0, model.n) else SectionSolveError
    raise error(row, W[k], reason, t=t_row)


def layer_point(model: AllocationModel, w, layer: int, C: float) -> SectionPoint:
    """The batch-of-one :func:`layer_section`: the state of task w on the leaf
    C in a layer-``layer`` orthant.  A failed row raises its typed error."""
    W = np.atleast_1d(np.asarray(w, dtype=float))[None, :]
    V, lam, status = layer_section(model, W, layer, C)
    raise_for_status(model, W, layer, status)
    sig = classify_orthant(model, np.where(V[0] > 0, 1, -1))
    return SectionPoint(v=V[0], lam=float(lam[0]), C=C, orthant=sig,
                        layer=sig.layer)


def section_intersection(model: AllocationModel, w, segment: int, C: float,
                         trace: FiberTrace | None = None) -> SectionPoint:
    """Solve C_w(lambda) = C on one open fiber segment.

    ``segment`` indexes the sorted open intervals between the distinct
    crossings of ``trace``, 0 through k (k = number of distinct crossings).
    Segment l lies in the layer given by the number of crossings below it, l
    for a generic fiber, and every segment admits every real C.  The solve is
    :func:`layer_point` on that layer.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if trace is None:
        trace = crossing_parameters(model, w)
    segments = len(trace.distinct_crossings) + 1
    if not 0 <= segment < segments:
        raise NonGenericSegmentError(
            f"segment {segment} out of range: fiber has {segments} segments "
            f"({trace.skipped_orthants} orthants skipped by merged crossings)")
    layer = sum(len(idx) for _, idx in trace.distinct_crossings[:segment])
    return layer_point(model, w, layer, C)
