"""Logarithmic potential, its gradient, the fiber-restricted potential, and
monotone section-intersection solving.

The potential Phi(v) = sum_i b_i sign(v_i) ln|v_i| is constant on the leaves
of the foliation orthogonal to the fibers, -inf where a v_i is 0.  On a fiber
with u_i = b_i (lambda - lambda*_i), it is strictly increasing on every open
segment between crossings, from -inf to +inf, so each segment meets each leaf
once.  Layer l's segment (lo, hi) runs from the l-th to the l+1-th smallest
crossing, lo = -inf on layer 0 and hi = +inf on layer n, and every segment is
solved by one Newton iteration in r = ln|lambda - p|, p the end nearer the
root, t = +1 for p = lo and -1 for p = hi.  L_i = ln|lambda - lambda*_i| is
logaddexp(ln off_i, r) for a component vanishing at p, off_i = |p -
lambda*_i|, and on a segment of length D logaddexp(ln off_i, ln D +
log1p(-e^(r - ln D))) for the others, off_i their offset to the far end.
C_w = 1/2 sum_i +-|b_i| (ln|b_i| + L_i), and t C_w, which increases in r, is
a sum of softplus terms and terms -ln(off_i + D - e^r), so convex, with slope
1/2 sum_i |b_i| e^(r - L_i): Newton from above the root descends onto it.  A
bounded segment starts at r = ln(D/2): C_w at the midpoint picks the half
that holds the root, and p is its end.  The extremal segments are the case
D = inf: p is the finite end, where every component vanishes, t = +1 on layer
n and -1 on layer 0, and the start r = (t C - K) / (1/2 ||b||_1), K = 1/2
sum_i |b_i| ln|b_i|, lies above the root, as t C_w >= K + 1/2 ||b||_1 r.

v_i = sign(u_i) sqrt|b_i| exp(1/2 L_i) is rebuilt from the logs, so there is
no cap on lambda and no special case for roots closer to a crossing than
lambda resolves.
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
from .fibers import (FiberTrace, _bare_state, _kernel_direction, _on_fiber,
                     _rowwise_matvec, crossing_parameters, crossings)
from .model import AllocationModel
from .strata import OrthantSignature, classify_orthant

#: Newton steps allowed per row of a section solve (a handful suffice).
NEWTON_MAX_ITER = 64
EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny
SQRT_TINY = math.sqrt(TINY)
#: Rows a batch solve (solve_rows) passes to layer_section at once.
SOLVE_CHUNK_ROWS = 4096
#: Per-row status of a section solve (see layer_section).
SOLVED, REFUSED, NO_CONVERGENCE, OUT_OF_RANGE = range(4)


@dataclass(frozen=True)
class PotentialValue:
    """Potential evaluation result; -inf exactly when a component halts.

    ``value`` is finite iff ``boundary_indices`` is empty.
    """

    value: float
    boundary_indices: frozenset[int]

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


def phi_sum(b: np.ndarray, sign, log_abs) -> np.ndarray:
    """The Phi sum over the last axis, sum_i b_i sign_i ln|u_i|, from the
    signs and the logs of u."""
    return np.sum(b * sign * log_abs, axis=-1)


def _phi(b: np.ndarray, u: np.ndarray) -> PotentialValue:
    """The Phi sum at u, the zeros of u its boundary indices.  A zero takes
    the sign of its orthant-entry limit, sign(b_i), so its term b_i sign(b_i)
    ln 0, and the sum, is -inf."""
    zero = u == 0
    with np.errstate(divide="ignore"):
        value = phi_sum(b, np.where(zero, np.sign(b), np.sign(u)), np.log(np.abs(u)))
    return PotentialValue(float(value), frozenset(np.flatnonzero(zero).tolist()))


def potential(model: AllocationModel, v) -> PotentialValue:
    """Global potential Phi(v) = sum_i b_i sign(v_i) ln|v_i|, -inf where some
    v_i = 0.  Raises ValueError for a non-finite component."""
    return _phi(model.b, _bare_state(v))


def potential_gradient(model: AllocationModel, v) -> np.ndarray:
    """Gradient of the potential, (b_i / |v_i|)_i; regular states only
    (see :func:`fiberalloc.fibers.fiber_tangent_space`)."""
    grad, halted = _kernel_direction(model, v)
    if halted.any():
        raise BoundaryStateError("gradient undefined at a boundary state")
    return grad


def potential_along_fiber(model: AllocationModel, w, lam: float) -> PotentialValue:
    """Fiber-restricted potential C_w(lambda) = Phi(gamma(w, lambda)).

    Evaluated directly in transformed coordinates with the 1/2 factor from the
    square-root transform: (1/2) sum b_i sign(u_i) ln|u_i| with u_i = b_i
    (lambda - lambda*_i), 0 on its hyperplane (see fibers.crossings).
    """
    u, _ = _on_fiber(model, np.atleast_1d(np.asarray(w, dtype=float)), lam)
    phi = _phi(model.b, u)
    return PotentialValue(0.5 * phi.value, phi.boundary_indices)


def potential_slope(model: AllocationModel, w, lam: float) -> float:
    """d C_w / d lambda = sum b_i^2 / (2 v_i^2); strictly positive."""
    u, on = _on_fiber(model, np.atleast_1d(np.asarray(w, dtype=float)), lam)
    if on.any():
        raise CrossingStateError(f"lambda = {lam:g} sits on a hyperplane crossing")
    with np.errstate(over="ignore"):   # a subnormal u_i gives +inf
        return float(np.sum(model.b ** 2 / (2.0 * np.abs(u))))


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
    u, vanish = _on_fiber(model, trace.w, lam_star)
    vanish[list(idx)] = True
    # u_i = b_i * (+/- delta) for the vanishing components: ln|u_i| splits
    sign = np.where(vanish, np.sign(model.b) * (1.0 if side == "above" else -1.0),
                    np.sign(u))
    with np.errstate(divide="ignore"):
        log_u = np.where(vanish, np.log(np.abs(model.b)) + log_delta, np.log(np.abs(u)))
    return 0.5 * float(phi_sum(model.b, sign, log_u))


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
    layer-``layer`` orthant, its fiber parameter and its status.  The segment
    lies between the row's ``layer``-th and ``layer + 1``-th crossings; on
    layers 0 and n it is the unbounded extremal segment beyond the outer one.
    A row is REFUSED when its two crossings coincide (see fibers.crossings),
    the zero task on a transitional layer included; NO_CONVERGENCE after
    NEWTON_MAX_ITER steps; OUT_OF_RANGE when the task or its crossings are
    not finite, the state has a zero, subnormal or non-finite
    component, or its largest v_i^2 underflows (max|v_i| < sqrt(TINY)), so
    that f(v) = w cannot be checked.
    Raises ValueError for a non-finite C or a layer outside [0, n],
    WrongShapeError unless W has m columns.
    """
    if not math.isfinite(C):
        raise ValueError("target potential level must be finite")
    if not 0 <= layer <= model.n:
        raise ValueError(f"layer must lie in [0, {model.n}]")
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if W.ndim != 2 or W.shape[1] != model.m:
        raise WrongShapeError(f"tasks have shape {W.shape}, expected (rows, {model.m})")
    # einsum sums a row of a C-ordered batch as it sums the row alone
    W = np.ascontiguousarray(W)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _section(model, W, layer, C)


def _segment(model: AllocationModel, W: np.ndarray, layer: int):
    """Per row of W the layer's segment (lo, hi), the signs sg_i = +-1 of
    lambda - lambda*_i on it, ln off_i and the status before the solve."""
    rows = np.arange(W.shape[0])
    lam_star, noise = crossings(model, W)
    order = np.argsort(lam_star, axis=1)
    ends = []   # the layer-th and layer + 1-th crossings and their noise bounds
    for k, beyond in ((layer - 1, -np.inf), (layer, np.inf)):
        if 0 <= k < model.n:
            ends.append((lam_star[rows, order[:, k]], noise[rows, order[:, k]]))
        else:   # beyond the outer crossings: unbounded, with a zero noise bound
            ends.append((np.full(W.shape[0], beyond), np.zeros(W.shape[0])))
    (lo, noise_lo), (hi, noise_hi) = ends
    # a tie at lo makes D = 0, a REFUSED row
    entered = lam_star <= lo[:, None]
    sg = np.where(entered, 1.0, -1.0)
    # a_i = lo - lambda*_i (entered), c_i = lambda*_i - hi (exited); one
    # within its own and its end's noise bounds carries no information about w
    off = sg * (np.where(entered, lo[:, None], hi[:, None]) - lam_star)
    off[off <= noise + np.where(entered, noise_lo[:, None], noise_hi[:, None])] = 0.0
    status = np.where(hi - lo > noise_lo + noise_hi, SOLVED, REFUSED)
    status[~np.all(np.isfinite(lam_star + noise), axis=1)] = OUT_OF_RANGE
    return lo, hi, sg, np.log(off), status


def _section(model: AllocationModel, W: np.ndarray, layer: int,
             C: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The segment solve of the module docstring, for layer_section; the
    set-up arrays of :func:`_segment` are freed before the Newton steps."""
    lo, hi, sg, log_off, status = _segment(model, W, layer)
    D = hi - lo
    half_b = 0.5 * np.abs(model.b)
    offset = _rowwise_matvec(sg, (half_b * np.log(np.abs(model.b)))[None, :])[:, 0] - C
    log_D = np.log(D)
    if 0 < layer < model.n:
        # the root lies in the half of (lo, hi) on the side of C_w(midpoint) - C;
        # solve from that end p = lo (t = +1) or hi (t = -1) in r = ln|lambda - p|
        r = np.log(0.5 * D)
        F_mid = _rowwise_matvec(sg * np.logaddexp(log_off, r[:, None]),
                                half_b[None, :])[:, 0] + offset
        t = np.where(F_mid > 0.0, 1.0, -1.0)
        near = sg == t[:, None]
    else:
        # D = inf: p = lo on layer n, hi on layer 0, where every component vanishes
        t = np.full(W.shape[0], 1.0 if layer else -1.0)
        r = -t * offset / half_b.sum()
        near = None
    L, active = _newton(r, np.flatnonzero(status == SOLVED), log_off,
                        t * offset, half_b, near, log_D)
    V = sg * model.c * np.exp(0.5 * L)
    lam = np.where(t > 0.0, lo, hi) + t * np.exp(r)
    return V, lam, _status(V, status, active)


def _newton(r: np.ndarray, active: np.ndarray, log_off: np.ndarray,
            offset: np.ndarray, half_b: np.ndarray, near, log_D: np.ndarray):
    """The Newton iteration of the module docstring on G(r) = sum_i +-1/2
    |b_i| L_i(r) + offset, + where ``near`` marks a component vanishing at p
    (None: every component, D = inf), for the ``active`` rows.  A row stops
    on G <= 0, a non-finite G or a step within rounding of r.  Updates r in
    place; returns L at the final r and the rows still active after
    NEWTON_MAX_ITER steps.
    """
    def log_offsets(rows, r_rows):
        x = r_rows[:, None]
        if near is not None:
            x = np.where(near[rows], x, (log_D[rows] + np.log1p(
                -np.exp(r_rows - log_D[rows])))[:, None])
        return np.logaddexp(log_off[rows], x)

    for _ in range(NEWTON_MAX_ITER):
        if active.size == 0:
            break
        r_act = r[active]
        L = log_offsets(active, r_act)
        signed = L if near is None else np.where(near[active], L, -L)
        G = _rowwise_matvec(signed, half_b[None, :])[:, 0] + offset[active]
        # dG/dr = sum_i 1/2 |b_i| e^(r - L_i), near and far components alike
        step = G / _rowwise_matvec(np.exp(r_act[:, None] - L),
                                   half_b[None, :])[:, 0]
        r[active] = r_act - step
        done = ((G <= 0.0) | ~np.isfinite(G)
                | (np.abs(step) <= 4.0 * EPS * (1.0 + np.abs(r_act))))
        active = active[~done]
    return log_offsets(slice(None), r), active


def _status(V: np.ndarray, status: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Mark the OUT_OF_RANGE and NO_CONVERGENCE rows, as layer_section says."""
    absV = np.abs(V)
    ok = ((np.isfinite(V) & (absV >= TINY)).all(axis=1)
          & (absV >= SQRT_TINY).any(axis=1))
    status[~ok & (status == SOLVED)] = OUT_OF_RANGE
    status[active] = NO_CONVERGENCE
    return status


def raise_for_status(model: AllocationModel, W: np.ndarray, layer: int,
                     status: np.ndarray, first_row: int = 0, t=None) -> None:
    """Raise the typed error of the first row of W whose status is not SOLVED.

    It names the row ``first_row`` + its index in W, a lifted sample at time
    ``t[row]`` when ``t`` is given: OriginExcludedError for a REFUSED zero
    task, NonGenericSegmentError for another REFUSED row, else
    SectionSolveError (ExtremalSolveError on layers 0 and n), whose reason
    names a non-finite task, overflowed crossings or an unrepresentable state.
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
    with np.errstate(over="ignore", invalid="ignore"):
        lam_star, noise = crossings(model, W[k:k + 1])
    if status[k] == NO_CONVERGENCE:
        reason = f"no convergence in {NEWTON_MAX_ITER} Newton steps"
    elif not np.all(np.isfinite(W[k])):
        reason = "the task is not finite"
    elif not np.all(np.isfinite(lam_star + noise)):
        reason = ("its crossings lambda*_i = -(A_pinv w)_i / b_i or their "
                  "noise bounds overflow, so no state was computed")
    else:
        reason = ("the state has a zero, subnormal or non-finite component or "
                  "squares that underflow (the leaf point lies outside the "
                  "float64 range)")
    error = ExtremalSolveError if layer in (0, model.n) else SectionSolveError
    raise error(row, W[k], reason, t=t_row)


def solve_rows(model: AllocationModel, W, layer: int, C: float,
               t=None) -> tuple[np.ndarray, np.ndarray]:
    """States and fiber parameters ``(V, lam)`` of the task rows W on the leaf
    C in a layer-``layer`` orthant, solved by :func:`layer_section`
    SOLVE_CHUNK_ROWS rows at a time (bounding the working memory).  The first
    row it cannot solve raises its typed error (:func:`raise_for_status`),
    named as a sample at time ``t[row]`` when ``t`` is given.
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    V, lam = np.empty((W.shape[0], model.n)), np.empty(W.shape[0])
    for lo in range(0, W.shape[0], SOLVE_CHUNK_ROWS):
        rows = slice(lo, lo + SOLVE_CHUNK_ROWS)
        V[rows], lam[rows], status = layer_section(model, W[rows], layer, C)
        raise_for_status(model, W[rows], layer, status, first_row=lo, t=t)
    return V, lam


def layer_point(model: AllocationModel, w, layer: int, C: float) -> SectionPoint:
    """The batch-of-one :func:`solve_rows`: the state of task w on the leaf
    C in a layer-``layer`` orthant, with its orthant signature."""
    V, lam = solve_rows(model, np.atleast_1d(np.asarray(w, dtype=float))[None, :],
                        layer, C)
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
