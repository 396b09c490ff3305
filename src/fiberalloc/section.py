"""The section solver: where each task's fiber meets the leaf C on a layer.

The fiber potential C_w (:mod:`fiberalloc.potential`) meets each leaf once on
every segment between crossings.  Layer l's segment (lo, hi) runs from the
l-th to the l+1-th smallest crossing, lo = -inf on layer 0 and hi = +inf on
layer n, and every segment is solved by one Newton iteration in r =
ln|lambda - p|, p the end nearer the root, t = +1 for p = lo and -1 for p =
hi.  L_i = ln|lambda - lambda*_i| is logaddexp(ln off_i, r) for a component
vanishing at p, off_i = |p - lambda*_i|, and on a segment of length D
logaddexp(ln off_i, ln D + log1p(-e^(r - ln D))) for the others, off_i their
offset to the far end.
C_w = 1/2 sum_i +-|b_i| (ln|b_i| + L_i), and t C_w, which increases in r, is
a sum of softplus terms and terms -ln(off_i + D - e^r), so convex, with slope
1/2 sum_i |b_i| e^(r - L_i): Newton from above the root descends onto it.  A
bounded segment starts at r = ln(D/2): C_w at the midpoint picks the half
that holds the root, and p is its end.  The extremal segments are the case
D = inf: p is the finite end, where every component vanishes, t = +1 on layer
n and -1 on layer 0, and the solve finds the root of G(r) = t (C_w - C) =
sum_i h_i L_i + K - t C, h_i = 1/2 |b_i|, K = sum_i h_i ln|b_i|.  As L_i >=
max(ln off_i, r), G is bounded below by the convex piecewise-linear minorant
M(r) = sum_i h_i max(ln off_i, r) + K - t C.  Each affine piece of M (h_i r
for the components of a set I, h_i ln off_i for the others) lies below M, so
its root lies above M's root, which lies above G's.  Newton starts at M's
root, the smallest root over the pieces I_j = {i : ln off_i <= ln off_j}
(:func:`_minorant_root`).  The piece with every component in I, whose root
(t C - K) / (1/2 ||b||_1) was the start before, is one of them, so no row
starts further from its root.  The stopping rule is unchanged, and so is its
argument: Newton from a start where G >= 0 (up to G's rounding) descends onto
the root, and a row stops on a step within rounding of r or on G <= 0, after
a step from above, whatever the start's distance from the root.

v_i = sign(u_i) sqrt|b_i| exp(1/2 L_i) is rebuilt from the logs, so there is
no cap on lambda and no special case for roots closer to a crossing than
lambda resolves.

Every log-sum of the solve (F at the midpoint, each Newton step's L and the
final L) is max(a, x) + log1p(e^-|a - x|), written with numpy's vectorized
exp and log1p (:func:`_logaddexp`); np.logaddexp is scalar libm code, about
3.5x slower on a chunk.  The kernel is elementwise or sums each row on its own
(fibers._rowwise_matvec), so a row's result is bit-identical in every batch
and input layout, a batch of one included.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ExtremalSolveError,
    NonGenericSegmentError,
    OriginExcludedError,
    SectionSolveError,
    row_label,
)
from .fibers import _rowwise_matvec, crossings
from .model import AllocationModel
from .strata import OrthantSignature, orthant_masks, signature_from_mask

#: Newton steps allowed per row of a section solve (a handful suffice).
NEWTON_MAX_ITER = 64
EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny
SQRT_TINY = math.sqrt(TINY)
#: A Newton step within this many times 1 + |r| is rounding: the row stops.
STEP_RTOL = 4.0 * EPS
#: Rows a batch solve (solve_rows) passes to layer_section at once.
SOLVE_CHUNK_ROWS = 4096
#: Per-row status of a section solve (see layer_section).
SOLVED, REFUSED, NO_CONVERGENCE, OUT_OF_RANGE = range(4)


@dataclass(frozen=True, eq=False)
class SectionPoint:
    """A kinetic state on an orthogonal leaf, tagged (layer, orthant); the
    orthant signature is built from ``model`` when it is first read."""

    v: np.ndarray
    lam: float
    layer: int
    model: AllocationModel = field(repr=False)

    @cached_property
    def orthant(self) -> OrthantSignature:
        return signature_from_mask(self.model,
                                   int(orthant_masks(self.v[None, :])[0]))


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
    WrongShapeError unless W has m columns (see fibers.crossings).
    """
    _check_level(model, layer, C)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _section(model, _task_matrix(W), layer, C)


def _check_level(model: AllocationModel, layer: int, C: float) -> None:
    """The ValueErrors of :func:`layer_section` for C and the layer."""
    if not math.isfinite(C):
        raise ValueError("target potential level must be finite")
    if not 0 <= layer <= model.n:
        raise ValueError(f"layer must lie in [0, {model.n}]")


def _task_matrix(W) -> np.ndarray:
    """W as a 2-D float array in C order: einsum sums a row of a C-ordered
    batch as it sums the row alone."""
    return np.atleast_2d(np.ascontiguousarray(W, dtype=float))


def _segment(lam_star: np.ndarray, noise: np.ndarray, layer: int):
    """Per row the transitional layer's segment (lo, hi) between its
    crossings lam_star (bounds ``noise``), the signs sg_i = +-1 of lambda -
    lambda*_i on it, ln off_i and the status before the solve."""
    rows = np.arange(lam_star.shape[0])
    order = np.argsort(lam_star, axis=1)
    k_lo, k_hi = order[:, layer - 1], order[:, layer]
    lo, hi = lam_star[rows, k_lo], lam_star[rows, k_hi]
    noise_lo, noise_hi = noise[rows, k_lo], noise[rows, k_hi]
    # a tie at lo makes D = 0, a REFUSED row
    entered = lam_star <= lo[:, None]
    sg = np.where(entered, 1.0, -1.0)
    # a_i = lo - lambda*_i (entered), c_i = lambda*_i - hi (exited); one
    # within its own and its end's noise bounds carries no information about w
    off = sg * (np.where(entered, lo[:, None], hi[:, None]) - lam_star)
    off[off <= noise + np.where(entered, noise_lo[:, None], noise_hi[:, None])] = 0.0
    status = np.where(hi - lo > noise_lo + noise_hi, SOLVED, REFUSED)
    return lo, hi, sg, np.log(off), status


def _outer_offsets(lam_star: np.ndarray, noise: np.ndarray, layer: int):
    """Per row the extremal layer's finite end p, the largest crossing on
    layer n and the smallest on layer 0, and ln off_i, off_i = |p -
    lambda*_i|, zero within its own and p's noise bounds."""
    rows = np.arange(lam_star.shape[0])
    k = lam_star.argmax(axis=1) if layer else lam_star.argmin(axis=1)
    p = lam_star[rows, k]
    off = np.abs(p[:, None] - lam_star)
    off[off <= noise + noise[rows, k][:, None]] = 0.0
    return p, np.log(off)


def _across_columns(op, X: np.ndarray) -> np.ndarray:
    """op.reduce(X, axis=1) for a boolean X, reduced column by column over a
    transposed copy: numpy reduces along a short row axis 10x slower."""
    return op.reduce(np.ascontiguousarray(X.T), axis=0)


def _logaddexp(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.logaddexp(a, x) to a few ulps: max(a, x) + log1p(e^-|a - x|),
    with numpy's vectorized exp and log1p (its logaddexp is scalar libm code,
    about 3.5x slower on a chunk).  Elementwise, so a row's result is the same
    in every batch; equal infinities give themselves, as in np.logaddexp."""
    hi = np.maximum(a, x)
    d = np.minimum(a, x)
    np.subtract(d, hi, d)   # NaN only where a = x = +-inf (or hi is NaN)
    np.fmax(d, -np.inf, d)
    np.exp(d, d)
    np.log1p(d, d)
    return np.add(hi, d, d)


def _section(model: AllocationModel, W: np.ndarray, layer: int,
             C: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The segment solve of the module docstring, for layer_section, on a
    C-ordered float W; the set-up arrays are freed before the Newton steps."""
    lam_star, noise = crossings(model, W)
    finite = _across_columns(np.logical_and, np.isfinite(lam_star + noise))
    half_b = 0.5 * np.abs(model.b)
    # K = 1/2 sum_i |b_i| ln|b_i|, signed by sg_i on a transitional layer
    K_terms = (half_b * np.log(np.abs(model.b)))[None, :]
    if 0 < layer < model.n:
        lo, hi, sg, log_off, status = _segment(lam_star, noise, layer)
        status[~finite] = OUT_OF_RANGE
        offset = _rowwise_matvec(sg, K_terms)[:, 0] - C
        # the root lies in the half of (lo, hi) on the side of C_w(midpoint) - C;
        # solve from that end p = lo (t = +1) or hi (t = -1) in r = ln|lambda - p|
        D = hi - lo
        log_D, r = np.log(D), np.log(0.5 * D)
        F_mid = _rowwise_matvec(sg * _logaddexp(log_off, r[:, None]),
                                half_b[None, :])[:, 0] + offset
        t = np.where(F_mid > 0.0, 1.0, -1.0)
        near = sg == t[:, None]
        p = np.where(t > 0.0, lo, hi)
        offset = t * offset
    else:
        # D = inf: p = lo on layer n (t = sg_i = +1), hi on layer 0 (-1), where
        # every component vanishes; t (sg K - C) = K - t C is one number
        t = sg = 1.0 if layer else -1.0
        p, log_off = _outer_offsets(lam_star, noise, layer)
        status = np.where(finite, SOLVED, OUT_OF_RANGE)
        offset = _rowwise_matvec(np.ones((1, model.n)), K_terms)[0, 0] - t * C
        r = _minorant_root(log_off, half_b, offset)
        near = log_D = None
    del lam_star, noise
    L, active = _newton(r, np.flatnonzero(status == SOLVED), log_off,
                        offset, half_b, near, log_D)
    V = sg * model.c * np.exp(0.5 * L)
    lam = p + t * np.exp(r)
    return V, lam, _status(V, status, active)


def _minorant_root(log_off: np.ndarray, half_b: np.ndarray,
                   offset: float) -> np.ndarray:
    """Per row the root of the extremal G's minorant M(r) = sum_i h_i
    max(ln off_i, r) + offset, h = ``half_b``, by Newton's method on M from
    the root of its piece with every component in the r regime.  Each step
    lands on the root of the affine piece that M is at r: sum_i h_i r over
    the components with ln off_i < r, plus the other terms.  Every piece lies
    below M, so its root lies above M's, and M's lies above G's; the steps
    end on the smallest root over the pieces once a row's set of components
    holds, after n steps at most.  The sums are row sums, so a row's root is
    the same in every batch.
    """
    h = half_b[None, :]
    r = -offset / half_b.sum()
    below = log_off < r
    for _ in range(half_b.size):   # r is a column of the rows' roots from here
        rest = _rowwise_matvec(np.where(below, 0.0, log_off), h)
        r = (-offset - rest) / _rowwise_matvec(below, h)
        below, was = log_off < r, below
        if not (below != was).any():
            break
    return r[:, 0]


def _log_offsets(r: np.ndarray, log_off: np.ndarray, near, log_D) -> np.ndarray:
    """L_i = ln|lambda - lambda*_i| at r per row, as the module docstring
    says; ``near`` and ``log_D`` as in :func:`_newton`."""
    x = r[:, None]
    if near is not None:
        x = np.where(near, x, (log_D + np.log1p(-np.exp(r - log_D)))[:, None])
    return _logaddexp(log_off, x)


def _newton(r: np.ndarray, active: np.ndarray, log_off: np.ndarray,
            offset, half_b: np.ndarray, near, log_D):
    """The Newton iteration of the module docstring on G(r) = sum_i +-1/2
    |b_i| L_i(r) + offset, + where ``near`` marks a component vanishing at p
    (None: every component, D = inf, ``log_D`` None and ``offset`` one
    number), for the ``active`` rows.  A row stops on G <= 0, a non-finite G
    or a step within rounding of r.  Updates r in place; returns L at the
    final r and the rows still active after NEWTON_MAX_ITER steps.
    """
    half_b = half_b[None, :]
    # the active rows' constants, gathered again only when rows stop
    consts = (log_off, offset, near, log_D)
    if active.size < r.size:
        consts = _take_rows(consts, active)
    r_act = r[active]
    for _ in range(NEWTON_MAX_ITER):
        if active.size == 0:
            break
        log_off_a, offset_a, near_a, log_D_a = consts
        L = _log_offsets(r_act, log_off_a, near_a, log_D_a)
        signed = L if near_a is None else np.where(near_a, L, -L)
        G = _rowwise_matvec(signed, half_b)[:, 0] + offset_a
        # dG/dr = sum_i 1/2 |b_i| e^(r - L_i), near and far components alike
        step = G / _rowwise_matvec(np.exp(r_act[:, None] - L), half_b)[:, 0]
        # G <= 0 (step <= 0), a NaN G or step, or a step within rounding;
        # G = +inf gives step = +inf
        done = ~(step > STEP_RTOL * (1.0 + np.abs(r_act))) | (G == np.inf)
        r_act = r_act - step
        # a row that stops keeps its last step; no gathers once all have
        stopped = np.count_nonzero(done)
        if stopped == active.size:
            r[active] = r_act
            active = active[:0]
            break
        if stopped:
            r[active[done]] = r_act[done]
            keep = ~done
            active, r_act = active[keep], r_act[keep]
            consts = _take_rows(consts, keep)
    else:
        r[active] = r_act
    return _log_offsets(r, log_off, near, log_D), active


def _take_rows(consts, rows):
    """The ``rows`` of each per-row array of ``consts``; None and numbers stay."""
    return tuple(c[rows] if isinstance(c, np.ndarray) else c for c in consts)


def _status(V: np.ndarray, status: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Mark the OUT_OF_RANGE and NO_CONVERGENCE rows, as layer_section says."""
    absV = np.abs(V)
    ok = (_across_columns(np.logical_and, np.isfinite(V) & (absV >= TINY))
          & _across_columns(np.logical_or, absV >= SQRT_TINY))
    status[~ok & (status == SOLVED)] = OUT_OF_RANGE
    status[active] = NO_CONVERGENCE
    return status


def raise_for_status(model: AllocationModel, W: np.ndarray, layer: int,
                     status: np.ndarray, first_row: int = 0, t=None) -> None:
    """Raise the typed error of the first row of W whose status is not SOLVED.

    It names the row ``first_row`` + its index k in W, a lifted sample at
    time ``t[k]`` when ``t``, the times of W's rows, is given:
    OriginExcludedError for a REFUSED zero task, NonGenericSegmentError for
    another REFUSED row, else SectionSolveError (ExtremalSolveError on layers
    0 and n), whose reason names a non-finite task, overflowed crossings or
    an unrepresentable state.
    """
    if not status.any():   # SOLVED is 0
        return
    k = int(np.flatnonzero(status)[0])
    row = first_row + k
    t_row = None if t is None else float(t[k])
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
               t=None, first_row: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """States and fiber parameters ``(V, lam)`` of the task rows W on the leaf
    C in a layer-``layer`` orthant, solved as :func:`layer_section` solves
    them, SOLVE_CHUNK_ROWS rows at a time (bounding the working memory).  The
    first row k it cannot solve raises its typed error
    (:func:`raise_for_status`), named row ``first_row`` + k, or a sample at
    time ``t[k]`` when ``t`` is given: W's rows may be a block of a longer
    batch.
    """
    _check_level(model, layer, C)
    W = _task_matrix(W)
    V, lam = np.empty((W.shape[0], model.n)), np.empty(W.shape[0])
    for lo in range(0, W.shape[0], SOLVE_CHUNK_ROWS):
        rows = slice(lo, lo + SOLVE_CHUNK_ROWS)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            V[rows], lam[rows], status = _section(model, W[rows], layer, C)
        raise_for_status(model, W[rows], layer, status, first_row + lo,
                         None if t is None else t[rows])
    return V, lam


def layer_point(model: AllocationModel, w, layer: int, C: float) -> SectionPoint:
    """The batch-of-one :func:`solve_rows`: the state of task w on the leaf
    C in a layer-``layer`` orthant, whose signature is built when read."""
    V, lam = solve_rows(model, np.atleast_1d(w)[None, :], layer, C)
    return SectionPoint(v=V[0], lam=float(lam[0]), layer=layer, model=model)
