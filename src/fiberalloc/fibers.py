"""Constant-task fibers: parameterization, tangents, crossings, orthant traversal.

In transformed coordinates a fiber is the affine line x(lambda) = A_pinv w +
lambda b, whose component u_i = b_i (lambda - lambda*_i) crosses zero exactly
once, at lambda*_i = -(A_pinv w)_i / b_i.  Mapping back through the
square-root transform gives the curve traced in the native kinetic space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WrongShapeError
from .model import AllocationModel, untransform
from .strata import OrthantSignature, extremal_signature, signature_from_mask

#: A crossing's relative noise bound, 32 times its rounding bound (see crossings).
CROSSING_RTOL = 32 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class FiberPoint:
    """A single sampled point of a fiber.

    ``tangent`` holds d(gamma)/d(lambda); components listed in
    ``divergent_indices`` sit on a hyperplane crossing, where the parametric
    tangent blows up.  Those components carry the limiting direction sign
    (proportional to c_i) instead of a non-finite value.
    """

    v: np.ndarray
    lam: float
    tangent: np.ndarray
    divergent_indices: frozenset[int]


@dataclass(frozen=True, eq=False)
class FiberTrace:
    """Crossing structure and orthant itinerary of one fiber.

    ``crossings`` lists all n (lambda_i, i) pairs sorted by lambda;
    ``distinct_crossings`` groups the coincident ones (see crossings), so the
    fiber has ``len(distinct_crossings) + 1`` open segments.  Segment k lies
    in the orthant ``orthant_sequence[k]``.
    """

    w: np.ndarray
    crossings: tuple[tuple[float, int], ...]
    distinct_crossings: tuple[tuple[float, tuple[int, ...]], ...]
    orthant_sequence: tuple[OrthantSignature, ...]
    generic: bool
    skipped_orthants: int


def crossings(model: AllocationModel, W) -> tuple[np.ndarray, np.ndarray]:
    """Per task row of W, the crossings lambda*_i = -(A_pinv w)_i / b_i and
    their noise bound CROSSING_RTOL * m * (|A_pinv| |w|)_i / |b_i|, a row's
    bit-identical in every batch.  A component is on its hyperplane within
    its crossing's bound; two crossings coincide within the sum of theirs.
    Raises WrongShapeError unless W has m columns."""
    if W.ndim != 2 or W.shape[1] != model.m:
        raise WrongShapeError(f"tasks have shape {W.shape}, expected (rows, {model.m})")
    lam_star = -_rowwise_matvec(W, model.A_pinv) / model.b
    noise = (CROSSING_RTOL * W.shape[1]
             * _rowwise_matvec(np.abs(W), np.abs(model.A_pinv)) / np.abs(model.b))
    return lam_star, noise


def _on_fiber(model: AllocationModel, w: np.ndarray,
              lam) -> tuple[np.ndarray, np.ndarray]:
    """gamma(w, lambda) in transformed coordinates, u = b o (lambda - lambda*),
    and the mask of its components on their hyperplane: those whose crossing
    lies within its noise bound of lambda, where u_i is 0.  A column of k
    lambdas gives k rows, each bit-identical to its lambda's own call."""
    (lam_star,), (noise,) = crossings(model, w[None, :])
    on = np.abs(lam - lam_star) <= noise
    return np.where(on, 0.0, model.b * (lam - lam_star)), on


def _rowwise_matvec(W: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Rows of W @ M.T, each summed by einsum (without BLAS) in the order it
    sums the row alone: for a C-ordered W a row's result is bit-identical in
    every batch (a batch of one included), for a Fortran-ordered one not."""
    return np.einsum("ij,kj->ik", W, M)


def fiber_point(model: AllocationModel, w, lam: float) -> FiberPoint:
    """Evaluate gamma(w, lambda) and its parametric tangent; components on
    their hyperplane (see :func:`crossings`) are 0 and divergent."""
    x, div = _on_fiber(model, _bare_task(w), lam)
    v = untransform(x)
    tangent = np.empty(model.n)
    tangent[~div] = model.b[~div] / (2.0 * np.sqrt(np.abs(x[~div])))
    tangent[div] = model.c[div]  # limiting direction; magnitude diverges
    return FiberPoint(v=v, lam=float(lam), tangent=tangent,
                      divergent_indices=frozenset(np.nonzero(div)[0].tolist()))


def crossing_parameters(model: AllocationModel, w) -> FiberTrace:
    """Sorted hyperplane crossings and the traversed orthant sequence.

    Adjacent crossings merge into one multi-index crossing when their gap is
    within the sum of their noise bounds (:func:`crossings`).  That is the
    test by which :func:`fiberalloc.section.layer_section` refuses the layer
    between them, so each segment of the trace lies on a layer the solver
    solves.  The trace is generic when no merge occurs.  The orthant sequence
    starts at -sign(b) and flips the signs of each merged group in turn.
    """
    w = _bare_task(w)
    (lam_star,), (noise,) = crossings(model, w[None, :])
    order = np.argsort(lam_star)
    lam, noise = lam_star[order], noise[order]
    starts = np.flatnonzero(~(np.diff(lam) <= noise[:-1] + noise[1:])) + 1
    distinct = tuple((float(lam[k]), tuple(idx.tolist())) for k, idx
                     in zip([0, *starts], np.split(order, starts)))

    seq = [extremal_signature(model, "negative")]
    for _, idx in distinct:
        seq.append(signature_from_mask(
            model, seq[-1].mask ^ sum(1 << i for i in idx)))
    return FiberTrace(
        w=w, crossings=tuple(zip(lam.tolist(), order.tolist())),
        distinct_crossings=distinct, orthant_sequence=tuple(seq),
        generic=len(distinct) == model.n,
        skipped_orthants=model.n + 1 - len(seq))


def _bare_state(v, name: str = "state") -> np.ndarray:
    """v as a float array; ValueError naming its first non-finite component."""
    v = np.asarray(v, dtype=float)
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(f"{name} component {bad[0]} is not finite: {v.flat[bad[0]]}")
    return v


def _bare_task(w) -> np.ndarray:
    """w as a 1-d float array; ValueError naming its first non-finite component."""
    return _bare_state(np.atleast_1d(w), "task")


def _kernel_direction(model: AllocationModel, v) -> tuple[np.ndarray, np.ndarray]:
    """b_i / |v_i| per component, computed without a RuntimeWarning, and the
    mask of its non-finite entries.  A state is on the boundary iff the mask
    is not empty: some v_i is 0, or so small that b_i / |v_i| overflows.
    Raises ValueError for a non-finite v_i."""
    with np.errstate(divide="ignore", over="ignore"):
        t = model.b / np.abs(_bare_state(v))
    return t, ~np.isfinite(t)


def fiber_tangent_space(model: AllocationModel, v) -> np.ndarray:
    """Fiber tangent direction at a kinetic state.

    At a regular state the unnormalized direction t_i = b_i / |v_i| (spanning
    ker of the Jacobian); at a boundary state (:func:`_kernel_direction`) the
    unit limiting alignment direction, proportional to c_i on the halted
    axes, which are its support, and 0 elsewhere.
    """
    t, halted = _kernel_direction(model, v)
    if not halted.any():
        return t
    direction = np.where(halted, model.c, 0.0)
    return direction / np.linalg.norm(direction)


def forward_progress(model: AllocationModel, v) -> float:
    """Projection of the parametric fiber tangent onto the central direction.

    Equals sum_i b_i^2 / (2 |v_i| sqrt(|b_i|)); strictly positive at regular
    states, so the fiber never stalls or reverses along c, and +inf at a
    boundary state (:func:`_kernel_direction`).
    """
    t, halted = _kernel_direction(model, v)
    if halted.any():
        return math.inf
    return float(np.sum(np.abs(t) * np.sqrt(np.abs(model.b)))) / 2.0


def asymptotic_diagnostics(model: AllocationModel, w, lam_list) -> list[dict]:
    """Distance to the central fiber and tangent angle to c, per lambda.

    ``lam_list`` must be positive increasing; each entry is evaluated on the
    positive branch and mirrored to the negative one.
    """
    lam_list = np.asarray(lam_list, dtype=float)
    if np.any(lam_list <= 0) or np.any(np.diff(lam_list) <= 0):
        raise ValueError("lam_list must be positive and strictly increasing")
    c_hat = model.c / np.linalg.norm(model.c)
    rows = []
    for lam in lam_list:
        for signed in (lam, -lam):
            p = fiber_point(model, w, signed)
            p0 = fiber_point(model, np.zeros(model.m), signed)
            t = p.tangent / np.linalg.norm(p.tangent)
            cosang = np.clip(abs(float(t @ c_hat)), 0.0, 1.0)
            rows.append({
                "lambda": float(signed),
                "distance": float(np.linalg.norm(p.v - p0.v)),
                "angle": float(np.arccos(cosang)),
            })
    return rows
