"""Constant-task fibers: parameterization, tangents, crossings, orthant traversal.

In transformed coordinates a fiber is the affine line x(lambda) = z + lambda*b
with z = A_pinv w, so each component crosses zero exactly once at
lambda_i = -z_i / b_i.  Mapping back through the square-root transform gives
the curve traced in the native kinetic space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EPS_ZERO, AllocationModel, untransform
from .strata import OrthantSignature, classify_orthant

#: A crossing's relative noise bound, 32 times its rounding bound (see crossings).
CROSSING_RTOL = 32 * np.finfo(float).eps


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class FiberTrace:
    """Crossing structure and orthant itinerary of one fiber.

    ``crossings`` lists all n (lambda_i, i) pairs sorted by lambda;
    ``distinct_crossings`` groups the coincident ones (see crossings), so the
    fiber has ``len(distinct_crossings) + 1`` open segments.  Segment k lies
    in the orthant ``orthant_sequence[k]``.
    """

    w: np.ndarray
    z: np.ndarray
    crossings: tuple[tuple[float, int], ...]
    distinct_crossings: tuple[tuple[float, tuple[int, ...]], ...]
    orthant_sequence: tuple[OrthantSignature, ...]
    generic: bool
    skipped_orthants: int


def crossings(model: AllocationModel, W) -> tuple[np.ndarray, np.ndarray]:
    """Per task row of W, the crossings lambda*_i = -(A_pinv w)_i / b_i and
    their noise bound CROSSING_RTOL * m * (|A_pinv| |w|)_i / |b_i|, a row's
    bit-identical in every batch.  A component is on its hyperplane within
    its crossing's bound; two crossings coincide within the sum of theirs."""
    lam_star = -_rowwise_matvec(W, model.A_pinv) / model.b
    noise = (CROSSING_RTOL * W.shape[1]
             * _rowwise_matvec(np.abs(W), np.abs(model.A_pinv)) / np.abs(model.b))
    return lam_star, noise


def on_hyperplane(model: AllocationModel, w: np.ndarray, lam: float) -> np.ndarray:
    """Mask of the components of gamma(w, lambda) on their hyperplane: those
    whose crossing lies within its noise bound of lambda."""
    (lam_star,), (noise,) = crossings(model, w[None, :])
    return np.abs(lam - lam_star) <= noise


def _rowwise_matvec(W: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Rows of W @ M.T summed in a fixed order, so that a row's result is
    bit-identical in every batch (a batch of one included)."""
    out = W[:, :1] * M[:, 0]
    for j in range(1, W.shape[1]):
        out += W[:, j:j + 1] * M[:, j]
    return out


def fiber_point(model: AllocationModel, w, lam: float) -> FiberPoint:
    """Evaluate gamma(w, lambda) and its parametric tangent; components on
    their hyperplane (:func:`on_hyperplane`) are snapped to 0 and divergent."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    x = model.A_pinv @ w + lam * model.b
    div = on_hyperplane(model, w, lam)
    v = np.where(div, 0.0, untransform(x))
    tangent = np.empty(model.n)
    tangent[~div] = model.b[~div] / (2.0 * np.sqrt(np.abs(x[~div])))
    tangent[div] = model.c[div]  # limiting direction; magnitude diverges
    return FiberPoint(v=v, lam=float(lam), tangent=tangent,
                      divergent_indices=frozenset(np.nonzero(div)[0].tolist()))


def crossing_parameters(model: AllocationModel, w) -> FiberTrace:
    """Sorted hyperplane crossings and the traversed orthant sequence.

    Adjacent crossings merge into one multi-index crossing when their gap is
    within the sum of their noise bounds (:func:`crossings`).  That is the
    test by which :func:`fiberalloc.potential.layer_section` refuses the layer
    between them, so each segment of the trace lies on a layer the solver
    solves.  The trace is generic when no merge occurs.  The orthant sequence
    starts at -sign(b) and flips the signs of each merged group in turn.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    z = model.A_pinv @ w
    (lam_star,), (noise,) = crossings(model, w[None, :])
    order = np.argsort(lam_star)
    groups = [(float(lam_star[order[0]]), [int(order[0])])]
    for i, j in zip(order[:-1], order[1:]):
        if lam_star[j] - lam_star[i] <= noise[i] + noise[j]:
            groups[-1][1].append(int(j))
        else:
            groups.append((float(lam_star[j]), [int(j)]))
    distinct = tuple((lam, tuple(idx)) for lam, idx in groups)

    sigma = -np.sign(model.b).astype(int)
    seq = [classify_orthant(model, sigma)]
    for _, idx in distinct:
        sigma[list(idx)] *= -1
        seq.append(classify_orthant(model, sigma))
    return FiberTrace(
        w=w, z=z, crossings=tuple((float(lam_star[i]), int(i)) for i in order),
        distinct_crossings=distinct, orthant_sequence=tuple(seq),
        generic=len(distinct) == model.n,
        skipped_orthants=model.n + 1 - len(seq))


def fiber_tangent_space(model: AllocationModel, v):
    """Fiber tangent direction at a kinetic state.

    At a regular state returns the unnormalized direction t_i = b_i / |v_i|
    (spanning ker of the Jacobian).  At a boundary state returns
    ``(degenerate_indices, limit_direction)``: the halted-axis index set and
    the limiting alignment direction, supported on those axes with components
    proportional to c_i.
    """
    v = np.asarray(v, dtype=float)
    halted = np.abs(v) <= EPS_ZERO
    if not halted.any():
        return model.b / np.abs(v)
    direction = np.where(halted, model.c, 0.0)
    direction = direction / np.linalg.norm(direction)
    return frozenset(np.nonzero(halted)[0].tolist()), direction


def forward_progress(model: AllocationModel, v) -> float:
    """Projection of the parametric fiber tangent onto the central direction.

    Equals sum_i b_i^2 / (2 |v_i| sqrt(|b_i|)); strictly positive at regular
    states, so the fiber never stalls or reverses along c.
    """
    v = np.asarray(v, dtype=float)
    return float(np.sum(model.b ** 2 / (2.0 * np.abs(v) * np.sqrt(np.abs(model.b)))))


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
