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

#: Crossings closer than this (relative to the crossing spread) are merged.
EPS_GAP = 1e-9


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
    ``distinct_crossings`` groups them after merging coincidences, so the
    fiber has ``len(distinct_crossings) + 1`` open segments.  Segment k of a
    generic trace lies in the layer-k orthant of ``orthant_sequence``.
    """

    w: np.ndarray
    z: np.ndarray
    crossings: tuple[tuple[float, int], ...]
    distinct_crossings: tuple[tuple[float, tuple[int, ...]], ...]
    orthant_sequence: tuple[OrthantSignature, ...]
    generic: bool
    skipped_orthants: int


def fiber_point(model: AllocationModel, w, lam: float) -> FiberPoint:
    """Evaluate gamma(w, lambda) and its parametric tangent."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    z = model.A_pinv @ w
    x = z + lam * model.b
    absx = np.abs(x)
    div = absx <= EPS_ZERO
    v = np.where(div, 0.0, untransform(x))  # snap on-crossing components exactly
    tangent = np.empty(model.n)
    tangent[~div] = model.b[~div] / (2.0 * np.sqrt(absx[~div]))
    tangent[div] = model.c[div]  # limiting direction; magnitude diverges
    return FiberPoint(v=v, lam=float(lam), tangent=tangent,
                      divergent_indices=frozenset(np.nonzero(div)[0].tolist()))


def crossing_parameters(model: AllocationModel, w) -> FiberTrace:
    """Sorted hyperplane crossings and the traversed orthant sequence.

    Crossings within ``EPS_GAP * (spread + 1)`` of each other are merged into
    one multi-index crossing; the trace is generic when no merge occurs.
    Signatures are read off at interval midpoints (end intervals one unit past
    the outermost crossing) so no sign is ever evaluated on a boundary.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    z = model.A_pinv @ w
    lam_star = -z / model.b
    order = np.argsort(lam_star)
    crossings = tuple((float(lam_star[i]), int(i)) for i in order)

    spread = float(lam_star[order[-1]] - lam_star[order[0]])
    tol = EPS_GAP * (spread + 1.0)
    groups: list[tuple[float, list[int]]] = []
    for lam, i in crossings:
        if groups and lam - groups[-1][0] <= tol:
            groups[-1][1].append(i)
        else:
            groups.append((lam, [i]))
    distinct = tuple((lam, tuple(idx)) for lam, idx in groups)
    generic = len(distinct) == model.n

    probes = [distinct[0][0] - 1.0]
    probes += [0.5 * (distinct[k][0] + distinct[k + 1][0])
               for k in range(len(distinct) - 1)]
    probes.append(distinct[-1][0] + 1.0)
    seq = []
    for lam in probes:
        x = z + lam * model.b
        seq.append(classify_orthant(model, np.where(x > 0, 1, -1)))
    return FiberTrace(
        w=w, z=z, crossings=crossings, distinct_crossings=distinct,
        orthant_sequence=tuple(seq), generic=generic,
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
