"""Logarithmic potential, its gradient and the fiber-restricted potential.

The potential Phi(v) = sum_i b_i sign(v_i) ln|v_i| is constant on the leaves
of the foliation orthogonal to the fibers, -inf where a v_i is 0.  On a fiber
with u_i = b_i (lambda - lambda*_i), it is strictly increasing on every open
segment between crossings, from -inf to +inf, so each segment meets each leaf
once, at the point :mod:`fiberalloc.section` solves for.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryStateError, CrossingStateError, NonGenericSegmentError
from .fibers import (FiberTrace, _bare_state, _bare_task, _kernel_direction,
                     _on_fiber, crossing_parameters)
from .model import AllocationModel, _state
from .section import SectionPoint, layer_point


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
    v_i = 0.  Raises WrongShapeError for a v that is not one state (n
    components), ValueError for a non-finite component."""
    return _phi(model.b, _bare_state(_state(model, v)))


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
    u, _ = _on_fiber(model, _bare_task(w), lam)
    phi = _phi(model.b, u)
    return PotentialValue(0.5 * phi.value, phi.boundary_indices)


def potential_slope(model: AllocationModel, w, lam: float) -> float:
    """d C_w / d lambda = sum b_i^2 / (2 v_i^2); strictly positive."""
    u, on = _on_fiber(model, _bare_task(w), lam)
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
    toward the crossing would otherwise be unobservable.  ``crossing_index``
    indexes the trace's k distinct crossings, 0 through k - 1 (ValueError
    otherwise).
    """
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    k = len(trace.distinct_crossings)
    if not 0 <= crossing_index < k:
        raise ValueError(f"crossing {crossing_index} out of range: fiber has "
                         f"{k} distinct crossings")
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


def section_intersection(model: AllocationModel, w, segment: int,
                         C: float) -> SectionPoint:
    """Solve C_w(lambda) = C on one open fiber segment.

    ``segment`` indexes the sorted open intervals between the distinct
    crossings of w's fiber, 0 through k (k = number of distinct crossings).
    Segment l lies in the layer given by the number of crossings below it, l
    for a generic fiber, and every segment admits every real C.  The solve is
    :func:`fiberalloc.section.layer_point` on that layer.
    """
    trace = crossing_parameters(model, w)
    segments = len(trace.distinct_crossings) + 1
    if not 0 <= segment < segments:
        raise NonGenericSegmentError(
            f"segment {segment} out of range: fiber has {segments} segments "
            f"({trace.skipped_orthants} orthants skipped by merged crossings)")
    layer = sum(len(idx) for _, idx in trace.distinct_crossings[:segment])
    return layer_point(model, trace.w, layer, C)
