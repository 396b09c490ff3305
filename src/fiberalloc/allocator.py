"""Orthant-confined right-inverses of the actuation map and trajectory lifting.

The extremal inverse picks, for every task w, the unique point of the fiber of
w lying on a fixed potential leaf inside an extremal orthant.  Because those
leaves never touch the coordinate hyperplanes, the resulting allocator is
globally smooth, including through w = 0 where the naive minimum-norm lift has
a square-root cusp.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfinementError, WrongShapeError
from .model import AllocationModel, untransform
from .potential import SectionPoint, layer_point, solve_rows
from .strata import extremal_signature, orthant_masks

#: Relative min|v_i| margin below which a transitional inverse reports hinge proximity.
HINGE_MARGIN = 1e-6


@dataclass(frozen=True)
class HingeProximity:
    """Flag attached to a transitional inverse result near a hinge."""

    index_pair: tuple[int, int]
    min_abs_v: float


@dataclass(frozen=True)
class LiftedTrajectory:
    """Per-sample lift of a task trajectory through one allocator."""

    allocator: str
    t: np.ndarray
    w: np.ndarray          # (N, m)
    v: np.ndarray          # (N, n)
    speed: np.ndarray      # (N,) finite-difference ||dv/dt||, first entry 0
    min_abs_v: np.ndarray  # (N,)
    masks: np.ndarray      # (N,) strata.orthant_masks of v: bit i set when v_i > 0

    @property
    def max_speed(self) -> float:
        return float(np.max(self.speed))

    @property
    def signature_changes(self) -> int:
        return int(np.count_nonzero(np.diff(self.masks)))


def extremal_inverse(model: AllocationModel, w, C: float = 0.0,
                     branch: str = "positive") -> np.ndarray:
    """Singularity-free right-inverse on an extremal leaf.

    Returns the unique v with actuation(v) = w, Phi(v) = C and sign(v) =
    +/- sign(b) strictly, for every finite w including 0 wherever that v is
    representable in float64: the batch-of-one :func:`extremal_inverse_batch`.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    return extremal_inverse_batch(model, w[None, :], C, branch)[0]


def extremal_inverse_batch(model: AllocationModel, W, C: float = 0.0,
                           branch: str = "positive") -> np.ndarray:
    """Extremal inverse for a batch of tasks (one row per task).

    The :func:`fiberalloc.potential.solve_rows` of the layer-n (positive) or
    layer-0 (negative) leaf C; a row it cannot solve raises
    ExtremalSolveError naming the row index and its task.
    """
    return solve_rows(model, W, extremal_signature(model, branch).layer, C)[0]


def section_inverse(model: AllocationModel, w, layer: int,
                    C: float = 0.0) -> tuple[SectionPoint, HingeProximity | None]:
    """Right-inverse on the layer-``layer`` global section, leaf C.

    The batch-of-one :func:`fiberalloc.potential.solve_rows`.  Layers n and 0
    are the extremal orthants, the only globally smooth choices.  For
    transitional layers the origin is excluded (the central fiber skips them),
    and results with min|v_i| under HINGE_MARGIN * max|v_i| carry a
    HingeProximity report naming the two smallest components.
    """
    sp = layer_point(model, w, layer, C)
    absv = np.abs(sp.v)
    if 0 < layer < model.n and np.min(absv) < HINGE_MARGIN * np.max(absv):
        order = np.argsort(absv)
        return sp, HingeProximity(index_pair=(int(order[0]), int(order[1])),
                                  min_abs_v=float(absv[order[0]]))
    return sp, None


def naive_minimum_norm_inverse(model: AllocationModel, w) -> np.ndarray:
    """Baseline allocator: untransform of the minimum-norm transformed solution.

    This is the lambda = 0 fiber point, of one task or of each task row of w.
    It crosses coordinate hyperplanes as w varies, with an
    inverse-square-root derivative blow-up at each crossing.
    """
    return untransform(np.atleast_1d(np.asarray(w, dtype=float)) @ model.A_pinv.T)


def _allocate(model: AllocationModel, W: np.ndarray, allocator: str,
              layer: int | None, C: float, t=None) -> np.ndarray:
    """States of the task rows W under ``allocator``, as lift_trajectory
    says; a solve error names row k as a sample at ``t[k]`` given ``t``."""
    if allocator == "naive":
        if layer is not None or C != 0.0:
            raise ValueError("the naive allocator takes no layer and no C")
        return naive_minimum_norm_inverse(model, W)
    if allocator not in ("extremal", "section"):
        raise ValueError(f"unknown allocator {allocator!r}")
    layer = model.n if layer is None else layer
    if allocator == "extremal" and layer not in (0, model.n):
        raise ValueError(f"the extremal allocator solves on layer 0 or "
                         f"{model.n}, not on layer {layer}")
    return solve_rows(model, W, layer, C, t=t)[0]


def lift_trajectory(model: AllocationModel, t, w_samples, allocator: str,
                    layer: int | None = None, C: float = 0.0) -> LiftedTrajectory:
    """Lift a sampled task trajectory through one allocator, per sample.

    ``allocator`` is one of 'extremal', 'section', or 'naive'; ``w_samples``
    holds one task row per time stamp.  'extremal' and 'section' solve on the
    leaf C of layer ``layer`` (n when None), 'extremal' on layer 0 or n only
    (ValueError otherwise), and an error names the sample and its time.
    'naive' takes neither a layer nor a nonzero C (ValueError).  An extremal
    lift that leaves its orthant raises ConfinementError.
    """
    t = np.asarray(t, dtype=float)
    w_samples = np.atleast_2d(np.asarray(w_samples, dtype=float))
    if w_samples.shape != (t.shape[0], model.m):
        raise WrongShapeError(f"w_samples has shape {w_samples.shape}, t has "
                              f"shape {t.shape}: expected {(t.shape[0], model.m)}")
    if np.any(np.diff(t) <= 0):
        raise ValueError("time stamps must be strictly increasing")
    vs = _allocate(model, w_samples, allocator, layer, C, t=t)

    speed = np.zeros(t.shape[0])
    speed[1:] = np.linalg.norm(np.diff(vs, axis=0), axis=1) / np.diff(t)
    masks = orthant_masks(vs)
    changed = np.flatnonzero(np.diff(masks))
    if allocator == "extremal" and changed.size:
        raise ConfinementError(int(changed[0]) + 1)
    return LiftedTrajectory(
        allocator=allocator, t=t, w=w_samples, v=vs, speed=speed,
        min_abs_v=np.min(np.abs(vs), axis=1), masks=masks)


def smoothness_probe(model: AllocationModel, w0, direction, C: float,
                     scales, allocator: str = "extremal",
                     layer: int | None = None) -> list[dict]:
    """Difference quotients |v(w0 + h d) - v(w0)| / h of an allocator along a
    unit task direction d, one per scale h.

    ``allocator``, ``layer`` and ``C`` are as in :func:`lift_trajectory`, and
    w0 and every w0 + h d are solved in one batch.  For the extremal
    allocator the quotients settle to a finite limit everywhere (including
    w0 = 0); the naive baseline's diverge like h^(-1/2) at
    hyperplane-crossing tasks.
    """
    w0 = np.atleast_1d(np.asarray(w0, dtype=float))
    d = np.atleast_1d(np.asarray(direction, dtype=float))
    d = d / np.linalg.norm(d)
    scales = np.asarray(scales, dtype=float)
    V = _allocate(model, np.vstack([w0, w0 + np.outer(scales, d)]), allocator,
                  layer, C)
    return [{"h": float(h), "quotient": float(np.linalg.norm(v - V[0]) / h)}
            for h, v in zip(scales, V[1:])]
