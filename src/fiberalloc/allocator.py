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

from .errors import ConfinementError, NaiveSolveError, WrongShapeError
from .fibers import _rowwise_matvec
from .model import AllocationModel, _task_rows, untransform
from .section import SectionPoint, layer_point, solve_rows
from .strata import extremal_signature, orthant_masks

#: Relative min|v_i| margin below which a transitional inverse reports hinge proximity.
HINGE_MARGIN = 1e-6


@dataclass(frozen=True)
class HingeProximity:
    """Flag attached to a transitional inverse result near a hinge."""

    index_pair: tuple[int, int]
    min_abs_v: float


@dataclass(frozen=True, eq=False)
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

    The :func:`fiberalloc.section.solve_rows` of the layer-n (positive) or
    layer-0 (negative) leaf C; a row it cannot solve raises
    ExtremalSolveError naming the row index and its task.
    """
    return solve_rows(model, W, extremal_signature(model, branch).layer, C)[0]


def section_inverse(model: AllocationModel, w, layer: int,
                    C: float = 0.0) -> tuple[SectionPoint, HingeProximity | None]:
    """Right-inverse on the layer-``layer`` global section, leaf C.

    The batch-of-one :func:`fiberalloc.section.solve_rows`.  Layers n and 0
    are the extremal orthants, the only globally smooth choices.  For
    transitional layers the origin is excluded (the central fiber skips them),
    and results with min|v_i| under HINGE_MARGIN * max|v_i| carry a
    HingeProximity report naming the two smallest components.
    """
    sp = layer_point(model, w, layer, C)
    if 0 < layer < model.n:
        absv = np.abs(sp.v)
        if absv.min() < HINGE_MARGIN * absv.max():
            order = np.argsort(absv)
            return sp, HingeProximity(index_pair=(int(order[0]), int(order[1])),
                                      min_abs_v=float(absv[order[0]]))
    return sp, None


def naive_minimum_norm_inverse(model: AllocationModel, w) -> np.ndarray:
    """Baseline allocator: untransform of the minimum-norm transformed solution.

    This is the lambda = 0 fiber point, of one task or of each task row of w.
    It crosses coordinate hyperplanes as w varies, with an
    inverse-square-root derivative blow-up at each crossing.  Each row is
    summed on its own (fibers._rowwise_matvec), so it is bit-identical in
    every batch, as the section solver's rows are.  A task of other than m
    components is a WrongShapeError.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    W = _task_rows(model, np.ascontiguousarray(np.atleast_2d(w)))
    return untransform(_rowwise_matvec(W, model.A_pinv)).reshape(
        w.shape[:-1] + (model.n,))


def _allocate(model: AllocationModel, W: np.ndarray, allocator: str,
              layer: int | None, C: float, t=None,
              first_row: int = 0) -> np.ndarray:
    """States of the task rows W under ``allocator``, as lift_trajectory
    says; a solve error names row k as sample ``first_row`` + k at ``t[k]``
    given ``t``."""
    if allocator == "naive":
        if layer is not None or C != 0.0:
            raise ValueError("the naive allocator takes no layer and no C")
        bad = np.flatnonzero(~np.isfinite(W).all(axis=1))
        if bad.size:
            k = int(bad[0])
            raise NaiveSolveError(first_row + k, W[k], "the task is not finite",
                                  t=None if t is None else float(t[k]))
        return naive_minimum_norm_inverse(model, W)
    if allocator not in ("extremal", "section"):
        raise ValueError(f"unknown allocator {allocator!r}")
    layer = model.n if layer is None else layer
    if allocator == "extremal" and layer not in (0, model.n):
        raise ValueError(f"the extremal allocator solves on layer 0 or "
                         f"{model.n}, not on layer {layer}")
    return solve_rows(model, W, layer, C, t=t, first_row=first_row)[0]


def lift_block(model: AllocationModel, t, w_samples, allocator: str,
               layer: int | None = None, C: float = 0.0, first_row: int = 0,
               before=None):
    """The lift of :func:`lift_trajectory` for the consecutive samples
    ``first_row``, ``first_row + 1``, ... of a trajectory, as arrays ``(v,
    speed, min_abs_v, masks)``.

    ``before`` is ``(t, v)`` of sample ``first_row - 1``, which gives the
    first sample its time step, speed and change of orthant; None for the
    trajectory's first sample, whose speed is 0.  The lift of a trajectory in
    consecutive blocks is that of the whole, bit for bit: the solvers solve a
    row alike in every batch, and speed is elementwise.  Errors are those of
    lift_trajectory, in its order, and name a sample by its index in the
    trajectory.
    """
    t = np.asarray(t, dtype=float)
    w_samples = np.atleast_2d(np.asarray(w_samples, dtype=float))
    if w_samples.shape != (t.shape[0], model.m):
        raise WrongShapeError(f"w_samples has shape {w_samples.shape}, t has "
                              f"shape {t.shape}: expected {(t.shape[0], model.m)}")
    # the time stamps and, once solved, the states padded with ``before``
    pad = 0 if before is None else 1
    tp = t if before is None else np.r_[before[0], t]
    ok = np.isfinite(tp)
    ok[1:] &= tp[1:] > tp[:-1]
    bad = np.flatnonzero(~ok[pad:])
    if bad.size:
        raise ValueError("time stamps must be finite and strictly increasing: "
                         f"sample {first_row + bad[0]} has t = {t[bad[0]]:g}")
    vs = _allocate(model, w_samples, allocator, layer, C, t=t,
                   first_row=first_row)
    vp = vs if before is None else np.vstack([before[1], vs])

    # ||dv|| and min|v_i| column by column: numpy reduces along a short row
    # axis several times slower
    speed, min_abs_v = np.zeros(tp.shape[0]), np.abs(vs[:, 0])
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        for v in vp.T:
            dv = np.diff(v)
            speed[1:] += dv * dv
        speed[1:] = np.sqrt(speed[1:]) / np.diff(tp)
    for v in vs.T:
        np.minimum(min_abs_v, np.abs(v), out=min_abs_v)
    bad = np.flatnonzero(~np.isfinite(speed[pad:]))
    if bad.size:
        raise ValueError(f"the speed |dv|/dt of sample {first_row + bad[0]} "
                         f"(t = {t[bad[0]]:g}) is not finite: "
                         f"{speed[pad + bad[0]]:g}")
    masks = orthant_masks(vp)
    changed = np.flatnonzero(np.diff(masks))
    if allocator == "extremal" and changed.size:
        raise ConfinementError(first_row - pad + int(changed[0]) + 1)
    return vs, speed[pad:], min_abs_v, masks[pad:]


def lift_trajectory(model: AllocationModel, t, w_samples, allocator: str,
                    layer: int | None = None, C: float = 0.0) -> LiftedTrajectory:
    """Lift a sampled task trajectory through one allocator, per sample.

    ``allocator`` is one of 'extremal', 'section', or 'naive'; ``w_samples``
    holds one task row per time stamp, and ``t`` must be finite and strictly
    increasing (ValueError naming the first sample that is not).  'extremal'
    and 'section' solve on the leaf C of layer ``layer`` (n when None),
    'extremal' on layer 0 or n only (ValueError otherwise), and an error names
    the sample and its time.  'naive' takes neither a layer nor a nonzero C
    (ValueError), and a task that is not finite raises NaiveSolveError naming
    the sample and its time.  A sample whose speed is not finite, as when its
    time step is so small that the quotient overflows, is a ValueError naming
    it and its time.  An extremal lift that leaves its orthant raises
    ConfinementError.  The first error met is raised, in this order: a bad
    time stamp, the first sample that cannot be solved, the first speed that
    is not finite, then the first orthant change.  The lift of a trajectory
    in blocks is :func:`lift_block`; the CLI's ``lift`` reads and lifts
    blocks of ``cli.BLOCK_ROWS`` samples, and raises the first error of
    its first bad block, a row that does not parse first.
    """
    t = np.asarray(t, dtype=float)
    w_samples = np.atleast_2d(np.asarray(w_samples, dtype=float))
    vs, speed, min_abs_v, masks = lift_block(model, t, w_samples, allocator,
                                             layer, C)
    return LiftedTrajectory(
        allocator=allocator, t=t, w=w_samples, v=vs, speed=speed,
        min_abs_v=min_abs_v, masks=masks)


def smoothness_probe(model: AllocationModel, w0, direction, C: float,
                     scales, allocator: str = "extremal",
                     layer: int | None = None) -> list[dict]:
    """Difference quotients |v(w0 + h d) - v(w0)| / h of an allocator along a
    unit task direction d, ``direction`` over its norm, one per finite scale
    h > 0.  A scale that is not, or a direction whose norm is zero or not
    finite in float64, is a ValueError; a w0 or direction of other than m
    components is a WrongShapeError.

    ``allocator``, ``layer`` and ``C`` are as in :func:`lift_trajectory`, and
    w0 and every w0 + h d are solved in one batch.  For the extremal
    allocator the quotients settle to a finite limit everywhere (including
    w0 = 0); the naive baseline's diverge like h^(-1/2) at
    hyperplane-crossing tasks.
    """
    w0 = np.atleast_1d(np.asarray(w0, dtype=float))
    d = np.atleast_1d(np.asarray(direction, dtype=float))
    for x in (w0, d):   # not broadcast against each other or the model
        _task_rows(model, x[None, :])
    with np.errstate(over="ignore"):   # an overflow is refused below
        norm = np.linalg.norm(d)
    if not 0 < norm < np.inf:
        raise ValueError(f"direction must have a finite nonzero norm, got {d}")
    d = d / norm
    scales = np.asarray(scales, dtype=float)
    if not np.all((scales > 0) & np.isfinite(scales)):
        raise ValueError(f"scales must be finite and positive, got {scales}")
    V = _allocate(model, np.vstack([w0, w0 + np.outer(scales, d)]), allocator,
                  layer, C)
    return [{"h": float(h), "quotient": float(np.linalg.norm(v - V[0]) / h)}
            for h, v in zip(scales, V[1:])]
