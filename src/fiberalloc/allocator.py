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
from .potential import SectionPoint, layer_point, layer_section, raise_for_status
from .strata import orthant_masks

#: Relative min|v_i| margin below which a transitional inverse reports hinge proximity.
HINGE_MARGIN = 1e-6
#: Rows the batch inverses solve at once.
SOLVE_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class SectionInverseConfig:
    """Configuration of a section-based right-inverse.

    ``layer`` selects the transverse layer (n and 0 are the extremal orthants,
    the only globally smooth choices); ``C`` selects the leaf.
    """

    layer: int
    C: float = 0.0
    hinge_margin: float = HINGE_MARGIN


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

    The layer-n (positive) or layer-0 (negative) batch section solve; a row
    it cannot solve raises ExtremalSolveError naming the row index and its
    task.
    """
    if branch not in ("positive", "negative"):
        raise ValueError(f"branch must be 'positive' or 'negative', got {branch!r}")
    return _solve_rows(model, W, model.n if branch == "positive" else 0, C)


def _solve_rows(model: AllocationModel, W, layer: int, C: float,
                t=None) -> np.ndarray:
    """States of the task rows W on the layer-``layer`` leaf C.

    Solves SOLVE_CHUNK_ROWS rows at a time (bounding the working memory) with
    :func:`fiberalloc.potential.layer_section`; the first row it cannot solve
    raises its typed error (:func:`fiberalloc.potential.raise_for_status`),
    naming it as a sample with its time ``t[row]`` when ``t`` is given.
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    V = np.empty((W.shape[0], model.n))
    for lo in range(0, W.shape[0], SOLVE_CHUNK_ROWS):
        chunk = W[lo:lo + SOLVE_CHUNK_ROWS]
        V[lo:lo + SOLVE_CHUNK_ROWS], _, status = layer_section(model, chunk, layer, C)
        raise_for_status(model, chunk, layer, status, first_row=lo, t=t)
    return V


def section_inverse(model: AllocationModel, w,
                    config: SectionInverseConfig) -> tuple[SectionPoint, HingeProximity | None]:
    """Right-inverse on the layer-``config.layer`` global section.

    The batch-of-one :func:`fiberalloc.potential.layer_section`.  For
    transitional layers the origin is excluded (the central fiber skips them),
    and results with min|v_i| under the hinge margin carry a HingeProximity
    report naming the two smallest components.
    """
    sp = layer_point(model, w, config.layer, config.C)

    report = None
    if 0 < config.layer < model.n:
        absv = np.abs(sp.v)
        floor = config.hinge_margin * np.max(absv)
        if np.min(absv) < floor:
            order = np.argsort(absv)
            report = HingeProximity(index_pair=(int(order[0]), int(order[1])),
                                    min_abs_v=float(absv[order[0]]))
    return sp, report


def naive_minimum_norm_inverse(model: AllocationModel, w) -> np.ndarray:
    """Baseline allocator: untransform of the minimum-norm transformed solution.

    This is the lambda = 0 fiber point.  It crosses coordinate hyperplanes as
    w varies, with an inverse-square-root derivative blow-up at each crossing.
    """
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    return untransform(model.A_pinv @ w_arr)


def lift_trajectory(model: AllocationModel, t, w_samples, allocator: str,
                    config: SectionInverseConfig | None = None,
                    branch: str = "positive") -> LiftedTrajectory:
    """Lift a sampled task trajectory through one allocator, per sample.

    ``allocator`` is one of 'extremal', 'section', or 'naive'; ``w_samples``
    holds one task row per time stamp.  Section errors name the failing
    sample and its time, extremal ones the sample.  An extremal lift that
    leaves its orthant raises ConfinementError.
    """
    t = np.asarray(t, dtype=float)
    w_samples = np.atleast_2d(np.asarray(w_samples, dtype=float))
    if w_samples.shape != (t.shape[0], model.m):
        raise WrongShapeError(f"w_samples has shape {w_samples.shape}, t has "
                              f"shape {t.shape}: expected {(t.shape[0], model.m)}")
    if np.any(np.diff(t) <= 0):
        raise ValueError("time stamps must be strictly increasing")
    if config is None:
        config = SectionInverseConfig(layer=model.n)

    if allocator == "extremal":
        vs = extremal_inverse_batch(model, w_samples, config.C, branch=branch)
    elif allocator == "naive":
        vs = untransform(w_samples @ model.A_pinv.T)
    elif allocator == "section":
        vs = _solve_rows(model, w_samples, config.layer, config.C, t=t)
    else:
        raise ValueError(f"unknown allocator {allocator!r}")

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
                     branch: str = "positive") -> list[dict]:
    """Difference quotients of an allocator along a task direction.

    For the extremal allocator the quotients settle to a finite limit
    everywhere (including w0 = 0); the naive baseline's diverge like
    h^(-1/2) at hyperplane-crossing tasks.
    """
    w0 = np.atleast_1d(np.asarray(w0, dtype=float))
    d = np.atleast_1d(np.asarray(direction, dtype=float))
    d = d / np.linalg.norm(d)

    def solve(w):
        if allocator == "extremal":
            return extremal_inverse(model, w, C, branch=branch)
        if allocator == "naive":
            return naive_minimum_norm_inverse(model, w)
        raise ValueError(f"unknown allocator {allocator!r}")

    v0 = solve(w0)
    rows = []
    for h in scales:
        vh = solve(w0 + h * d)
        rows.append({"h": float(h),
                     "quotient": float(np.linalg.norm(vh - v0) / h)})
    return rows
