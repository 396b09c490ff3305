"""Validated actuation model: matrix, forward map, Jacobian, squared-coordinate transform.

The actuation map is f(v) = A (v .* |v|) with A an m x n matrix, n = m + 1,
full row rank, and a null-space generator b whose components are all nonzero.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRedundancyError,
    RankDeficientError,
    WrongShapeError,
)

#: Relative singular-value cutoff for declaring full row rank.
RANK_RTOL = 1e-10
#: Relative threshold on |b_i| for a degenerate redundancy check.
B_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class AllocationModel:
    """Immutable validated allocation model.

    Attributes
    ----------
    A : (m, n) ndarray
        Allocation matrix, task units per squared kinetic unit.
    A_pinv : (n, m) ndarray
        Moore-Penrose pseudoinverse of ``A``.
    b : (n,) ndarray
        Unit-norm generator of ker(A), sign-normalized so b[0] > 0.
    c : (n,) ndarray
        Central direction, c_i = sign(b_i) * sqrt(|b_i|).
    """

    A: np.ndarray
    A_pinv: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.A.setflags(write=False)
        self.A_pinv.setflags(write=False)
        self.b.setflags(write=False)
        self.c.setflags(write=False)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


def build_model(A) -> AllocationModel:
    """Validate an allocation matrix and derive its null-space structure.

    The null-space generator is taken from the SVD of ``A`` (the right singular
    vector of the zero singular value), which is orthogonal and numerically
    stable; the pseudoinverse comes from the same decomposition.

    Raises
    ------
    WrongShapeError
        If the matrix is not m x (m+1).
    RankDeficientError
        If the smallest retained singular value falls below RANK_RTOL times
        the largest.
    DegenerateRedundancyError
        If any |b_i| <= B_RTOL * max|b| (a structurally critical actuator).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not np.isfinite(A).all():
        raise ValueError("allocation matrix has non-finite entries")
    m, n = A.shape
    if m < 1 or n != m + 1:
        raise WrongShapeError(f"expected m x (m+1) matrix, got {m} x {n}")

    U, s, Vt = np.linalg.svd(A)
    if s[0] == 0.0 or s[m - 1] <= RANK_RTOL * s[0]:
        raise RankDeficientError(
            f"singular values {s}: sigma_m/sigma_1 below {RANK_RTOL:g}"
        )

    b = Vt[m]  # right singular vector spanning ker(A), unit norm, b[0] > 0
    norm = math.sqrt(b @ b)   # np.linalg.norm(b), bit for bit
    b = b / (-norm if b[0] < 0 else norm)

    abs_b = np.abs(b)
    small = abs_b <= B_RTOL * abs_b.max()
    if small.any():
        i = int(np.argmax(small))
        raise DegenerateRedundancyError(i, float(abs_b[i]))

    A_pinv = (Vt[:m].T * (1.0 / s[:m])) @ U.T
    return AllocationModel(A=A.copy(), A_pinv=A_pinv, b=b,
                           c=np.copysign(np.sqrt(abs_b), b))


def load_model(path) -> AllocationModel:
    """Load a model from a JSON file ``{"A": [[...], ...]}``.

    Raises ValueError naming the file for text that is not JSON, JSON nested
    too deeply to read, a document of another shape, ragged rows and an
    entry beyond the float64 range; then as :func:`build_model` does.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data)
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply to read") from exc
    except ValueError as exc:   # JSONDecodeError, or bytes that are not text
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    rows = doc.get("A") if type(doc) is dict else None
    if not (type(rows) is list and rows
            and all(type(r) is list for r in rows)
            and {type(x) for r in rows for x in r} <= {int, float}):
        raise ValueError(f'{path}: expected a JSON object with an "A" matrix, '
                         'a non-empty list of rows of numbers')
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise ValueError(f"{path}: ragged matrix rows (widths {sorted(width)})")
    try:
        A = np.array(rows, dtype=float)
    except OverflowError as exc:   # an integer entry beyond the float64 range
        raise ValueError(f"{path}: an entry of A lies beyond the float64 "
                         f"range ({exc})") from exc
    return build_model(A)


def _task_rows(model: AllocationModel, W) -> np.ndarray:
    """W as a 2-D float array in C order, a task a row (einsum sums a row of a
    C-ordered batch as it sums the row alone); WrongShapeError unless it has
    m columns."""
    W = np.atleast_2d(np.ascontiguousarray(W, dtype=float))
    if W.ndim != 2 or W.shape[1] != model.m:
        raise WrongShapeError(f"tasks have shape {W.shape}, expected (rows, {model.m})")
    return W


def _state(model: AllocationModel, v) -> np.ndarray:
    """v as a float array; WrongShapeError unless it is one state of n components."""
    v = np.asarray(v, dtype=float)
    if v.shape != (model.n,):
        raise WrongShapeError(f"state has shape {v.shape}, expected ({model.n},)")
    return v


def transform(v) -> np.ndarray:
    """Squared-coordinate transform x_i = v_i |v_i| (a global homeomorphism)."""
    v = np.asarray(v, dtype=float)
    return v * np.abs(v)


def untransform(x) -> np.ndarray:
    """Inverse transform v_i = sign(x_i) sqrt(|x_i|)."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.sqrt(np.abs(x))


def actuation(model: AllocationModel, v) -> np.ndarray:
    """Forward map w = A (v .* |v|)."""
    return model.A @ transform(_state(model, v))


def jacobian(model: AllocationModel, v) -> np.ndarray:
    """Jacobian of the forward map, 2 A diag(|v_1|, ..., |v_n|)."""
    return 2.0 * model.A * np.abs(_state(model, v))[np.newaxis, :]
