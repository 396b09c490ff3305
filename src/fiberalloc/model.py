"""Validated actuation model: matrix, forward map, Jacobian, squared-coordinate transform.

The actuation map is f(v) = A (v .* |v|) with A an m x n matrix, n = m + 1,
full row rank, and a null-space generator b whose components are all nonzero.
"""
from __future__ import annotations

import json
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
#: Absolute threshold below which a state component counts as halted.
EPS_ZERO = 1e-12


@dataclass(frozen=True)
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
    if not np.all(np.isfinite(A)):
        raise ValueError("allocation matrix has non-finite entries")
    m, n = A.shape
    if m < 1 or n != m + 1:
        raise WrongShapeError(f"expected m x (m+1) matrix, got {m} x {n}")

    U, s, Vt = np.linalg.svd(A)
    if s[0] == 0.0 or s[m - 1] <= RANK_RTOL * s[0]:
        raise RankDeficientError(
            f"singular values {s}: sigma_m/sigma_1 below {RANK_RTOL:g}"
        )

    b = Vt[m]  # right singular vector spanning ker(A)
    if b[0] < 0:
        b = -b
    b = b / np.linalg.norm(b)

    small = np.abs(b) <= B_RTOL * np.max(np.abs(b))
    if np.any(small):
        i = int(np.argmax(small))
        raise DegenerateRedundancyError(i, float(abs(b[i])))

    A_pinv = Vt[:m].T @ np.diag(1.0 / s[:m]) @ U.T
    c = np.sign(b) * np.sqrt(np.abs(b))
    return AllocationModel(A=A.copy(), A_pinv=A_pinv, b=b.copy(), c=c)


def load_model(path) -> AllocationModel:
    """Load a model from a JSON file ``{"A": [[...], ...]}``."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "A" not in doc:
        raise ValueError(f'{path}: expected a JSON object with an "A" matrix')
    rows = doc["A"]
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise ValueError(f"{path}: ragged matrix rows (widths {sorted(width)})")
    return build_model(np.array(rows, dtype=float))


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
    v = np.asarray(v, dtype=float)
    return model.A @ transform(v)


def jacobian(model: AllocationModel, v) -> np.ndarray:
    """Jacobian of the forward map, 2 A diag(|v_1|, ..., |v_n|)."""
    v = np.asarray(v, dtype=float)
    return 2.0 * model.A * np.abs(v)[np.newaxis, :]
