"""Output checker for the benchmark, independent of the code under test.

It derives the null-space generator b from A with its own SVD and evaluates the
potential in log form, Phi(v) = sum_i b_i sign(v_i) ln|v_i|, so a component far
below any absolute "halted" threshold is still scored by its true value.  It
imports nothing from fiberalloc.

The tolerances are written down here once.  They are the CLI's own self-check
level (1e-8), and they are not widened to let a known defect pass.
"""
from __future__ import annotations

import numpy as np

#: |Phi(v) - C| <= PHI_RTOL * (1 + |C|)
PHI_RTOL = 1e-8
#: ||f(v) - w|| <= TASK_RTOL * ||A||_2 * ||v||^2, the residual scale of the map.
TASK_RTOL = 1e-8


class Model:
    """Allocation matrix plus the checker's own derived quantities."""

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)
        m, n = self.A.shape
        if n != m + 1:
            raise ValueError(f"expected an m x (m+1) matrix, got {m} x {n}")
        _, s, vt = np.linalg.svd(self.A)
        b = vt[m]
        # the library's convention: unit norm, b[0] > 0; Phi is defined with it
        self.b = b / np.linalg.norm(b) * np.sign(b[0])
        self.norm_A = float(s[0])
        self.m, self.n = m, n

    def actuation(self, V) -> np.ndarray:
        V = np.asarray(V, dtype=float)
        return (V * np.abs(V)) @ self.A.T

    def log_potential(self, V) -> np.ndarray:
        """Phi per row; NaN for a row with a zero component (on a hyperplane)."""
        V = np.atleast_2d(np.asarray(V, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = np.sum(self.b * np.sign(V) * np.log(np.abs(V)), axis=1)
        phi[np.any(V == 0.0, axis=1)] = np.nan
        return phi


def check_states(model: Model, V, W, C, *, branch: int | None = None,
                 layer: int | None = None) -> np.ndarray:
    """Boolean mask of the rows of ``V`` that solve their request.

    Row k passes when it is finite, lies on the leaf C (scalar or per row),
    maps to task W[k], and has the requested signs: ``branch`` +1 / -1 asks
    for sign(v) = +/- sign(b) (an extremal orthant), ``layer`` asks for exactly
    that many i with sign(v_i) b_i > 0 (a transitional layer).
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    W = np.atleast_2d(np.asarray(W, dtype=float))
    C = np.broadcast_to(np.asarray(C, dtype=float), (V.shape[0],))
    if V.shape != (W.shape[0], model.n) or W.shape[1] != model.m:
        return np.zeros(V.shape[0], dtype=bool)
    ok = np.all(np.isfinite(V), axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        phi_err = np.abs(model.log_potential(V) - C)
        ok &= phi_err <= PHI_RTOL * (1.0 + np.abs(C))
        task_err = np.linalg.norm(model.actuation(V) - W, axis=1)
        ok &= task_err <= TASK_RTOL * model.norm_A * np.sum(V * V, axis=1)
    entered = np.sign(V) * np.sign(model.b) > 0
    if branch is not None:
        want = np.full(model.n, branch > 0)
        ok &= np.all(entered == want, axis=1)
    if layer is not None:
        ok &= np.sum(entered, axis=1) == layer
    return ok
