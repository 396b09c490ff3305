import numpy as np
import pytest

from fiberalloc import build_model


@pytest.fixture
def m2():
    """n=2 symmetric demo model."""
    return build_model([[1.0, 1.0]])


@pytest.fixture
def m2a():
    """n=2 asymmetric demo model."""
    return build_model([[1.0, 2.0]])


@pytest.fixture
def m3():
    """n=3 standard demo model."""
    return build_model([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])


@pytest.fixture
def m3bal():
    """n=3 model with |b_i| all equal (balanced hinge pairs)."""
    return build_model([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])


#: Draws random_model makes before it gives up.
RANDOM_MODEL_TRIES = 100


def random_model(rng, n, min_b=0.05):
    """Random valid model of kinetic dimension n with a well-separated b.

    Rejects draws whose null-space generator has a component below ``min_b``
    so downstream solves stay well-conditioned across the whole suite.  Raises
    ValueError after RANDOM_MODEL_TRIES rejected draws: wide models (n of
    about 40 and more at min_b = 0.05) almost never qualify.
    """
    from fiberalloc.errors import FiberAllocError

    for _ in range(RANDOM_MODEL_TRIES):
        A = rng.normal(size=(n - 1, n))
        try:
            model = build_model(A)
        except FiberAllocError:
            continue
        if np.min(np.abs(model.b)) >= min_b:
            return model
    raise ValueError(f"no model with n = {n} and min |b_i| >= min_b = {min_b} "
                     f"in {RANDOM_MODEL_TRIES} draws")


def model_with_b(b):
    """Model whose null-space generator is (up to sign) the given vector."""
    b = np.asarray(b, dtype=float)
    b = b / np.linalg.norm(b)
    n = b.shape[0]
    G = np.eye(n)
    G[:, 0] = b
    Q, _ = np.linalg.qr(G)
    return build_model(Q[:, 1:].T)


#: Leaf tolerance of extremal solves: |Phi(v) - C| <= PHI_RTOL * (1 + |C|),
#: with Phi in log form.  The log-offset solver measured <= 2e-14 on known
#: states with |v_i| = 10**U(-100, 100), n = 2..8.
PHI_RTOL = 1e-12
#: Task tolerance of extremal solves: ||f(v) - w|| <= TASK_RTOL * ||A||_2 * ||v||^2,
#: the residual scale of the map.  Measured <= 6e-13 on the same states.
TASK_RTOL = 1e-11


def log_potential(model, V):
    """Phi per row in log form, sum_i b_i sign(v_i) ln|v_i|; no halted threshold."""
    V = np.atleast_2d(V)
    return np.sum(model.b * np.sign(V) * np.log(np.abs(V)), axis=1)


def assert_on_leaf(model, V, W, C):
    """Every row of V maps to its task row of W and lies on the leaf C."""
    V, W = np.atleast_2d(V), np.atleast_2d(W)
    assert np.all(np.isfinite(V)) and np.all(V != 0.0)
    phi_err = np.abs(log_potential(model, V) - C)
    assert np.all(phi_err <= PHI_RTOL * (1.0 + abs(C))), phi_err.max()
    # scale each row by its largest |v_i| so that ||v||^2 cannot overflow
    scale = np.max(np.abs(V), axis=1, keepdims=True)
    Vs = V / scale
    task_err = np.linalg.norm((Vs * np.abs(Vs)) @ model.A.T - W / scale / scale,
                              axis=1)
    bound = TASK_RTOL * np.linalg.norm(model.A, 2) * np.sum(Vs * Vs, axis=1)
    assert np.all(task_err <= bound), (task_err / bound).max()
