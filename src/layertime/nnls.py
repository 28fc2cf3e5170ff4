"""Least squares with non-negativity constraints on every coefficient."""

from __future__ import annotations

import numpy as np

__all__ = ["nnls", "kkt_residual", "NumericError"]

# relative tolerance on the gradient at the returned point
_TOL = 1e-10


class NumericError(RuntimeError):
    """A numerical routine failed to reach its advertised tolerance."""


def nnls(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve ``min ||A x - y||^2`` subject to ``x >= 0``.

    Active-set iteration in the Lawson-Hanson style: the most violated
    coordinate joins the passive set, an unconstrained least-squares
    subproblem is solved on the passive columns, and the step is clipped
    whenever a passive coordinate would turn negative.  At the returned
    point the KKT conditions hold to within a relative ``1e-10`` of the
    problem scale.  If the loop exceeds its budget of ``max(50, 10 n)``
    outer iterations, :class:`NumericError` is raised.

    Parameters
    ----------
    A : ndarray, shape (m, n)
        Design matrix.
    y : ndarray, shape (m,)
        Targets.

    Returns
    -------
    x : ndarray, shape (n,)
        The constrained minimizer.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be 2-D")
    m, n = A.shape
    if y.shape != (m,):
        raise ValueError(f"y must have shape ({m},), got {y.shape}")
    if n == 0:
        return np.zeros(0)

    # Columns can span many orders of magnitude (operation counts next to a
    # unit intercept), which would wreck both the subproblem conditioning
    # and the stopping test.  Positive column scaling preserves the
    # feasible set, so solve the normalized problem and scale back.
    col_scale = _column_scale(A)
    x = _active_set(A / col_scale, y)
    return x / col_scale


def _column_scale(A: np.ndarray) -> np.ndarray:
    """Each column's largest absolute value, or 1 for an all-zero column."""
    scale = np.abs(A).max(axis=0)
    return np.where(scale == 0.0, 1.0, scale)


def _active_set(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    n = A.shape[1]
    scale = float(np.abs(A.T @ y).max(initial=0.0))
    cutoff = _TOL * max(1.0, scale)

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(max(50, 10 * n)):
        grad = A.T @ (y - A @ x)
        candidates = np.where(passive, -np.inf, grad)
        j = int(np.argmax(candidates))
        if candidates[j] <= cutoff:
            return x
        passive[j] = True
        for _ in range(n + 1):
            s = np.zeros(n)
            sol, *_ = np.linalg.lstsq(A[:, passive], y, rcond=None)
            s[passive] = sol
            if sol.size and sol.min() > 0:
                x = s
                break
            # clip the step at the first coordinate that hits zero
            blocking = passive & (s <= 0)
            ratios = x[blocking] / (x[blocking] - s[blocking])
            alpha = float(ratios.min())
            x = x + alpha * (s - x)
            released = passive & (x <= 1e-12 * max(1.0, float(np.abs(x).max())))
            x[released] = 0.0
            passive[released] = False
            if not passive.any():
                x = np.zeros(n)
                break
    raise NumericError("non-negative least squares failed to converge")


def kkt_residual(A: np.ndarray, y: np.ndarray, x: np.ndarray) -> float:
    """Scaled first-order optimality violation of ``x`` for ``min ||Ax - y||^2, x >= 0``.

    Zero (up to the solver tolerance) at the constrained minimizer: the
    gradient must vanish on strictly positive coordinates and be
    non-negative on coordinates at the bound.  Each gradient component is
    judged relative to its own coordinate scale ``||A_j|| ||y||`` so the
    measure is invariant under column and data rescaling.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    grad = A.T @ (A @ x - y)
    scale = np.maximum(np.linalg.norm(A, axis=0) * np.linalg.norm(y), 1e-300)
    violation = np.where(x > 0, np.abs(grad), np.maximum(-grad, 0.0))
    return float((violation / scale).max(initial=0.0))
