"""The unconstrained response step: projected gradient with backtracking on
a scoring rule's expected loss, rows kept on the simplex.

Inverse composition's task 1 once took this step (with a constraint penalty)
inside its design loop.  The exact design needs no step, but the step still
shows that a strictly proper scoring rule's best response is the exact
posterior, which the acceptance suite and ``test_ic`` check with it.
"""

import math

import numpy as np

LOG_FLOOR = 1e-12


def project_rows_simplex(mat: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex (rows sorted)."""
    n = mat.shape[1]
    srt = -np.sort(-mat, axis=1)
    css = np.cumsum(srt, axis=1) - 1.0
    rho = (srt - css / np.arange(1, n + 1) > 0).sum(axis=1)
    theta = css[np.arange(mat.shape[0]), rho - 1] / rho
    return np.maximum(mat - theta[:, None], 0.0)


def loss_and_grad(pi, weights, loss):
    pic = np.maximum(pi, LOG_FLOOR)
    if loss == "log":
        val = float(-(weights * np.log(pic)).sum())
        grad = -weights / pic
    else:
        sq = (pi**2).sum(axis=1, keepdims=True)
        val = float((weights * (sq - 2.0 * pi + 1.0)).sum())
        wrow = weights.sum(axis=1, keepdims=True)
        grad = wrow * 2.0 * pi - 2.0 * weights
    return val, grad


def response_step(pi, weights, loss, inner_tol, max_inner):
    """Projected gradient with backtracking on the expected loss of ``pi``
    under the cell weights (outcomes x secrets)."""

    def value(p):
        v, _ = loss_and_grad(p, weights, loss)
        return v

    cur = value(pi)
    step = 1.0
    for _ in range(max_inner):
        _, grad = loss_and_grad(pi, weights, loss)
        moved = False
        delta_move = math.inf
        for _bt in range(40):
            cand = project_rows_simplex(pi - step * grad)
            cval = value(cand)
            if cval <= cur - 1e-4 / max(step, 1e-12) * float(((cand - pi) ** 2).sum()):
                delta_move = float(np.abs(cand - pi).max())
                pi, cur = cand, cval
                moved = True
                step = min(step * 2.0, 1e3)
                break
            step *= 0.5
        if not moved or delta_move < inner_tol:
            break
    return pi, cur
