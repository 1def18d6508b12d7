"""Plain bisection on a monotone test: the oracle that the calibrations'
root finder (``divergence.monotone_root``) and IC task 2's closed-form tau
are held to."""

import math


def full_bisection(pred, lo, hi, geometric, max_iter, tol=0.0):
    """Bisect [lo, hi] on ``pred`` (false below its switch, true above) at
    the midpoint, ``sqrt(lo * hi)`` when ``geometric`` else the mean, for
    ``max_iter`` steps or, with ``tol`` > 0, until ``hi / lo < 1 + tol``
    (geometric) or ``hi - lo < tol * max(1, hi)``."""
    for _ in range(max_iter):
        if tol > 0.0 and ((hi / lo < 1.0 + tol) if geometric else (hi - lo < tol * max(1.0, hi))):
            break
        mid = math.sqrt(lo * hi) if geometric else 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi
