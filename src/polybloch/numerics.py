"""Small shared numerical helpers: exact integer rank, cancellation-free
power differences, and log-log slope fits."""

from __future__ import annotations

import numpy as np


def power_difference(first: float, a: float, b: float, l: int) -> float:
    """a^l - b^l given the exactly-computed first difference a - b.

    Avoids catastrophic cancellation when a and b are large and close.
    Element-wise when first and a (or b) are arrays.
    """
    acc = 0.0
    for j in range(l):
        acc += a**j * b ** (l - 1 - j)
    return first * acc


def relative_energies(v, points, l: int) -> np.ndarray:
    """|x|^{2l} - |v|^{2l} for every row x of points, cancellation-free.

    The first difference 2(v, x - v) + |x - v|^2 is formed from the small
    offsets x - v, then multiplied by sum_j a^j b^(l-1-j) with a = |x|^2,
    b = |v|^2; v = 0 gives the plain |x|^{2l}.  The row inner products use
    np.vecdot, whose per-row dot rounds like the scalar `v @ delta` of
    power_difference's callers (a matrix product or elementwise sum does not).
    """
    v = np.asarray(v, dtype=float)
    delta = np.asarray(points, dtype=float) - v
    first = 2.0 * np.vecdot(delta, v) + np.vecdot(delta, delta)
    b = float(v @ v)
    return power_difference(first, b + first, b, l)


def integer_rank(rows) -> int:
    """Exact rank over the rationals of an integer matrix (Bareiss elimination)."""
    m = [[int(x) for x in row] for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(n_cols):
        piv = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == n_rows:
            break
    return r


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log|y| against log x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.abs(np.asarray(ys, dtype=float))
    if np.any(ys == 0):
        raise ValueError("cannot fit a log-log slope through zero values")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
