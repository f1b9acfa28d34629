"""Small shared numerical helpers: exact integer rank and lattice bases,
cancellation-free power differences, log-log slope fits, and a cap on
numpy's BLAS threads."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

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


def _reduce_rows(m: list[list[int]], n_cols: int) -> int:
    """Euclid's unimodular reduction of the integer rows m, in place, down their first n_cols columns.

    Row operations act on whole rows.  Returns the rank r: m[:r] are
    independent on those columns, and m[r:] vanish there.
    """
    r = 0
    for c in range(n_cols):
        while True:  # Euclid down column c
            live = [i for i in range(r, len(m)) if m[i][c]]
            if not live or live[-1] == r:
                break
            p = min(live, key=lambda i: abs(m[i][c]))
            m[r], m[p] = m[p], m[r]
            for i in live:
                if i > r and (f := m[i][c] // m[r][c]):
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        if live:
            r += 1
    return r


def integer_row_basis(rows) -> tuple[list[list[int]], list[list[int]]]:
    """A basis of the lattice the integer rows generate, by unimodular row reduction.

    Returns (basis, combos) with basis[i] = sum_j combos[i][j] rows[j]; the
    basis rows are independent, and every input row is an integer
    combination of them.  combos is the reduction of the identity columns.
    """
    m = [[int(x) for x in row] for row in rows]
    d = len(m[0]) if m else 0
    m = [row + [int(i == j) for j in range(len(m))] for i, row in enumerate(m)]
    r = _reduce_rows(m, d)
    return [row[:d] for row in m[:r]], [row[d:] for row in m[:r]]


def integer_rank(rows) -> int:
    """Exact rank over the rationals of an integer matrix: integer_row_basis's reduction, without the combos."""
    m = [[int(x) for x in row] for row in rows]
    return _reduce_rows(m, len(m[0]) if m else 0)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log|y| against log x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.abs(np.asarray(ys, dtype=float))
    if np.any(ys == 0):
        raise ValueError("cannot fit a log-log slope through zero values")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


# Dense band solves on at most this many plane waves run on one BLAS thread.
# On 2 vCPUs a real eigvalsh takes as long on one thread as on two at 225
# waves (2.9 vs 3.0 ms) and 1.2x longer at 506 (24 vs 20 ms), the 1.5x
# certification basis of 225.  When another process holds a vCPU, two
# threads wait on each other: at 225 waves one thread is then 2.5x faster
# (3.2 vs 8.1 ms).  After each threaded call the idle thread also spins on
# the other vCPU for about 0.13 s.  From 800 waves on, two threads are
# 1.4-2x faster.
SERIAL_BAND_BASIS = 600
# Davidson's tracked solves (oracle._track_pair) on windows and resonant
# blocks of at most this many plane waves run on one BLAS thread.  Their
# BLAS work is matrix-vector products on the (k <= 25) x n search space.  On 2 vCPUs,
# one step's products with 10 rows take 0.04 vs 0.07 ms on one thread and
# two at 900 waves, and 0.16-0.17 vs 0.18-0.20 ms at 4,000; from 5,000 to
# 6,000 they are within 5% of each other, and from 6,500 on two threads
# win by 7-13%, by 1.3-1.7x at 20,479.  When the calling thread moves to
# the other vCPU between solves, the second thread costs about 8 ms per
# solve up to at least 11,000 waves (a 10-step solve: 15.4 vs 8.6 ms at
# 2,109 waves, 27 vs 20 ms at 5,575).  A refused window's dense eigh stays threaded.
SERIAL_TRACK_BASIS = 6000


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS numpy's wheel loaded, or None.

    Only a library already loaded is opened (RTLD_NOLOAD), so no second
    BLAS is ever started; builds without one have no calls.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    put.restype = None
                    return get, put
    return None


@contextlib.contextmanager
def capped_blas_threads(limit: int | None):
    """Run the block with numpy's BLAS on at most `limit` threads.

    The count is process-wide and restored on exit.  limit None, or a BLAS
    whose count cannot be set, leaves it unchanged.
    """
    calls = _openblas_thread_calls()
    previous = None if calls is None or limit is None else int(calls[0]())
    if previous is None or previous <= limit:
        yield
        return
    calls[1](int(limit))
    try:
        yield
    finally:
        calls[1](previous)
