"""Reference path sums: the tuple walkers that polybloch.series' one walk replaced.

reference_series walks each order k = 1..K on its own, as evaluate_series
did, so every node of depth j is visited and its denominator computed
K - j + 1 times.  reference_coefficient runs the itertools.product chains
of the former simple.coefficient_prediction, with each partial sum
embedded afresh, as the walk from a start node does.  Both keep the
former arithmetic expression for expression, and reference_coefficient also
returns the sum of its terms' moduli, the scale of its rounding.
"""

import itertools

import numpy as np

from polybloch.errors import SmallDenominator
from polybloch.numerics import power_difference


def reference_sum_order(a_rel, v, l, q, k, pool, min_denominator):
    """(S_k, denominator floor, contributing count, admissible count): one order, one walk."""
    d = len(v)
    v_sq = float(v @ v)
    total = 0j
    floor = np.inf
    contributing = 0
    admissible = 0

    def denominator(sigma_emb):
        first = float(sigma_emb @ sigma_emb) - 2.0 * float(v @ sigma_emb)
        return a_rel - power_difference(first, v_sq + first, v_sq, l)

    def walk(depth, sigma, sigma_emb, numer, denom):
        nonlocal total, floor, contributing, admissible
        for coords, emb, coeff in pool:
            s_new = tuple(a + b for a, b in zip(sigma, coords))
            if all(c == 0 for c in s_new):
                continue
            emb_new = sigma_emb + emb
            den = denominator(emb_new)
            if abs(den) < floor:
                floor = abs(den)
            if abs(den) <= min_denominator:
                raise SmallDenominator(s_new, abs(den))
            if depth == k:
                admissible += 1
                closing = q.coefficient(tuple(-c for c in s_new))
                if closing != 0:
                    contributing += 1
                    total += numer * coeff * closing / (denom * den)
            else:
                walk(depth + 1, s_new, emb_new, numer * coeff, denom * den)

    if pool:
        walk(1, (0,) * d, np.zeros(d), 1.0 + 0j, 1.0)
    return total, float(floor), contributing, admissible


def reference_series(a_rel, v, l, q, k, pool, min_denominator):
    """(S_1..S_k as complex, floor, contributing counts, admissible counts), one walk per order."""
    v = np.asarray(v, dtype=float)
    values, terms, admissible = [], [], []
    floor = np.inf
    for kk in range(1, k + 1):
        total, fl, contr, adm = reference_sum_order(a_rel, v, l, q, kk, pool, min_denominator)
        values.append(total)
        terms.append(contr)
        admissible.append(adm)
        floor = min(floor, fl)
    return tuple(values), float(floor), tuple(terms), tuple(admissible)


def reference_coefficient(v, l, q, offset, k, known_rel=0.0):
    """(A_k(offset), sum of its terms' moduli) by chains of k-1 support steps."""
    v = np.asarray(v, dtype=float)
    v_sq = float(v @ v)
    offset = tuple(int(c) for c in offset)

    def denominator(sigma_coords, rel):
        emb = q.lattice.embed(sigma_coords)
        first = 2.0 * float(v @ emb) + float(emb @ emb)
        return rel - power_difference(first, v_sq + first, v_sq, l)

    if k == 1:
        value = q.coefficient(offset) / denominator(offset, 0.0)
        return value, abs(value)
    total, scale = 0j, 0.0
    for chain in itertools.product(q.support, repeat=k - 1):
        numer = 1.0 + 0j
        partial = offset
        denom = denominator(offset, known_rel)
        ok = True
        for g in chain:
            numer *= q.coefficient(g)
            partial = tuple(a - b for a, b in zip(partial, g))
            if all(c == 0 for c in partial):
                ok = False
                break
            denom *= denominator(partial, known_rel)
        if not ok:
            continue
        closing = q.coefficient(partial)
        if closing == 0:
            continue
        term = numer * closing / denom
        total += term
        scale += abs(term)
    return total, scale
