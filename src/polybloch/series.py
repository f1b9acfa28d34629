"""Iterated non-resonance expansion: S_k sums, the F_s recursion, and
matching of predictions to oracle eigenvalues.

S_k(a, v) sums q_{g1} ... q_{gk} q_{-g1-...-gk} over tuples from the
summation pool with all partial sums nonzero, divided by the product of
denominators a - |v - (g1+...+gj)|^{2l}.  The known parts follow the
recursion F_0 = 0, F_s = sum_{k<=s} S_k evaluated at |v|^{2l} + F_{s-1}.

One walk (_path_sums) computes every path sum: S_1 .. S_k in one pass to
depth k, each node's denominator once, and, started at -offset, the
Bloch-coefficient predictions of polybloch.simple.

All spectral arithmetic runs in the frame relative to |v|^{2l}: the
denominators use the cancellation-free identity for |v|^{2l} - |v-s|^{2l},
so predictions stay meaningful at large |v| where the absolute eigenvalues
dwarf machine epsilon.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import NoCandidate, PreconditionError, SmallDenominator
from .geometry import MAX_SERIES_ORDER, ParameterCascade
from .lattice import LatticeModel
from .numerics import loglog_slope, power_difference
from .oracle import BlochSpectrum, track_dominant
from .potential import FourierPotential

_REALITY_REL = 1e-12
_REALITY_ABS = 1e-15


@dataclass(frozen=True)
class SeriesEvaluation:
    """One A_k = S_1 + ... + S_k evaluation at a fixed spectral parameter."""

    center: np.ndarray
    degree: int
    order: int
    a_rel: float  # a - |v|^{2l}
    values: tuple[float, ...]  # S_1 .. S_k
    denominator_floor: float
    term_counts: tuple[int, ...]  # contributing tuples per k
    admissible_counts: tuple[int, ...]  # tuples with nonzero partial sums per k

    @property
    def total(self) -> float:
        return float(sum(self.values))


def _series_pool(q: FourierPotential, pool_radius: float | None):
    """Summation pool and coefficient table.

    A finite pool radius truncates the potential as a whole, so the closing
    coefficient q_{-g1-...-gk} is drawn from the same table as the tuple
    entries; this keeps each S_k exactly real for Hermitian tables (tuples
    pair with their reversed-negated partners over equal denominators).
    """
    if pool_radius is not None and pool_radius < q.support_radius:
        q = q.truncate(pool_radius)[0]
    return q, [(coords, emb, q.coefficient(coords)) for coords, emb in zip(q.support, q.support_embeddings)]


def _path_sums(a_rel: float, v: np.ndarray, l: int, q: FourierPotential, pool, depth: int,
               min_denominator: float, start=None) -> tuple[list[complex], float, list[int], list[int]]:
    """Every path sum of one walk through the pool, per depth 0..depth.

    The walk steps from node sigma to sigma + g, g in the pool, while the
    partial sums stay nonzero.  Node sigma's denominator a - |v - sigma|^{2l}
    (a_rel relative to |v|^{2l}) is computed once, from the embedding
    accumulated along the path, or on a walk from `start` from sigma's own
    embedding: a coefficient prediction's denominators can be small
    enough (a_rel near |v - sigma|^{2l} - |v|^{2l}) that the few ulps an
    accumulated embedding carries on an oblique lattice move its value
    by 1e-13 relative and more.  A path's term at depth j is its j step
    coefficients times the closing q_{-sigma}, from the pool's own table,
    over its nodes' denominators.  From the origin (start None), which is no
    node, depth j holds S_j; from the node `start`, depth 0 holds
    q_{-start} / den(start).  Returns per depth the sums, the contributing
    (nonzero closing) and admissible (node) counts, and the least |den| over
    all nodes.  SmallDenominator at a node with |den| <= min_denominator.
    """
    v_sq = float(v @ v)
    sums = [0j] * (depth + 1)
    contributing = [0] * (depth + 1)
    admissible = [0] * (depth + 1)
    floor = np.inf
    closing_of = {tuple(-c for c in coords): coeff for coords, _, coeff in pool}.get  # q_{-sigma} by sigma
    embed = None if start is None else q.lattice.embed

    def denominator(sigma_emb: np.ndarray) -> float:
        # a - |v - sigma|^{2l} = a_rel - (|v - sigma|^{2l} - |v|^{2l})
        first = float(sigma_emb @ sigma_emb) - 2.0 * float(v @ sigma_emb)
        return a_rel - power_difference(first, v_sq + first, v_sq, l)

    def walk(j: int, sigma: tuple, sigma_emb: np.ndarray, numer: complex, denom: float):
        nonlocal floor
        for coords, emb, coeff in pool:
            s_new = tuple(a + b for a, b in zip(sigma, coords))
            if not any(s_new):
                continue  # partial sums must be nonzero
            emb_new = embed(s_new) if embed else sigma_emb + emb
            den = denominator(emb_new)
            size = abs(den)
            if size < floor:
                floor = size
            if size <= min_denominator:
                raise SmallDenominator(s_new, size)
            admissible[j] += 1
            numer_new, denom_new = numer * coeff, denom * den
            closing = closing_of(s_new, 0j)
            if closing != 0:
                contributing[j] += 1
                sums[j] += numer_new * closing / denom_new
            if j < depth:
                walk(j + 1, s_new, emb_new, numer_new, denom_new)

    if start is None:
        sigma, sigma_emb, denom = (0,) * len(v), np.zeros(len(v)), 1.0
    else:
        sigma, sigma_emb = tuple(start), q.lattice.embed(start)
        denom = denominator(sigma_emb)
        floor = abs(denom)
        if floor <= min_denominator:
            raise SmallDenominator(sigma, floor)
        closing = closing_of(sigma, 0j)
        sums[0] = closing / denom  # divided even when zero, which keeps the signs of its zero parts
        admissible[0], contributing[0] = 1, int(closing != 0)
    if depth:
        walk(1, sigma, sigma_emb, 1.0 + 0j, denom)
    return sums, float(floor), contributing, admissible


def _sum_order(a_rel: float, v: np.ndarray, l: int, q: FourierPotential, k: int,
               pool, min_denominator: float) -> tuple[complex, float, int, int]:
    """(S_k, denominator floor, contributing count, admissible count): depth k of _path_sums."""
    sums, floor, contributing, admissible = _path_sums(a_rel, v, l, q, pool, k, min_denominator)
    return sums[k], floor, contributing[k], admissible[k]


def _assert_real(value: complex, context: str) -> float:
    if abs(value.imag) > _REALITY_REL * abs(value) + _REALITY_ABS:
        raise ValueError(f"{context}: imaginary part {value.imag!r} of {value!r} exceeds the Hermitian-reality bound")
    return float(value.real)


def evaluate_series(a_rel: float, v, l: int, q: FourierPotential, k: int,
                    pool_radius: float | None = None) -> SeriesEvaluation:
    """S_1 .. S_k at the spectral parameter |v|^{2l} + a_rel.

    SmallDenominator at a denominator of size at most 1e-12 (1 + |a_rel|).
    """
    if not 1 <= k <= MAX_SERIES_ORDER:
        raise PreconditionError(f"k = {k} outside the series orders 1..{MAX_SERIES_ORDER}")
    v = np.asarray(v, dtype=float)
    min_denominator = 1e-12 * (1.0 + abs(a_rel))
    q_eff, pool = _series_pool(q, pool_radius)
    sums, floor, terms, admissible = _path_sums(a_rel, v, l, q_eff, pool, k, min_denominator)
    values = [_assert_real(sums[j], f"S_{j}") for j in range(1, k + 1)]
    return SeriesEvaluation(
        center=v.copy(), degree=l, order=k, a_rel=float(a_rel),
        values=tuple(values), denominator_floor=floor,
        term_counts=tuple(terms[1:]), admissible_counts=tuple(admissible[1:]),
    )


def s_k(a: float, v, l: int, q: FourierPotential, k: int) -> float:
    """Single S_k at the absolute spectral parameter a, summed over q's whole support."""
    v = np.asarray(v, dtype=float)
    a_rel = float(a) - float(v @ v) ** l
    return evaluate_series(a_rel, v, l, q, k).values[-1]


@dataclass(frozen=True)
class KnownPartExpansion:
    """F_0 .. F_{k_max} and the predictions |v|^{2l} + F_{k-1}."""

    center: np.ndarray
    degree: int
    base: float  # |v|^{2l}
    f_values: tuple[float, ...]  # F_0 .. F_{k_max}
    evaluations: tuple[SeriesEvaluation, ...]  # evaluation behind each F_s, s >= 1

    @property
    def order(self) -> int:
        return len(self.f_values) - 1

    def prediction_rel(self, k: int) -> float:
        """P_k - |v|^{2l} = F_{k-1} for k >= 1."""
        if k < 1:
            raise ValueError("prediction order k must be >= 1")
        return self.f_values[k - 1]

    def prediction(self, k: int) -> float:
        return self.base + self.prediction_rel(k)

    def known_part(self) -> float:
        return self.base + self.f_values[-1]

    def known_part_rel(self) -> float:
        return self.f_values[-1]


def known_part_sequence(v, l: int, q: FourierPotential, cascade: ParameterCascade | None = None,
                        k_max: int | None = None) -> KnownPartExpansion:
    """Run the recursion F_s = A_s(|v|^{2l} + F_{s-1}) up to k_max.

    The series pool is the cascade's (series_pool_radius), or q's whole
    support without a cascade; each evaluation has evaluate_series's
    denominator floor.  The caller is responsible for v being
    non-resonant under the active mode; a SmallDenominator escape is the
    numerical symptom of a violated precondition.
    """
    v = np.asarray(v, dtype=float)
    if k_max is None:
        if cascade is None:
            raise ValueError("need k_max or a cascade")
        k_max = cascade.known_order
    cap = MAX_SERIES_ORDER if cascade is None else cascade.series_cap()
    if k_max > cap:
        raise ValueError(f"k_max = {k_max} exceeds the cap {cap}")
    pool_radius = None if cascade is None else cascade.series_pool_radius
    base = float(v @ v) ** l
    f_values = [0.0]
    evaluations = []
    for s in range(1, k_max + 1):
        ev = evaluate_series(f_values[s - 1], v, l, q, s, pool_radius)
        f_values.append(ev.total)
        evaluations.append(ev)
    return KnownPartExpansion(
        center=v.copy(), degree=l, base=base,
        f_values=tuple(f_values), evaluations=tuple(evaluations),
    )


@dataclass(frozen=True)
class MatchResult:
    index: int
    residual: float
    weight: float


def match_eigenvalue(spectrum: BlochSpectrum, gamma, prediction_rel: float,
                     halfwidth: float) -> MatchResult:
    """Eigenpair maximizing |b(N, gamma)|^2 within the matching window.

    prediction_rel is the prediction minus the spectrum shift (|v|^{2l} for
    windowed solves); residual is the matched eigenvalue minus prediction
    in the same frame.  NoCandidate unless the pair matched weighs more
    than 1/2 on gamma: it is then the dominant pair of the whole spectrum
    (see BlochSpectrum.dominant_index), whichever pairs a partial solve
    returned, and never a pair whose weight is rounding noise.
    """
    pos = spectrum.position(gamma)
    if pos is None:
        raise NoCandidate(f"gamma {gamma} not inside the oracle window")
    rel = spectrum.eigenvalues_rel
    inside = np.nonzero(np.abs(rel - prediction_rel) < halfwidth)[0]
    if len(inside) == 0:
        raise NoCandidate(
            f"no eigenvalue within {halfwidth!r} of prediction (rel) {prediction_rel!r}")
    weights = np.abs(spectrum.coefficients[inside, pos]) ** 2
    if not np.max(weights) > 0.5:
        raise NoCandidate(f"no eigenpair within {halfwidth!r} of prediction (rel) {prediction_rel!r} "
                          f"weighs more than 1/2 on gamma {gamma} (at most {float(np.max(weights))!r})")
    best = inside[int(np.argmax(weights))]
    return MatchResult(
        index=int(best),
        residual=float(rel[best] - prediction_rel),
        weight=float(np.max(weights)),
    )


@dataclass(frozen=True)
class SweepRow:
    rho: float
    k: int
    prediction: float
    eigenvalue: float
    error: float
    weight: float


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]
    slopes: dict
    diagnostics: tuple[dict, ...]  # track_dominant's, one per center

    def errors_for(self, k: int) -> list[tuple[float, float]]:
        return [(r.rho, r.error) for r in self.rows if r.k == k]

    def write_csv(self, fh):
        writer = csv.writer(fh)
        writer.writerow(["rho", "k", "prediction", "eigenvalue", "error", "weight", "slope_k"])
        for r in self.rows:
            slope = self.slopes.get(r.k)
            writer.writerow([repr(r.rho), r.k, repr(r.prediction), repr(r.eigenvalue),
                             repr(r.error), repr(r.weight), "" if slope is None else repr(slope)])


def required_window_radius(q: FourierPotential, cascade: ParameterCascade) -> float:
    """Window large enough for series validation: support * (p1 + 2) hops."""
    return q.support_radius * (cascade.p1 + 2)


def track_center(lattice: LatticeModel, l: int, q: FourierPotential, v, cascade: ParameterCascade,
                 window_radius: float, k_list) -> tuple[KnownPartExpansion, BlochSpectrum]:
    """v's known parts up to order max(k_list), and track_dominant's pair dominated by gamma0.

    The pair is solved on the window and its 1.5x refinement, matched against
    P_k, k in k_list, within the cascade's matching half-width.  order_sweep
    and the bloch command solve each center here.
    """
    expansion = known_part_sequence(v, l, q, cascade, k_max=max(k_list))
    predictions = [expansion.prediction_rel(k) for k in k_list]
    return expansion, track_dominant(lattice, l, q, v, window_radius, predictions, cascade.matching_halfwidth(),
                                     refine=True)


def order_sweep(lattice: LatticeModel, l: int, q: FourierPotential, centers, k_list,
                cascade: ParameterCascade, window_radius: float | None = None) -> SweepTable:
    """Error table |Lambda_N - P_k| over a family of centers with |v| = rho_j.

    Centers must be non-resonant with margins bounded away from zero
    uniformly (fixed irrational-slope directions achieve this).  Each
    center is solved by track_center, certified on the 1.5x window: the
    one pair dominated by gamma0, which match_eigenvalue picks for every
    order, or when tracking is refused each window's dense spectrum.
    """
    k_list = sorted(set(int(k) for k in k_list))
    if min(k_list) < 1:
        raise ValueError("orders must be >= 1")
    min_window = required_window_radius(q, cascade)
    window = min_window if window_radius is None else max(window_radius, min_window)
    halfwidth = cascade.matching_halfwidth()
    rows, diagnostics = [], []
    for v in centers:
        v = np.asarray(v, dtype=float)
        rho_j = float(np.linalg.norm(v))
        expansion, spectrum = track_center(lattice, l, q, v, cascade, window, k_list)
        gamma0, _ = lattice.reduce(v)
        diagnostics.append(spectrum.diagnostics)
        for k in k_list:
            match = match_eigenvalue(spectrum, gamma0.coords, expansion.prediction_rel(k), halfwidth)
            rows.append(SweepRow(
                rho=rho_j, k=k,
                prediction=expansion.prediction(k),
                eigenvalue=float(spectrum.eigenvalues[match.index]),
                error=abs(match.residual),
                weight=match.weight,
            ))
    slopes = {}
    for k in k_list:
        pts = [(r.rho, r.error) for r in rows if r.k == k]
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        slopes[k] = None if (len(pts) < 2 or any(y == 0 for y in ys)) else loglog_slope(xs, ys)
    return SweepTable(rows=tuple(rows), slopes=slopes, diagnostics=tuple(diagnostics))
