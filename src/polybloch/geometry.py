"""Exponent cascade and resonance / non-resonance classification of quasimomenta.

A point x in the annulus rho/2 <= |x| < 3 rho/2 is resonant at level k when
it lies within the level-k threshold of k linearly independent diffraction
planes drawn from the short dual vectors; otherwise it is non-resonant.
Theory mode uses the graded exponents alpha_k = 3^k / m; scaled mode keeps
every set definition but substitutes caller-supplied thresholds, since the
theory exponents are invisible at desk-scale rho.  derive_parameters
resolves every cascade quantity once into a ParameterCascade field (the
thresholds, block span radii, direction and series pool radii, known order
and block translate radius): an override when given, else the theory
expression, except that the series pool is q's whole support (None) in
scaled mode.

Variant single-plane sets that rescale the threshold by a constant bracket
the parametrized form used here (the set at half the threshold is contained
in the unit-constant variant, which is contained in the set at 3/2 the
threshold), so only this form is implemented.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CascadeInequalityViolated, PartitionBreakdown, ShellViolation
from .lattice import LatticeModel, LatticeVector, PlanewaveBasis
from .numerics import integer_rank

# series order is capped regardless of k1: term count grows as |support|^k
MAX_SERIES_ORDER = 6


def _k1(d: int) -> int:
    """k1 = floor(d / (3 alpha)) + 2 with alpha = 1/m, m = 3^d + d + 2: a function of d alone."""
    return math.floor(d / (3 * (1.0 / (3**d + d + 2)))) + 2


def series_cap(d: int) -> int:
    """Highest series order evaluated at dimension d: k1, capped at MAX_SERIES_ORDER."""
    return min(_k1(d), MAX_SERIES_ORDER)


def _level_index(k: int, top: int) -> int:
    """Index of level k in a per-level tuple of levels 1 .. top; ValueError outside them."""
    if not 1 <= k <= top:
        raise ValueError(f"level {k} outside 1..{top}")
    return k - 1


@dataclass(frozen=True)
class ParameterCascade:
    """Derived exponent bookkeeping for one (d, l, s, rho) experiment.

    derive_parameters resolves each radius, threshold and order once, from
    its override or from the theory exponents; the fields hold the result.
    """

    d: int
    l: int
    s: float
    rho: float
    mode: str  # "theory" | "scaled"
    p: float
    m: int
    alpha: float
    alpha_k: tuple[float, ...]  # levels 1 .. d+1
    k1: int
    p1: int
    eps1: float
    v_thresholds: tuple[float, ...]  # resonance thresholds rho^alpha_k or stand-ins, levels 1 .. d+1
    b_radii: tuple[float, ...]  # block span radii sqrt(threshold_{k+1}) / 2, levels 1 .. d
    pool_radius: float  # direction pool radius p rho^alpha
    series_pool_radius: float | None  # series summation pool radius rho^alpha; None = potential support
    known_order: int  # order K of the known parts F_K, series_cap(d) unless overridden
    a_radius: float  # block lattice-translate radius p1 rho^alpha

    def alpha_level(self, k: int) -> float:
        return self.alpha_k[_level_index(k, self.d + 1)]

    def v_threshold(self, k: int) -> float:
        """Level-k resonance threshold, k = 1 .. d+1."""
        return self.v_thresholds[_level_index(k, self.d + 1)]

    def series_cap(self) -> int:
        """Highest series order evaluated: series_cap(d)."""
        return series_cap(self.d)

    def matching_halfwidth(self) -> float:
        """Half-width of the eigenvalue matching window (threshold / 2)."""
        return 0.5 * self.v_threshold(1)

    def k_window(self) -> float:
        """Competitor window |F - |g'+t|^{2l}| < threshold / 3."""
        return self.v_threshold(1) / 3.0

    def block_b_radius(self, k: int) -> float:
        """Span-combination radius of a level-k block, k = 1 .. d."""
        return self.b_radii[_level_index(k, self.d)]

    def shrunk_shell(self) -> tuple[float, float]:
        """Annulus shrunk by rho^{alpha_1 - 1} (threshold / rho in scaled mode)."""
        shrink = self.v_threshold(1) / self.rho
        return 0.5 * self.rho + shrink, 1.5 * self.rho - shrink


_INEQUALITY_NAMES = (
    "alpha1 + d*alpha < 1 - alpha",
    "d*alpha < alpha_d / 2",
    "k1 <= (p - m*(d-1)/2) / 3",
    "p1*alpha1 >= p*alpha",
    "3*k1*alpha > d + 2*alpha",
    "alpha_k + (k-1)*alpha < 1",
    "alpha_{k+1} > 2*(alpha_k + (k-1)*alpha)",
)


def inequality_report(c: ParameterCascade) -> list[tuple[str, float, float, bool]]:
    """Each entry: (name, lhs, rhs, holds) for the seven exponent inequalities."""
    a, d = c.alpha, c.d
    a1 = c.alpha_level(1)
    ad = c.alpha_level(d)
    rows = [
        (_INEQUALITY_NAMES[0], a1 + d * a, 1 - a, a1 + d * a < 1 - a),
        (_INEQUALITY_NAMES[1], d * a, ad / 2, d * a < ad / 2),
        (_INEQUALITY_NAMES[2], float(c.k1), (c.p - c.m * (d - 1) / 2) / 3, c.k1 <= (c.p - c.m * (d - 1) / 2) / 3),
        (_INEQUALITY_NAMES[3], c.p1 * a1, c.p * a, c.p1 * a1 >= c.p * a),
        (_INEQUALITY_NAMES[4], 3 * c.k1 * a, d + 2 * a, 3 * c.k1 * a > d + 2 * a),
    ]
    worst6 = min((1 - (c.alpha_level(k) + (k - 1) * a), k) for k in range(1, d + 1))
    k6 = worst6[1]
    rows.append((
        f"{_INEQUALITY_NAMES[5]} (k={k6})",
        c.alpha_level(k6) + (k6 - 1) * a, 1.0,
        all(c.alpha_level(k) + (k - 1) * a < 1 for k in range(1, d + 1)),
    ))
    worst7 = min((c.alpha_level(k + 1) - 2 * (c.alpha_level(k) + (k - 1) * a), k) for k in range(1, d + 1))
    k7 = worst7[1]
    rows.append((
        f"{_INEQUALITY_NAMES[6]} (k={k7})",
        c.alpha_level(k7 + 1), 2 * (c.alpha_level(k7) + (k7 - 1) * a),
        all(c.alpha_level(k + 1) > 2 * (c.alpha_level(k) + (k - 1) * a) for k in range(1, d + 1)),
    ))
    return rows


def derive_parameters(d: int, l: int, s: float, rho: float, mode: str = "theory",
                      overrides: dict | None = None) -> ParameterCascade:
    """Build the cascade; theory mode verifies the seven exponent inequalities."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if l < 1:
        raise ValueError("l must be >= 1")
    if rho <= 1:
        raise ValueError("rho must be > 1")
    if mode not in ("theory", "scaled"):
        raise ValueError(f"unknown mode {mode!r}")
    overrides = dict(overrides or {})
    m = 3**d + d + 2
    alpha = 1.0 / m
    p = float(s) - d
    alpha_k = tuple(3**k * alpha for k in range(1, d + 2))
    k1 = _k1(d)
    p1 = math.floor(p / 3) + 1
    eps1 = rho ** (-d - 2 * alpha)
    rho = float(rho)
    v_thresholds = overrides.pop("v_thresholds", None)
    if v_thresholds is None:
        v_thresholds = tuple(rho**a for a in alpha_k)
        b_radii = tuple(0.5 * rho ** (0.5 * a) for a in alpha_k[1:])
    else:
        v_thresholds = tuple(float(x) for x in v_thresholds)
        if len(v_thresholds) != d + 1:
            raise ValueError(f"v_thresholds needs {d + 1} levels (1..d+1)")
        if any(b <= a for a, b in zip(v_thresholds, v_thresholds[1:])):
            raise ValueError("v_thresholds must be strictly increasing")
        b_radii = tuple(0.5 * math.sqrt(x) for x in v_thresholds[1:])
    pool_radius = overrides.pop("pool_radius", None)
    series_pool_radius = overrides.pop("series_pool_radius", None)
    if series_pool_radius is None and mode == "theory":
        series_pool_radius = rho**alpha
    known_order = overrides.pop("known_order", None)
    a_radius = overrides.pop("a_radius", None)
    if overrides:
        raise ValueError(f"unknown overrides: {sorted(overrides)}")
    if known_order is None:
        known_order = series_cap(d)
    elif isinstance(known_order, bool) or not isinstance(known_order, numbers.Integral) \
            or not 1 <= known_order <= series_cap(d):
        raise ValueError(f"known_order must be an integer in 1..{series_cap(d)}: {known_order!r}")
    cascade = ParameterCascade(
        d=d, l=l, s=float(s), rho=rho, mode=mode,
        p=p, m=m, alpha=alpha, alpha_k=alpha_k, k1=k1, p1=p1, eps1=eps1,
        v_thresholds=v_thresholds, b_radii=b_radii,
        pool_radius=p * rho**alpha if pool_radius is None else pool_radius,
        series_pool_radius=series_pool_radius, known_order=known_order,
        a_radius=p1 * rho**alpha if a_radius is None else a_radius,
    )
    if mode == "theory":
        for name, lhs, rhs, ok in inequality_report(cascade):
            if not ok:
                raise CascadeInequalityViolated(name, f"lhs={lhs!r}, rhs={rhs!r}, s={s!r}")
    return cascade


# -- resonance sets -------------------------------------------------------


def in_shell(x, rho: float) -> bool:
    r = float(np.linalg.norm(x))
    return 0.5 * rho <= r < 1.5 * rho


@dataclass(frozen=True)
class ResonanceClass:
    """Verdict of the classification: level 0 is non-resonant."""

    level: int
    directions: tuple[LatticeVector, ...]
    margins: tuple[float, ...]
    min_pool_margin: float

    @property
    def is_resonant(self) -> bool:
        return self.level > 0


def direction_pool(lattice: LatticeModel, cascade: ParameterCascade) -> PlanewaveBasis:
    """The short directions behind the resonance sets: the index set of 0 < |gamma| < p rho^alpha."""
    return PlanewaveBasis(lattice, lattice.ball_coords(cascade.pool_radius))


def _plane_distances(x, pool_matrix: np.ndarray, pool_norm_sq: np.ndarray) -> np.ndarray:
    """|2(g, x) + |g|^2| = ||x + g|^2 - |x|^2| for every pool row g: the first-degree plane distances."""
    return np.abs(2.0 * (pool_matrix @ np.asarray(x, dtype=float)) + pool_norm_sq)


def membership_profile(lattice: LatticeModel, x, cascade: ParameterCascade,
                       pool: PlanewaveBasis | None = None):
    """Distances to every pool plane plus the E_k membership flags for k = 1..d (first-degree sets).

    Returns (pool, distances, member_flags); distance i belongs to pool row i.
    """
    if pool is None:
        pool = direction_pool(lattice, cascade)
    dists = _plane_distances(x, pool.embeddings, np.vecdot(pool.embeddings, pool.embeddings))
    flags = []
    for k in range(1, cascade.d + 1):
        idx = np.nonzero(dists < cascade.v_threshold(k))[0]
        flags.append(len(idx) >= k and integer_rank(pool.coords[idx]) >= k)
    return pool, dists, flags


def _lex_witnesses(pool: PlanewaveBasis, idx_sorted, k: int):
    """Greedy lexicographically-smallest independent k-tuple; returns indices."""
    chosen: list[int] = []
    for i in idx_sorted:
        trial = chosen + [i]
        if integer_rank(pool.coords[trial]) == len(trial):
            chosen = trial
            if len(chosen) == k:
                return chosen
    return None


def classify(lattice: LatticeModel, x, cascade: ParameterCascade,
             pool: PlanewaveBasis | None = None) -> ResonanceClass:
    """Largest k with x in E_k but not E_{k+1}; k = 0 is the non-resonance domain.

    Classification uses the first-degree sets (the partition of the annulus
    is stated for them; higher-degree sets are contained in them at equal
    thresholds).  Witness directions are the lexicographically smallest
    independent tuple.
    """
    x = np.asarray(x, dtype=float)
    if not in_shell(x, cascade.rho):
        raise ShellViolation(f"|x| = {np.linalg.norm(x)!r} outside [rho/2, 3rho/2) for rho = {cascade.rho!r}")
    pool, dists, flags = membership_profile(lattice, x, cascade, pool=pool)
    min_pool_margin = float(np.min(dists - cascade.v_threshold(1))) if len(dists) else float("inf")
    mem = [True] + flags  # mem[k] for k = 0..d
    level = None
    for k in range(cascade.d - 1, -1, -1):
        if mem[k] and not mem[k + 1]:
            level = k
            break
    if level is None:
        raise PartitionBreakdown(
            f"no level k in 0..{cascade.d - 1} with x in E_k \\ E_(k+1); E_d reaches the annulus at x = {x.tolist()}")
    if level == 0:
        return ResonanceClass(0, (), (), min_pool_margin)
    thr = cascade.v_threshold(level)
    idx = np.nonzero(dists < thr)[0]
    idx_sorted = idx[np.lexsort(pool.coords[idx].T[::-1])]  # by coordinates, the first column first
    witness_idx = _lex_witnesses(pool, idx_sorted, level)
    if witness_idx is None:
        raise PartitionBreakdown("membership flags inconsistent with witness search")
    margins = tuple(float(dists[i] - thr) for i in witness_idx)
    return ResonanceClass(level, tuple(lattice.vector(pool.coords[i]) for i in witness_idx), margins, min_pool_margin)
