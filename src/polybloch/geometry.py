"""Exponent cascade and resonance / non-resonance classification of quasimomenta.

A point x in the annulus rho/2 <= |x| < 3 rho/2 is resonant at level k when
it lies within the level-k threshold of k linearly independent diffraction
planes drawn from the short dual vectors; otherwise it is non-resonant.
Theory mode uses the graded exponents alpha_k = 3^k / m; scaled mode keeps
every set definition but substitutes caller-supplied thresholds, since the
theory exponents are invisible at desk-scale rho.

Variant single-plane sets that rescale the threshold by a constant bracket
the parametrized form used here (the set at half the threshold is contained
in the unit-constant variant, which is contained in the set at 3/2 the
threshold), so only this form is implemented; constant choices live in the
cascade's constants table.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import CascadeInequalityViolated, PartitionBreakdown, ShellViolation
from .lattice import LatticeModel, LatticeVector
from .numerics import integer_rank, power_difference

# series order is capped regardless of k1: term count grows as |support|^k
MAX_SERIES_ORDER = 6


def _k1(d: int) -> int:
    """k1 = floor(d / (3 alpha)) + 2 with alpha = 1/m, m = 3^d + d + 2: a function of d alone."""
    return math.floor(d / (3 * (1.0 / (3**d + d + 2)))) + 2


def series_cap(d: int) -> int:
    """Highest series order evaluated at dimension d: k1, capped at MAX_SERIES_ORDER."""
    return min(_k1(d), MAX_SERIES_ORDER)


@dataclass(frozen=True)
class ParameterCascade:
    """Derived exponent bookkeeping for one (d, l, s, rho) experiment."""

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
    constants: dict = field(default_factory=dict)
    # scaled-mode overrides (None = derive from theory exponents)
    v_thresholds: tuple[float, ...] | None = None  # per level 1 .. d+1
    pool_radius_override: float | None = None
    series_pool_radius_override: float | None = None
    known_order_override: int | None = None
    a_radius_override: float | None = None

    def constant(self, i: int) -> float:
        return float(self.constants.get(i, 1.0))

    def alpha_level(self, k: int) -> float:
        if not 1 <= k <= self.d + 1:
            raise ValueError(f"level {k} outside 1..{self.d + 1}")
        return self.alpha_k[k - 1]

    def v_threshold(self, k: int) -> float:
        """Level-k resonance threshold (rho^alpha_k or its scaled stand-in)."""
        if self.v_thresholds is not None:
            return self.v_thresholds[k - 1]
        return self.rho ** self.alpha_level(k)

    def direction_pool_radius(self) -> float:
        """Radius of the direction pool for the resonance sets (p rho^alpha)."""
        if self.pool_radius_override is not None:
            return self.pool_radius_override
        return self.p * self.rho**self.alpha

    def series_pool_radius(self) -> float | None:
        """Radius of the series summation pool (rho^alpha); None = potential support."""
        if self.series_pool_radius_override is not None:
            return self.series_pool_radius_override
        if self.mode == "scaled":
            return None
        return self.rho**self.alpha

    def known_order(self) -> int:
        if self.known_order_override is not None:
            return self.known_order_override
        return self.series_cap()

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
        """Span-combination radius for the level-k block: rho^{alpha_{k+1}/2} / 2."""
        if self.v_thresholds is not None:
            return 0.5 * math.sqrt(self.v_thresholds[k])
        return 0.5 * self.rho ** (0.5 * self.alpha_level(k + 1))

    def block_a_radius(self) -> float:
        """Lattice-translate radius for the block: p1 rho^alpha."""
        if self.a_radius_override is not None:
            return self.a_radius_override
        return self.p1 * self.rho**self.alpha

    def shell(self) -> tuple[float, float]:
        return 0.5 * self.rho, 1.5 * self.rho

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
    v_thresholds = overrides.pop("v_thresholds", None)
    if v_thresholds is not None:
        v_thresholds = tuple(float(x) for x in v_thresholds)
        if len(v_thresholds) != d + 1:
            raise ValueError(f"v_thresholds needs {d + 1} levels (1..d+1)")
        if any(b <= a for a, b in zip(v_thresholds, v_thresholds[1:])):
            raise ValueError("v_thresholds must be strictly increasing")
    cascade = ParameterCascade(
        d=d, l=l, s=float(s), rho=float(rho), mode=mode,
        p=p, m=m, alpha=alpha, alpha_k=alpha_k, k1=k1, p1=p1, eps1=eps1,
        constants=dict(overrides.pop("constants", {})),
        v_thresholds=v_thresholds,
        pool_radius_override=overrides.pop("pool_radius", None),
        series_pool_radius_override=overrides.pop("series_pool_radius", None),
        known_order_override=overrides.pop("known_order", None),
        a_radius_override=overrides.pop("a_radius", None),
    )
    if overrides:
        raise ValueError(f"unknown overrides: {sorted(overrides)}")
    known_order = cascade.known_order_override
    if known_order is not None and (isinstance(known_order, bool) or not isinstance(known_order, numbers.Integral)
                                    or not 1 <= known_order <= cascade.series_cap()):
        raise ValueError(f"known_order must be an integer in 1..{cascade.series_cap()}: {known_order!r}")
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


def direction_pool(lattice: LatticeModel, cascade: ParameterCascade) -> list[LatticeVector]:
    return lattice.enumerate_ball(cascade.direction_pool_radius(), exclude_zero=True)


def _plane_distances(x, pool_matrix: np.ndarray, pool_norm_sq: np.ndarray, l: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    a_val = float(x @ x)
    first = 2.0 * (pool_matrix @ x) + pool_norm_sq
    if l == 1:
        return np.abs(first)
    return np.abs(power_difference(first, a_val + first, a_val, l))


def membership_profile(lattice: LatticeModel, x, cascade: ParameterCascade,
                       pool: list[LatticeVector] | None = None, degree: int = 1):
    """Distances to every pool plane plus the E_k membership flags for k = 1..d.

    Returns (pool, distances, member_flags).
    """
    if pool is None:
        pool = direction_pool(lattice, cascade)
    pool_matrix = np.array([v.embedding for v in pool]) if pool else np.zeros((0, cascade.d))
    pool_norm_sq = np.array([v.norm_sq for v in pool]) if pool else np.zeros(0)
    dists = _plane_distances(x, pool_matrix, pool_norm_sq, degree) if pool else np.zeros(0)
    flags = []
    for k in range(1, cascade.d + 1):
        idx = np.nonzero(dists < cascade.v_threshold(k))[0]
        if len(idx) < k:
            flags.append(False)
            continue
        rank = integer_rank([pool[i].coords for i in idx])
        flags.append(rank >= k)
    return pool, dists, flags


def _lex_witnesses(pool, idx_sorted, k: int):
    """Greedy lexicographically-smallest independent k-tuple; returns indices."""
    chosen: list[int] = []
    for i in idx_sorted:
        trial = chosen + [i]
        if integer_rank([pool[j].coords for j in trial]) == len(trial):
            chosen = trial
            if len(chosen) == k:
                return chosen
    return None


def classify(lattice: LatticeModel, x, cascade: ParameterCascade,
             pool: list[LatticeVector] | None = None, degree: int = 1) -> ResonanceClass:
    """Largest k with x in E_k but not E_{k+1}; k = 0 is the non-resonance domain.

    Classification uses the first-degree sets (the partition of the annulus
    is stated for them; higher-degree sets are contained in them at equal
    thresholds).  Witness directions are the lexicographically smallest
    independent tuple.
    """
    x = np.asarray(x, dtype=float)
    if not in_shell(x, cascade.rho):
        raise ShellViolation(f"|x| = {np.linalg.norm(x)!r} outside [rho/2, 3rho/2) for rho = {cascade.rho!r}")
    pool, dists, flags = membership_profile(lattice, x, cascade, pool=pool, degree=degree)
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
    idx_sorted = sorted(idx, key=lambda i: pool[i].coords)
    witness_idx = _lex_witnesses(pool, idx_sorted, level)
    if witness_idx is None:
        raise PartitionBreakdown("membership flags inconsistent with witness search")
    margins = tuple(float(dists[i] - thr) for i in witness_idx)
    return ResonanceClass(level, tuple(pool[i] for i in witness_idx), margins, min_pool_margin)
