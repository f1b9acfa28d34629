"""Known parts, the competitor set K, simplicity conditions, Bloch-coefficient
verification, and isoenergetic surface sampling.

A non-resonant point v is a simple-set member when its known part
F(v) = |v|^{2l} + F_{K-1}(v) stays at least 2 eps1 away from every
competitor's known part (non-resonant competitors) or block eigenvalue
(resonant competitors), the competitors being the gamma' whose free energy
lands within a third of the level-1 threshold of F(v).

The coefficient predictions A_k(offset) are path sums of series' walk
started at -offset (series._path_sums), one walk per offset for all orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .block import assemble_block, build_index_set, nearest_eigenvalue  # noqa: F401 (simple.assemble_block stays bound)
from .errors import NoBracket, PhaseDegenerate, PreconditionError, SpectralError
from .geometry import ParameterCascade, ResonanceClass, classify, direction_pool, membership_profile
from .lattice import LatticeModel, LatticeVector
from .oracle import BlochSpectrum
from .potential import FourierPotential
from .series import KnownPartExpansion, _path_sums, _series_pool, known_part_sequence


@dataclass(frozen=True)
class KnownPart:
    center: np.ndarray
    degree: int
    order: int
    value: float
    value_rel: float
    expansion: KnownPartExpansion

    def __post_init__(self):
        self.center.setflags(write=False)


def known_part(v, l: int, q: FourierPotential, cascade: ParameterCascade,
               order: int | None = None, min_denominator: float | None = None) -> KnownPart:
    """F(v) = |v|^{2l} + F_{K-1}(v); K defaults to the cascade's known order."""
    if order is None:
        order = cascade.known_order()
    expansion = known_part_sequence(v, l, q, cascade, k_max=order,
                                    min_denominator=min_denominator)
    return KnownPart(
        center=np.asarray(v, dtype=float).copy(), degree=l, order=order,
        value=expansion.known_part(), value_rel=expansion.known_part_rel(),
        expansion=expansion,
    )


def k_set(lattice: LatticeModel, v, t, cascade: ParameterCascade, l: int, q: FourierPotential,
          f_value: float | None = None, pool=None,
          window: float | None = None) -> list[tuple[LatticeVector, ResonanceClass]]:
    """Competitors gamma' with | F(v) - |gamma'+t|^{2l} | below threshold/3.

    The window forces |gamma'+t| into an annulus around F(v)^{1/2l}, which
    certifies the finite search ball.  Each competitor is tagged with its
    resonance class.
    """
    v = np.asarray(v, dtype=float)
    t = np.asarray(t, dtype=float)
    if f_value is None:
        f_value = known_part(v, l, q, cascade).value
    if window is None:
        window = cascade.k_window()
    hi = (f_value + window) ** (1.0 / (2 * l))
    if pool is None:
        pool = direction_pool(lattice, cascade)
    coords = lattice.enumerate_shifted_ball(-t, hi * (1 + 1e-12))
    x = lattice.embed(coords) + t
    near = np.flatnonzero(np.abs(f_value - np.vecdot(x, x) ** l) < window)
    return [(lattice.vector(coords[i]), classify(lattice, x[i], cascade, pool=pool)) for i in near]


@dataclass(frozen=True)
class CompetitorMargin:
    coords: tuple[int, ...]
    level: int
    kind: str  # "known-part" | "block"
    competitor_value: float
    margin: float  # |F(v) - value| - 2 eps1 (min over block eigenvalues for blocks)
    # blocks only: the solve's eigensolver, dense_fallback_reason, inertia_count, block_size and real_symmetric
    diagnostics: dict | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SimplicityReport:
    center: np.ndarray
    f_value: float
    eps1: float
    entries: tuple[CompetitorMargin, ...]
    member: bool

    def __post_init__(self):
        self.center.setflags(write=False)

    def violators(self) -> list[CompetitorMargin]:
        return [e for e in self.entries if e.margin < 0]


def check_simplicity(lattice: LatticeModel, v, cascade: ParameterCascade, l: int,
                     q: FourierPotential, order: int | None = None,
                     min_denominator: float | None = None) -> SimplicityReport:
    """Margins of the two simplicity conditions for every competitor.

    A non-resonant competitor's margin is |F(v) - F(x)| - 2 eps1, with x its
    point.  A resonant competitor's margin is |F(v) - lambda| - 2 eps1, with
    lambda the eigenvalue of its block nearest F(v), solved on the sparse
    block and certified by a Sylvester-inertia count, or on q's dense
    complex block when a guard of that solve trips
    (block.nearest_eigenvalue).  The sparse block is that of q's even
    translate, real symmetric, when q has one, else q's complex Hermitian
    block; each block entry's diagnostics record which path ran
    (real_symmetric) and which solve answered.  The member verdict holds
    exactly when every margin is >= 0, so an eigenvalue or known part
    exactly at F(v) +- 2 eps1 keeps v a member.  Requires v non-resonant
    and inside the shrunk annulus (PreconditionError otherwise).
    """
    v = np.asarray(v, dtype=float)
    lo, hi = cascade.shrunk_shell()
    r = float(np.linalg.norm(v))
    if not lo <= r < hi:
        raise PreconditionError(f"|v| = {r!r} outside the shrunk annulus [{lo!r}, {hi!r})")
    pool = direction_pool(lattice, cascade)
    verdict = classify(lattice, v, cascade, pool=pool)
    if verdict.is_resonant:
        raise PreconditionError("center must be non-resonant for the simplicity test")
    gamma0, t = lattice.split(v)
    center = known_part(v, l, q, cascade, order=order, min_denominator=min_denominator)
    eps1 = cascade.eps1
    entries = []
    for gamma, cls in k_set(lattice, v, t, cascade, l, q, f_value=center.value, pool=pool):
        if gamma.coords == gamma0.coords:
            continue
        x = gamma.embedding + t
        if cls.is_resonant:
            index_set = build_index_set(lattice, x, cls.directions, cascade, t=t)
            value, diagnostics = nearest_eigenvalue(index_set, l, q, center.value)
            entries.append(CompetitorMargin(
                coords=gamma.coords, level=cls.level, kind="block", competitor_value=value,
                margin=float(abs(value - center.value) - 2 * eps1), diagnostics=diagnostics,
            ))
        else:
            rival = known_part(x, l, q, cascade, order=order, min_denominator=min_denominator)
            entries.append(CompetitorMargin(
                coords=gamma.coords, level=0, kind="known-part",
                competitor_value=rival.value,
                margin=float(abs(center.value - rival.value) - 2 * eps1),
            ))
    entries.sort(key=lambda e: e.margin)
    return SimplicityReport(
        center=v.copy(), f_value=center.value, eps1=eps1,
        entries=tuple(entries), member=all(e.margin >= 0 for e in entries),
    )


# -- Bloch-coefficient verification ---------------------------------------


def _reachable_offsets(q: FourierPotential, max_steps: int) -> np.ndarray:
    """Nonzero sums of at most max_steps support vectors, as sorted (n, d) int64 rows."""
    support = np.array(q.support, dtype=np.int64).reshape(-1, q.lattice.dimension)
    current, seen = np.zeros((1, q.lattice.dimension), dtype=np.int64), []
    for _ in range(max_steps):
        current = np.unique((current[:, None, :] + support[None, :, :]).reshape(-1, support.shape[1]), axis=0)
        seen.append(current)
    offsets = np.unique(np.concatenate(seen), axis=0)
    return offsets[np.any(offsets != 0, axis=1)]


def coefficient_prediction(v, l: int, q: FourierPotential, offset, k: int,
                           known_rel: float = 0.0) -> complex:
    """Order-k coefficient prediction A_k(offset) for the eigenvector row.

    A_1 is q_offset over the free denominator |v|^{2l} - |v + offset|^{2l};
    A_k, k >= 2, sums the chains of k-1 further support steps against the
    known part |v|^{2l} + known_rel.  A_k is depth k-1 of series' path-sum
    walk started at -offset; SmallDenominator on an exactly zero
    denominator.
    """
    start = tuple(-int(c) for c in offset)
    rel = 0.0 if k == 1 else known_rel
    _, pool = _series_pool(q, None)
    return _path_sums(rel, np.asarray(v, dtype=float), l, q, pool, k - 1, 0.0, start=start)[0][k - 1]


@dataclass(frozen=True)
class CoefficientRow:
    offset: tuple[int, ...]
    predicted_first_order: complex
    predicted_total: complex
    measured: complex  # b(N, gamma + offset) / b(N, gamma), phase-normalized


@dataclass(frozen=True)
class BlochReport:
    eigen_index: int
    gamma: tuple[int, ...]
    order: int
    weight: float
    residual_mass: float
    rows: tuple[CoefficientRow, ...]
    normalization_predicted: float
    normalization_measured: float


def bloch_verify(spectrum: BlochSpectrum, n: int, gamma, order: int, q: FourierPotential,
                 known_rel: float = 0.0) -> BlochReport:
    """Residual mass and coefficient-law checks for one matched eigenvector.

    The eigenvector phase is normalized so b(N, gamma) is real positive;
    a dominant weight below 1/2 voids the simple-set premise.
    """
    gamma = tuple(int(c) for c in gamma)
    pos = spectrum.position(gamma)
    if pos is None:
        raise PhaseDegenerate(f"gamma {gamma} not in the oracle basis")
    row = spectrum.coefficients[n]
    b_gamma = row[pos]
    weight = abs(b_gamma) ** 2
    if weight < 0.5:
        raise PhaseDegenerate(f"|b(N, gamma)|^2 = {weight!r} < 1/2")
    phase = b_gamma / abs(b_gamma)
    row = row / phase
    b_gamma = abs(b_gamma)
    residual_mass = float(np.sum(np.abs(row) ** 2) - weight)
    l = spectrum.degree
    v = spectrum.basis.lattice.embed(gamma) + spectrum.t
    _, pool = _series_pool(q, None)

    def predictions(offset) -> list[complex]:
        """A_1 .. A_{max(order, 2) - 1} (coefficient_prediction): A_1, then the rest from one walk."""
        start = tuple(-int(c) for c in offset)
        first = _path_sums(0.0, v, l, q, pool, 0, 0.0, start=start)[0]
        if order <= 2:
            return first
        return first + _path_sums(known_rel, v, l, q, pool, order - 2, 0.0, start=start)[0][1:]

    rows = []
    for g in q.support:
        orders = predictions(g)
        target = tuple(a + b for a, b in zip(gamma, g))
        tpos = spectrum.position(target)
        measured = complex(row[tpos] / b_gamma) if tpos is not None else 0j
        rows.append(CoefficientRow(
            offset=g, predicted_first_order=complex(orders[0]),
            predicted_total=complex(sum(orders)), measured=measured,
        ))
    norm_pred = 1.0
    if order >= 2:
        table = [predictions(off) for off in _reachable_offsets(q, order - 1)]
        acc = 0.0
        for k in range(order - 1):
            for orders in table:
                acc += abs(orders[k]) ** 2
        norm_pred = float(1.0 / np.sqrt(1.0 + acc))
    return BlochReport(
        eigen_index=n, gamma=gamma, order=order, weight=float(weight),
        residual_mass=residual_mass, rows=tuple(rows),
        normalization_predicted=norm_pred, normalization_measured=float(b_gamma),
    )


# -- isoenergetic sampling --------------------------------------------------


@dataclass(frozen=True)
class RayRoot:
    direction: tuple[float, ...]
    radius: float | None
    point: tuple[float, ...] | None
    f_value: float | None
    skipped: str | None


def _min_plane_margin(lattice, x, cascade, pool, multiplier: float) -> float:
    _, dists, _ = membership_profile(lattice, x, cascade, pool=pool)
    if len(dists) == 0:
        return float("inf")
    return float(np.min(dists) - multiplier * cascade.v_threshold(1))


def isoenergetic_sample(lattice: LatticeModel, rho: float, l: int, q: FourierPotential,
                        cascade: ParameterCascade, ray_directions, order: int | None = None,
                        rel_tol: float = 1e-9, max_bisect: int = 200,
                        newton_steps: int = 3) -> list[RayRoot]:
    """Per ray, the radius where the known part crosses rho^{2l}.

    Rays whose crossing lands in a resonant region (doubled level-1
    threshold, matching the isoenergetic-surface definition) are reported
    and skipped.  Roots are bracketed, bisected, then Newton-polished with
    a finite-difference slope.
    """
    target = float(rho) ** (2 * l)
    pool = direction_pool(lattice, cascade)
    if order is None:
        order = cascade.known_order()

    def f_at(r: float, u: np.ndarray) -> float:
        x = r * u
        exp = known_part_sequence(x, l, q, cascade, k_max=order)
        return exp.known_part()

    results = []
    for direction in ray_directions:
        u = np.asarray(direction, dtype=float)
        u = u / np.linalg.norm(u)
        margin = _min_plane_margin(lattice, rho * u, cascade, pool, multiplier=2.0)
        if margin < 0:
            results.append(RayRoot(tuple(u), None, None, None,
                                   "resonant: doubled-threshold margin %r" % margin))
            continue
        width = 0.5
        lo = hi = None
        for _ in range(8):
            lo_try, hi_try = rho - width, rho + width
            try:
                g_lo = f_at(lo_try, u) - target
                g_hi = f_at(hi_try, u) - target
            except SpectralError:
                break
            if g_lo < 0 < g_hi:
                lo, hi = lo_try, hi_try
                break
            width *= 2.0
        if lo is None:
            raise NoBracket(f"known part does not cross {target!r} along ray {tuple(u)}")
        for _ in range(max_bisect):
            mid = 0.5 * (lo + hi)
            if f_at(mid, u) - target < 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-13 * rho:
                break
        root = 0.5 * (lo + hi)
        h = 1e-6 * rho
        for _ in range(newton_steps):
            g = f_at(root, u) - target
            slope = (f_at(root + h, u) - f_at(root - h, u)) / (2 * h)
            if slope == 0:
                break
            root -= g / slope
        f_root = f_at(root, u)
        if abs(f_root - target) > rel_tol * target:
            raise NoBracket(f"root polish failed on ray {tuple(u)}: residual {abs(f_root - target)!r}")
        results.append(RayRoot(tuple(u), float(root), tuple(root * u), float(f_root), None))
    return results
