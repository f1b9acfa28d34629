"""Band functions over quasimomentum grids, gap detection, and Monte-Carlo
measure estimates for the resonance partition.

Bands are evaluated on a half-open uniform grid over the dual fundamental
cell with one shared full-ball basis whose radius is certified by a
refinement check; gaps are the complement of the band-range union and are
only reported when stable under grid doubling.

Translating q(x) -> q(x + x0) keeps every band, so the band layer solves
q's eigenvalue table (FourierPotential.eigenvalue_table), as the resonant
block's nearest eigenvalue and the oracle's windows do.  On an even
translate (every table whose +- pairs are linearly independent has one)
its symmetry group holds -I and whatever mirrors the real table has.
BandTable.real_symmetric says which arithmetic ran.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientBands, PreconditionError, WindowNotConverged
from .geometry import ParameterCascade, classify, direction_pool
from .lattice import LatticeModel
from .numerics import SERIAL_BAND_BASIS, capped_blas_threads, relative_energies
from .oracle import PlanewaveBasis, assemble
from .potential import FourierPotential

_CERTIFY_TOL = 1e-9
_CERTIFY_TRIES = 6  # basis radii certified_basis_radius tries, each 1.25x the last
_STABLE_TOL = 1e-3  # stable_gap_report's relative tolerance on gap endpoints
MAX_BAND_BASIS = 4096  # plane waves in one dense band solve: its matrix alone takes 16 n^2 bytes (256 MiB)
MIN_MEASURE_SAMPLES = 1000


@dataclass(frozen=True)
class BandTable:
    grid_counts: tuple[int, ...]
    n_bands: int
    t_points: np.ndarray  # (n_points, d)
    values: np.ndarray  # (n_points, n_bands), ascending along axis 1
    basis_radius: float
    axis_steps: tuple[float, ...]  # |dual_basis[axis]| / grid_counts[axis]
    solved_points: int = 0  # eigensolves behind the values; 0 for a subsampled table
    symmetry_order: int = 1  # number of grid maps the values were copied along
    real_symmetric: bool = False  # solved as q's even translate, by real symmetric eigensolves

    def __post_init__(self):
        self.t_points.setflags(write=False)
        self.values.setflags(write=False)

    @property
    def band_min(self) -> np.ndarray:
        return self.values.min(axis=0)

    @property
    def band_max(self) -> np.ndarray:
        return self.values.max(axis=0)

    def every_other(self) -> "BandTable":
        """The table on the grid of half the (even) counts: the even-index points."""
        half = tuple(n // 2 for n in self.grid_counts)
        even = tuple(slice(None, None, 2) for _ in half)

        def sub(a):
            return a.reshape(self.grid_counts + a.shape[1:])[even].reshape(-1, a.shape[1])

        return BandTable(half, self.n_bands, sub(self.t_points), sub(self.values), self.basis_radius,
                         tuple(2 * s for s in self.axis_steps), symmetry_order=self.symmetry_order,
                         real_symmetric=self.real_symmetric)

    def write_csv(self, fh):
        writer = csv.writer(fh)
        d = self.t_points.shape[1]
        writer.writerow([f"t{i}" for i in range(d)] + ["n", "lambda"])
        for i in range(len(self.t_points)):
            for n in range(self.n_bands):
                writer.writerow([repr(float(x)) for x in self.t_points[i]] + [n + 1, repr(float(self.values[i, n]))])


def certified_basis_radius(lattice: LatticeModel, l: int, q: FourierPotential, n_bands: int) -> float:
    """Smallest tried full-ball radius whose first n_bands eigenvalues are
    stable (1e-9 relative) under a 1.5x radius refinement at the probe t
    of _probe_points; _CERTIFY_TRIES radii are tried.

    PreconditionError, before anything is allocated, when the 2 n_bands
    waves the search starts from, or a ball it then solves, exceed
    MAX_BAND_BASIS."""
    if 2 * n_bands > MAX_BAND_BASIS:
        raise PreconditionError(f"n_bands = {n_bands} needs a basis of at least {2 * n_bands} plane waves; "
                                f"a dense band solve takes at most {MAX_BAND_BASIS}")
    probe_t = _probe_points(lattice)["probe"]
    q = q.eigenvalue_table()
    # start from the free-counting estimate plus coupling reach
    radius = 1.0
    while len(lattice.ball_coords(radius, exclude_zero=False)) < 2 * n_bands:
        radius += 0.5
    radius += 2.0 * max(q.support_radius, 1.0)
    for _ in range(_CERTIFY_TRIES):
        move = _basis_move(lattice, l, q, probe_t, radius, n_bands)
        if move < _CERTIFY_TOL:
            return radius
        radius *= 1.25
    raise WindowNotConverged(f"basis radius not certified after {_CERTIFY_TRIES} refinements (last move {move:.3e})")


def _probe_points(lattice: LatticeModel) -> dict[str, np.ndarray]:
    """The t where basis moves are measured: certified_basis_radius's interior
    probe, coefficients (0.37, ..., 0.37, 0.23), and the cell corner
    t = (b_1 + ... + b_d) / 2, near which the truncation error is largest."""
    coeff = np.full(lattice.dimension, 0.37)
    coeff[-1] = 0.23
    return {"probe": coeff @ lattice.dual_basis, "corner": 0.5 * lattice.dual_basis.sum(axis=0)}


def basis_moves(lattice: LatticeModel, l: int, q: FourierPotential, radius: float,
                n_bands: int) -> dict[str, float]:
    """The largest relative move of the first n_bands under a 1.5x basis
    radius, at each of _probe_points: the probe's is the one
    certified_basis_radius bounds, the corner's is only reported."""
    q = q.eigenvalue_table()
    return {f"{name}_move": _basis_move(lattice, l, q, t, radius, n_bands)
            for name, t in _probe_points(lattice).items()}


def _basis_move(lattice, l, q, t, radius, n_bands) -> float:
    """max |small - big| / (1 + |big|) over the first n_bands at t, on the radius and 1.5x balls."""
    values = []
    for r in (radius, 1.5 * radius):
        basis = _band_basis(lattice, r, n_bands)
        with _band_threads(basis):
            values.append(_bands_at(_band_couplings(l, q, basis), basis, l, t, n_bands))
    small, big = values
    return float(np.max(np.abs(small - big) / (1.0 + np.abs(big))))


def _band_couplings(l: int, q: FourierPotential, basis: PlanewaveBasis) -> np.ndarray:
    """q's dense operator over basis at t = 0, from oracle.assemble's sparse one.

    Its off-diagonal is the band couplings at every t, and _bands_at
    overwrites its diagonal.
    """
    return assemble(l, q, np.zeros(basis.embeddings.shape[1]), basis, sparse=True).toarray()


def _band_threads(basis: PlanewaveBasis):
    """The BLAS thread cap for dense solves on basis: one thread up to SERIAL_BAND_BASIS waves."""
    return capped_blas_threads(1 if len(basis) <= SERIAL_BAND_BASIS else None)


def _bands_at(H, basis: PlanewaveBasis, l: int, t, n_bands: int) -> np.ndarray:
    """The lowest n_bands eigenvalues at t, writing the diagonal |gamma + t|^{2l} into the couplings H."""
    H[np.diag_indices(len(basis))] = relative_energies(np.zeros_like(t), basis.embeddings + t, l)
    return np.linalg.eigvalsh(H)[:n_bands]


def _band_basis(lattice: LatticeModel, radius: float, n_bands: int) -> PlanewaveBasis:
    """The full ball of the given radius, checked to carry n_bands bands in a dense solve.

    InsufficientBands below n_bands waves; PreconditionError above
    MAX_BAND_BASIS, before the dense matrix is allocated.
    """
    basis = PlanewaveBasis.full_ball(lattice, radius)
    if len(basis) < n_bands:
        raise InsufficientBands(f"basis of {len(basis)} plane waves cannot carry {n_bands} bands")
    if len(basis) > MAX_BAND_BASIS:
        raise PreconditionError(f"basis radius {radius:.6g} holds {len(basis)} plane waves; "
                                f"a dense band solve takes at most {MAX_BAND_BASIS}")
    return basis


def symmetry_group(lattice: LatticeModel, q: FourierPotential, grid_counts,
                   basis: PlanewaveBasis) -> tuple[np.ndarray, ...]:
    """Maps c -> cM of grid coefficients c = k / grid_counts that leave the
    spectrum on the basis unchanged.  A point-group element M that maps the
    grid onto itself gives M when n -> nM maps the basis onto itself
    (one-to-one, so onto once every image is in the basis) and
    q_{nM} = q_n: H(cM) is H(c) permuted by n -> nM.  It gives its
    time-reversed partner -M when n -> -nM maps the basis onto itself and
    q_{-nM} = conj(q_n): H(-cM) is conj H(c) permuted by n -> -nM.  Only
    a basis closed under negation, such as a full ball, is mapped onto
    itself by both."""
    counts = np.array(grid_counts)
    maps = {}
    for M in lattice.point_group():
        if np.any(M * counts % counts[:, None]):
            continue
        for sign in (1, -1):
            if np.all(basis.positions(sign * basis.coords @ M) >= 0) and q.is_invariant(M, time_reversed=sign < 0):
                maps.setdefault((sign * M).tobytes(), sign * M)
    return tuple(maps.values())


def band_functions(lattice: LatticeModel, l: int, q: FourierPotential, grid_counts,
                   n_bands: int, basis_radius: float | None = None) -> BandTable:
    """Per-band extrema over a half-open uniform grid on the dual cell.

    The basis is shared across grid points (only the diagonal depends on
    t), and its radius is certified by refinement unless given explicitly.
    The matrices are those of q's eigenvalue table (see the module
    docstring).
    One point per orbit of symmetry_group, the lexicographically smallest,
    is solved and its values are copied to the orbit.  A copy agrees with a
    direct solve up to the basis truncation error (by which finite-basis
    bands also fail to be periodic in t); a certified radius keeps it below
    1e-9 relative.
    """
    grid_counts = checked_grid(grid_counts)
    if basis_radius is None:
        basis_radius = certified_basis_radius(lattice, l, q, n_bands)
    basis = _band_basis(lattice, basis_radius, n_bands)
    counts = np.array(grid_counts)
    k = np.indices(grid_counts).reshape(len(counts), -1).T
    t_points = (k / counts) @ lattice.dual_basis
    q = q.eigenvalue_table()
    group = symmetry_group(lattice, q, grid_counts, basis)
    # k -> kM on coefficients is k -> k A mod counts on indices, A_ij = M_ij counts_j / counts_i
    rep = np.min([np.ravel_multi_index(((k @ (M * counts // counts[:, None])) % counts).T, grid_counts)
                  for M in group], axis=0)
    solve, source = np.unique(rep, return_inverse=True)
    H = _band_couplings(l, q, basis)
    with _band_threads(basis):
        solved = [_bands_at(H, basis, l, t_points[i], n_bands) for i in solve]
    steps = tuple(float(np.linalg.norm(lattice.dual_basis[i])) / grid_counts[i]
                  for i in range(lattice.dimension))
    return BandTable(grid_counts=grid_counts, n_bands=n_bands,
                     t_points=t_points, values=np.array(solved)[source], basis_radius=float(basis_radius),
                     axis_steps=steps, solved_points=len(solve), symmetry_order=len(group),
                     real_symmetric=q.is_real)


def checked_grid(grid_counts) -> tuple[int, ...]:
    """Grid counts as a tuple of ints; ValueError below 8 points on some axis."""
    grid_counts = tuple(int(n) for n in grid_counts)
    if min(grid_counts) < 8:
        raise ValueError("need at least 8 grid points per axis")
    return grid_counts


@dataclass(frozen=True)
class GapReport:
    gaps: tuple[tuple[float, float], ...]
    e_min: float
    e_max: float
    stable: bool | None  # None when only one refinement level was scanned

    @property
    def gap_count(self) -> int:
        return len(self.gaps)


def gap_report(table: BandTable, e_min: float, e_max: float, enforce_coverage: bool) -> GapReport:
    """Open intervals inside [e_min, e_max] missed by every band range.

    With enforce_coverage, as in stable_gap_report, the top band's minimum
    must exceed e_max (InsufficientBands otherwise), so no gap can hide
    above the scanned bands; without it the report lists what the table's
    bands leave open, a partial answer.
    """
    mins = table.band_min
    maxs = table.band_max
    if enforce_coverage and mins[-1] <= e_max:
        raise InsufficientBands(
            f"top band min {mins[-1]!r} does not exceed e_max {e_max!r}; add bands")
    intervals = sorted(zip(mins, maxs))
    gaps = []
    cover = e_min
    for lo, hi in intervals:
        if hi <= cover:
            continue
        if lo > cover and cover < e_max:
            gap_hi = min(lo, e_max)
            if gap_hi > cover:
                gaps.append((float(cover), float(gap_hi)))
        cover = max(cover, hi)
        if cover >= e_max:
            break
    if cover < e_max:
        gaps.append((float(cover), float(e_max)))
    return GapReport(gaps=tuple(gaps), e_min=float(e_min), e_max=float(e_max), stable=None)


def stable_gap_report(lattice: LatticeModel, l: int, q: FourierPotential, grid_counts,
                      n_bands: int, e_min: float, e_max: float | None,
                      basis_radius: float | None = None) -> tuple[GapReport, BandTable, BandTable]:
    """Gap scan at the given grid and at the doubled grid.

    Only the doubled grid is solved; the coarse table is its even-index
    subsample, whose t points are bitwise the coarse grid's.  The report
    carries the fine-grid gaps; stable is true when both levels agree on
    the gap count and on endpoints to _STABLE_TOL relative.  With e_max None
    it is set just below the fine grid's top-band minimum, which bounds
    the coarse table's too, so the coverage check holds at both levels.
    """
    fine = band_functions(lattice, l, q, tuple(2 * n for n in checked_grid(grid_counts)),
                          n_bands, basis_radius)
    coarse = fine.every_other()
    if e_max is None:
        top = float(fine.band_min[-1])
        e_max = top - 1e-3 * max(abs(top), 1.0)
    g_coarse = gap_report(coarse, e_min, e_max, enforce_coverage=True)
    g_fine = gap_report(fine, e_min, e_max, enforce_coverage=True)
    stable = g_coarse.gap_count == g_fine.gap_count
    if stable:
        for (a1, b1), (a2, b2) in zip(g_coarse.gaps, g_fine.gaps):
            scale = max(abs(a2), abs(b2), 1e-300)
            if abs(a1 - a2) > _STABLE_TOL * scale or abs(b1 - b2) > _STABLE_TOL * scale:
                stable = False
                break
    return GapReport(gaps=g_fine.gaps, e_min=g_fine.e_min, e_max=g_fine.e_max, stable=stable), coarse, fine


def continuity_report(table: BandTable, l: int) -> float:
    """Largest per-band jump between grid neighbors, normalized by the
    free-gradient scale 2 l rho^{2l-1} times the grid step, rho = (max lambda)^{1/(2l)}.

    Large values flag eigenvalue-sorting artifacts at band crossings.
    """
    counts = table.grid_counts
    d = len(counts)
    shape = counts + (table.n_bands,)
    grid = table.values.reshape(shape)
    rho_scale = np.power(max(table.values.max(), 1.0), 1.0 / (2 * l))  # np.sqrt's bits at l = 1
    worst = 0.0
    for axis in range(d):
        jumps = np.abs(np.diff(grid, axis=axis))
        scale = table.axis_steps[axis] * 2 * l * rho_scale ** (2 * l - 1)
        worst = max(worst, float(jumps.max() / scale))
    return worst


@dataclass(frozen=True)
class MeasureEstimate:
    rho: float
    n_samples: int
    seed: int
    counts: dict
    fractions: dict
    stderr: dict

    def resonant_fraction(self) -> float:
        return 1.0 - self.fractions["U"]


def measure_fraction(lattice: LatticeModel, rho: float, cascade: ParameterCascade,
                     n_samples: int, seed: int) -> MeasureEstimate:
    """Classify uniform samples on the sphere |x| = rho into partition cells.

    Fractions sum to one exactly (every sample receives one cell);
    standard errors are binomial.
    """
    if n_samples < MIN_MEASURE_SAMPLES:
        raise ValueError(f"need at least {MIN_MEASURE_SAMPLES} samples")
    rng = np.random.default_rng(seed)
    pool = direction_pool(lattice, cascade)
    d = lattice.dimension
    labels = ["U"] + [f"E{k}" for k in range(1, d)]
    counts = {lab: 0 for lab in labels}
    for _ in range(n_samples):
        x = rng.standard_normal(d)
        x *= rho / np.linalg.norm(x)
        verdict = classify(lattice, x, cascade, pool=pool)
        lab = "U" if verdict.level == 0 else f"E{verdict.level}"
        counts[lab] += 1
    fractions = {lab: counts[lab] / n_samples for lab in labels}
    stderr = {lab: float(np.sqrt(f * (1 - f) / n_samples)) for lab, f in fractions.items()}
    return MeasureEstimate(rho=float(rho), n_samples=n_samples, seed=seed,
                           counts=counts, fractions=fractions, stderr=stderr)
