"""Resonant-case machinery: translated index sets, the coupling block matrix,
and matching of its eigenvalues against the oracle.

Near k independent diffraction planes the eigenvalue is tracked not by a
scalar series but by a finite Hermitian block: indices are the distinct
points gamma0 + b + a (b an integer combination of the resonance
directions inside a span ball, a a short lattice translate), the diagonal
holds |h_i + t|^{2l} and the off-diagonal the potential couplings
q_{h_i - h_j}.

Both blocks, dense and sparse, come from oracle.assemble.  Simplicity
verdicts need only the block eigenvalue nearest a known part:
nearest_eigenvalue solves for it on the sparse block, real when q has an
even translate, with the oracle's shift-invert core and proves it nearest
by a Sylvester-inertia count, or solves q's dense block when a guard of
that solve trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyDirections, PreconditionError
from .geometry import ParameterCascade
from .lattice import CoordinateIndex, LatticeModel, LatticeVector, _integer_box, _ordered
from .numerics import integer_rank
from .oracle import _PIVOT_TOL, _RESIDUAL_TOL, BlochSpectrum, _inertia, _shift_invert, assemble
from .potential import FourierPotential


@dataclass(frozen=True)
class ResonantIndexSet:
    """Distinct points h_i + t forming the block index set around v = gamma0 + t.

    coords holds the h_i, gamma0 among them, as read-only (n, d) int64 rows;
    embeddings holds coords @ dual_basis.
    """

    lattice: LatticeModel
    center: np.ndarray
    t: np.ndarray
    gamma0: LatticeVector
    directions: tuple[LatticeVector, ...]
    coords: np.ndarray = field(repr=False, compare=False)
    b_radius: float
    a_radius: float
    embeddings: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.center.setflags(write=False)
        self.t.setflags(write=False)
        coords, embeddings = self.lattice.index_arrays(self.coords)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "embeddings", embeddings)

    @property
    def size(self) -> int:
        return len(self.coords)


def _span_combinations(directions: list[LatticeVector], radius: float) -> np.ndarray:
    """(m, d) int64 coordinates of the combinations b = sum n_i gamma_i with |b| < radius (strict)."""
    mat = np.array([g.embedding for g in directions])
    sigma_min = np.linalg.svd(mat, compute_uv=False).min()
    bound = int(np.floor(radius / sigma_min + 1e-9))
    n = _integer_box([-bound] * len(directions), [bound] * len(directions))
    emb = np.vecmat(n.astype(float), mat)
    inside = np.sqrt(np.vecdot(emb, emb)) < radius
    return n[inside] @ np.array([g.coords for g in directions], dtype=np.int64)


def build_index_set(lattice: LatticeModel, v, directions, cascade: ParameterCascade | None = None,
                    b_radius: float | None = None, a_radius: float | None = None,
                    t=None) -> ResonantIndexSet:
    """Enumerate {gamma0 + b + a}, deterministic order by (|offset|^2, coords)."""
    directions = list(directions)
    if not directions:
        raise EmptyDirections("need at least one resonance direction")
    if integer_rank([g.coords for g in directions]) != len(directions):
        raise PreconditionError("directions must be linearly independent")
    if len(directions) > lattice.dimension - 1:
        raise PreconditionError("at most d - 1 directions")
    v = np.asarray(v, dtype=float)
    gamma0, t = lattice.split(v, t)
    k = len(directions)
    if b_radius is None:
        if cascade is None:
            raise PreconditionError("need b_radius or a cascade")
        b_radius = cascade.block_b_radius(k)
    if a_radius is None:
        if cascade is None:
            raise PreconditionError("need a_radius or a cascade")
        a_radius = cascade.block_a_radius()
    b = _span_combinations(directions, b_radius)
    a = lattice.ball_coords(a_radius, exclude_zero=False)
    offsets = np.unique((b[:, None, :] + a[None, :, :]).reshape(-1, lattice.dimension), axis=0)
    emb = lattice.embed(offsets)
    # h = gamma0 + offset orders lexicographically as the offsets do
    coords = _ordered(offsets, np.vecdot(emb, emb)) + np.asarray(gamma0.coords, dtype=np.int64)
    return ResonantIndexSet(
        lattice=lattice, center=v.copy(), t=t.copy(), gamma0=gamma0,
        directions=tuple(directions), coords=coords,
        b_radius=float(b_radius), a_radius=float(a_radius),
    )


@dataclass(frozen=True)
class ResonantBlock:
    """Hermitian coupling block and its ascending eigenvalues."""

    index_set: ResonantIndexSet
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvalues_rel: np.ndarray
    shift: float

    def __post_init__(self):
        for arr in (self.matrix, self.eigenvalues, self.eigenvalues_rel):
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.eigenvalues)


def assemble_block(index_set: ResonantIndexSet, l: int, q: FourierPotential) -> ResonantBlock:
    """Entries c_ii = |h_i + t|^{2l}, c_ij = q_{h_i - h_j} (zero off support)."""
    v = index_set.center
    shift = float(v @ v) ** l
    H = assemble(l, q, index_set.t, index_set, shift_center=v)
    evals_rel = np.linalg.eigvalsh(H)
    H[np.diag_indices(index_set.size)] += shift
    return ResonantBlock(
        index_set=index_set, matrix=H,
        eigenvalues=evals_rel + shift, eigenvalues_rel=evals_rel, shift=shift,
    )


def nearest_eigenvalue(index_set: ResonantIndexSet, l: int, q: FourierPotential,
                       target: float) -> tuple[float, dict]:
    """The eigenvalue of the block on index_set nearest target, and the solve's diagnostics.

    The sparse block solved is that of q's even translate when q has one
    (FourierPotential.eigenvalue_table): D H D^H for a diagonal unitary D,
    with H's eigenvalues, as a float64 CSC array, which SuperLU factors in
    real arithmetic and ARPACK solves by real symmetric Lanczos.  Otherwise
    it is q's own complex Hermitian block.  It is solved by shift-invert
    Lanczos about s = target - |v|^{2l} for one pair (oracle._shift_invert):
    theta, the Rayleigh quotient of its unit vector x.  The residual
    r = |H x - theta x| must pass the oracle's residual certificate (at
    theta + |v|^{2l}), so some eigenvalue lies within r of theta.  With d = |theta - s| and tau = r
    plus the pivot floor, the count nu(s + d - tau) - nu(s - d + tau) = 0
    (see oracle._inertia) proves that no eigenvalue lies nearer s than
    d - tau: the nearest eigenvalue's distance lies in [d - tau, d + r].
    When d <= tau that interval holds 0 anyway, and the count, 0, needs no
    factorization.  The count's shifts stay tau - r from the eigenvalue
    found, which keeps their pivots trustworthy.

    When a guard trips, the dense eigvalsh of q's own complex block
    answers, bit for bit assemble_block's eigenvalues.  diagnostics holds
    "eigensolver" ("sparse" or "dense"), "inertia_count", "block_size",
    "real_symmetric" (whether the sparse solve ran on the real translate)
    and "dense_fallback_reason": None, "pivot" (no trustworthy
    LDL^H at a count shift, or target exactly on an eigenvalue) or "count"
    (a nonzero count, Lanczos not converged or failing the residual
    certificate, or a block too small for Lanczos).
    """
    v = index_set.center
    shift = float(v @ v) ** l
    table, real = q.eigenvalue_table()
    H = assemble(l, table, index_set.t, index_set, shift_center=v, sparse=True).tocsc()
    H = H.real if real else H
    s, count = target - shift, None
    reason, pairs = _shift_invert(H, 1, s)
    if reason is None:
        theta, x, hx = float(pairs[0][0]), pairs[1][:, 0], pairs[2][:, 0]
        resid = float(np.linalg.norm(hx - theta * x))
        floor = _PIVOT_TOL * float(abs(H).sum(axis=0).max())
        d, tau = abs(theta - s), resid + floor
        if resid > _RESIDUAL_TOL * (1.0 + abs(theta + shift)):
            reason = "count"
        elif d <= tau:
            count = 0
        else:
            below = [_inertia(H, s + side * (d - tau), floor) for side in (-1, 1)]
            if None in below:
                reason = "pivot"
            else:
                count = below[1] - below[0]
                reason = "count" if count else None
    diagnostics = {"eigensolver": "dense" if reason else "sparse", "dense_fallback_reason": reason,
                   "inertia_count": count, "block_size": index_set.size, "real_symmetric": real}
    if reason is None:
        return theta + shift, diagnostics
    eigenvalues = np.linalg.eigvalsh(assemble(l, q, index_set.t, index_set, shift_center=v)) + shift
    return float(eigenvalues[np.argmin(np.abs(eigenvalues - target))]), diagnostics


@dataclass(frozen=True)
class BlockMatch:
    oracle_index: int
    block_index: int
    deviation: float
    summed_weight: float


def dominant_block_index(spectrum: BlochSpectrum, index_set: ResonantIndexSet) -> tuple[int, float]:
    """Oracle eigenpair with maximal summed weight over the index set.

    Near-ties (degenerate or decoupled cases) are broken by the weight on
    the center's own index.
    """
    cols = spectrum.basis.positions(index_set.coords)
    cols = cols[cols >= 0]
    if not len(cols):
        raise ValueError("index set disjoint from the oracle basis")
    weights = np.sum(np.abs(spectrum.coefficients[:, cols]) ** 2, axis=1)
    top = float(np.max(weights))
    candidates = np.nonzero(weights >= top - 1e-9)[0]
    center_pos = spectrum.position(index_set.gamma0.coords)
    if center_pos is not None and len(candidates) > 1:
        center_w = np.abs(spectrum.coefficients[candidates, center_pos]) ** 2
        best = int(candidates[int(np.argmax(center_w))])
    else:
        best = int(candidates[0])
    return best, float(weights[best])


def match_resonant(spectrum: BlochSpectrum, block: ResonantBlock) -> BlockMatch:
    """Closest block eigenvalue to the dominant-weight oracle eigenvalue."""
    n, weight = dominant_block_index(spectrum, block.index_set)
    if spectrum.eigenvalues_rel is not None and spectrum.shift == block.shift:
        lam = spectrum.eigenvalues_rel[n]
        devs = np.abs(block.eigenvalues_rel - lam)
    else:
        devs = np.abs(block.eigenvalues - spectrum.eigenvalues[n])
    j = int(np.argmin(devs))
    return BlockMatch(oracle_index=int(n), block_index=j, deviation=float(devs[j]), summed_weight=weight)


def tail_coupling_bound(index_set: ResonantIndexSet, q: FourierPotential) -> float:
    """Operator-norm bound on couplings leaving the index set.

    For each member h, sums |q_g| over support directions g with h - g
    outside the set; the maximum over members bounds the deviation between
    block and oracle eigenvalues.
    """
    index = CoordinateIndex(index_set.coords)
    leak = np.zeros(index_set.size)
    for g in q.support:
        leak[index.find(index_set.coords - np.asarray(g, dtype=np.int64)) < 0] += abs(q.coefficient(g))
    return float(leak.max(initial=0.0))
