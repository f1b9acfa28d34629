"""Resonant-case machinery: translated index sets, the coupling block matrix,
and matching of its eigenvalues against the oracle.

Near k independent diffraction planes the eigenvalue is tracked not by a
scalar series but by a finite Hermitian block.  Its index set, a
ResonantIndexSet (a lattice.PlanewaveBasis), holds the distinct points
gamma0 + b + a (b an integer combination of the resonance directions
inside a span ball, a a short lattice translate); the diagonal holds
|h_i + t|^{2l} and the off-diagonal the potential couplings q_{h_i - h_j}.

An entry q_{h_i - h_j} depends on h_i - h_j alone, so a block is the
translate by gamma0 of its shape's offset set {b + a}, and every block of
one shape has one set of couplings.  build_index_set keeps the offset set
of the last lattice and shape (b as a set, a_radius) it built, enumerated
and indexed once, as the root of every block of that shape
(PlanewaveBasis.root): a block searches its index, and its sparse
operator (oracle.assemble) reads its couplings.

Simplicity verdicts need only the block eigenvalue nearest a known part:
nearest_eigenvalue finds it on the sparse block of q's eigenvalue table
(FourierPotential.eigenvalue_table) with the oracle's certified Davidson
solve (oracle._certified_pair) and proves it nearest by a
Sylvester-inertia count, or solves that block densely when a guard of
that solve trips.  The counts reuse one minimum-degree order of the last
table and shape's pattern (oracle._OrderedPattern), so a block writes
only its own diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDirections, PreconditionError
from .geometry import ParameterCascade
from .lattice import LatticeModel, LatticeVector, PlanewaveBasis, _integer_box, _ordered, _unique_rows
from .numerics import integer_rank
from .oracle import _PIVOT_TOL, BlochSpectrum, _certified_pair, _inertia, _OrderedPattern, assemble
from .potential import FourierPotential

# The last block shape enumerated, (lattice, b rows, a_radius, offset set), and the last
# block pattern ordered, (table, offset set, _OrderedPattern).  Each slot holds its keys,
# so no other object can take their identities while it is filled.
_SHAPE = None
_PATTERN = None


@dataclass(frozen=True)
class ResonantIndexSet(PlanewaveBasis):
    """The index set of the distinct h_i, gamma0 among them: the block's points h_i + t around v = gamma0 + t.

    build_index_set's have their shape's offset set as root (PlanewaveBasis.root).
    """

    center: np.ndarray
    t: np.ndarray
    gamma0: LatticeVector
    directions: tuple[LatticeVector, ...]
    b_radius: float
    a_radius: float

    def __post_init__(self):
        super().__post_init__()
        self.center.setflags(write=False)
        self.t.setflags(write=False)

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
    """{gamma0 + b + a}, ordered by (|offset|^2, coords): the translate by gamma0 of its shape's offset set.

    Blocks of one shape (b as a set, a_radius) on one lattice share the
    offset set, enumerated and indexed once (_offset_set), as their root.
    """
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
        a_radius = cascade.a_radius
    offsets = _offset_set(lattice, _span_combinations(directions, b_radius), float(a_radius))
    shift = np.asarray(gamma0.coords, dtype=np.int64)
    # h = gamma0 + offset orders lexicographically as the offsets do
    return offsets._derive(ResonantIndexSet(
        lattice=lattice, center=v.copy(), t=t.copy(), gamma0=gamma0,
        directions=tuple(directions), coords=offsets.coords + shift,
        b_radius=float(b_radius), a_radius=float(a_radius),
    ), shift)


def _offset_set(lattice: LatticeModel, b: np.ndarray, a_radius: float) -> PlanewaveBasis:
    """The distinct offsets b + a, |a| < a_radius, ordered by (|offset|^2, coords).

    One slot holds the last set built, with its lattice and shape (b as a
    set, a_radius), so consecutive blocks of one shape enumerate it once.
    """
    global _SHAPE
    b = _unique_rows(b)
    if _SHAPE is None or _SHAPE[0] is not lattice or _SHAPE[2] != a_radius or not np.array_equal(_SHAPE[1], b):
        a = lattice.ball_coords(a_radius, exclude_zero=False)
        offsets = _unique_rows((b[:, None, :] + a[None, :, :]).reshape(-1, lattice.dimension))
        emb = lattice.embed(offsets)
        _SHAPE = (lattice, b, a_radius, PlanewaveBasis(lattice, _ordered(offsets, np.vecdot(emb, emb))))
    return _SHAPE[3]


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

    The block solved is that of q's eigenvalue table
    (FourierPotential.eigenvalue_table), which has q's eigenvalues.  Its
    operator is oracle.assemble's: the couplings of its shape, kept by the
    table, and this block's diagonal |h_i + t|^{2l} - |v|^{2l}.  Its pair
    comes from Davidson's method under the oracle's certificates
    (oracle._certified_pair), started at the row whose diagonal is nearest
    s = target - |v|^{2l}, taking the Ritz pair nearest s and accepting
    weight over the whole block.  It stops once the residual is below the
    pivot floor _PIVOT_TOL ||H||_1, which tau below adds anyway (windows
    ask for _TRACK_TOL).  The pair is theta, the Rayleigh quotient of its
    unit vector, and its residual r, so some eigenvalue lies within r of
    theta.  With d = |theta - s| and
    tau = r plus the pivot floor, the count
    nu(s + d - tau) - nu(s - d + tau) = 0 (see oracle._inertia) proves
    that no eigenvalue lies nearer s than d - tau: the nearest
    eigenvalue's distance lies in [d - tau, d + r].  When d <= tau that
    interval holds 0 anyway, and the count, 0, needs no factorization.
    Otherwise the two factorizations reuse the shape's minimum-degree
    order (_block_pattern).  The count's shifts stay tau - r from the
    eigenvalue found, which keeps their pivots trustworthy.

    When a guard trips, the eigenvalues of the same operator, densified,
    answer.  diagnostics holds "eigensolver" ("sparse" or "dense"),
    "inertia_count", "block_size", "real_symmetric" (whether the table is
    real), "track_steps" (the Davidson steps taken) and
    "dense_fallback_reason": None, "pivot" (no trustworthy LDL^H at a
    count shift) or "count" (a nonzero count, or Davidson's method not
    converged within oracle._TRACK_STEPS steps or its pair failing a
    certificate).
    """
    v = index_set.center
    shift = float(v @ v) ** l
    table = q.eigenvalue_table()
    H = assemble(l, table, index_set.t, index_set, shift_center=v, sparse=True)
    s, count = target - shift, None
    refused, steps, tracked = _certified_pair(H, index_set, index_set.t, l, shift, index_set.coords, s,
                                              stop=_PIVOT_TOL)
    reason = None if refused is None else "count"
    if reason is None:
        theta, resid = tracked.relative_eigenvalue(0), float(tracked.residual_norms[0])
        floor = _PIVOT_TOL * H.one_norm()
        d, tau = abs(theta - s), resid + floor
        if d <= tau:
            count = 0
        else:
            ordered = _block_pattern(table, index_set, H).with_diagonal(H.diagonal())
            below = [_inertia(ordered, s + side * (d - tau), floor) for side in (-1, 1)]
            if None in below:
                reason = "pivot"
            else:
                count = below[1] - below[0]
                reason = "count" if count else None
    diagnostics = {"eigensolver": "dense" if reason else "sparse", "dense_fallback_reason": reason,
                   "inertia_count": count, "block_size": index_set.size, "real_symmetric": table.is_real,
                   "track_steps": steps}
    if reason is None:
        return theta + shift, diagnostics
    eigenvalues = shift + np.linalg.eigvalsh(H.toarray())
    return float(eigenvalues[np.argmin(np.abs(eigenvalues - target))]), diagnostics


def _block_pattern(table: FourierPotential, index_set: ResonantIndexSet, H):
    """The pattern of H, table's operator over index_set, in one fill-reducing order (oracle._OrderedPattern).

    Every block of one shape (one root) has H's pattern.  One slot holds
    the last one, with the table and the root, so a shape is ordered once.
    """
    global _PATTERN
    root = index_set.root[0]
    if _PATTERN is None or _PATTERN[0] is not table or _PATTERN[1] is not root:
        _PATTERN = (table, root, _OrderedPattern(H))
    return _PATTERN[2]


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
    if spectrum.shift == block.shift:
        devs = np.abs(block.eigenvalues_rel - spectrum.eigenvalues_rel[n])
    else:
        devs = np.abs(block.eigenvalues - spectrum.eigenvalues[n])
    j = int(np.argmin(devs))
    return BlockMatch(oracle_index=int(n), block_index=j, deviation=float(devs[j]), summed_weight=weight)


def tail_coupling_bound(index_set: ResonantIndexSet, q: FourierPotential) -> float:
    """||B||_1, the largest column sum of |B|, B the coupling from the block to the waves outside it.

    Column h of B, for a member h, holds q_g at the outside waves h - g,
    g in supp q; the maximum over members of their summed |q_g| is ||B||_1.
    It is not itself a bound on the deviation between block and oracle
    eigenvalues: that distance is at most |B x_j| for the block
    eigenvector x_j, bounded by ||B||_2 <= (||B||_1 ||B||_inf)^{1/2}.
    """
    leak = np.zeros(index_set.size)
    for g in q.support:
        leak[index_set.positions(index_set.coords - np.asarray(g, dtype=np.int64)) < 0] += abs(q.coefficient(g))
    return float(leak.max(initial=0.0))
