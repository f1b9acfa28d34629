"""Period lattices, dual lattices, vector enumeration, index sets, and quasimomentum reduction.

Conventions: a lattice is stored as a (d, d) array whose *rows* are the
period vectors (matching the row-major config format).  The dual rows
satisfy (dual[i], basis[j]) = 2*pi*delta_ij.  Fundamental-domain measures
are never rescaled; inner products on the cell divide by the cell volume
where normalization matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import PreconditionError, SingularBasis

TWO_PI = 2.0 * np.pi

# relative tolerance used when deciding strict ball membership for
# non-integral lattices; integral lattices use exact integer arithmetic
_BALL_REL_TOL = 1e-9

# integer points in one enumeration box: a d = 3 row peaks near 90 bytes (coordinates,
# embedding, distances), so about 190 MB; a 69,599-wave d = 3 window needs about 1.5e5
MAX_BOX_POINTS = 2**21


@dataclass(frozen=True)
class LatticeVector:
    """Dual-lattice vector: integer coordinates plus cached real embedding."""

    coords: tuple[int, ...]
    embedding: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        self.embedding.setflags(write=False)

    def __hash__(self):
        return hash(self.coords)


def _box_size(lo, hi, use: str, unit: str) -> int:
    """The number of integer points n with lo <= n <= hi.  PreconditionError
    when it exceeds MAX_BOX_POINTS: `use` needs the box, and one `unit` is
    bounded."""
    size = math.prod(max(0, int(b) - int(a) + 1) for a, b in zip(lo, hi))
    if size > MAX_BOX_POINTS:
        raise PreconditionError(f"{use} needs a box of {size:.3g} lattice points; "
                                f"one {unit} takes at most {MAX_BOX_POINTS}")
    return size


def _integer_box(lo, hi) -> np.ndarray:
    """(N, d) int64 rows of every integer point n with lo <= n <= hi, last axis fastest.
    PreconditionError, before anything is allocated, when N exceeds MAX_BOX_POINTS."""
    _box_size(lo, hi, "enumerating this radius", "enumeration")
    axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(lo, hi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _in_shifted_ball(embeddings, center, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """(|gamma - center|^2, |gamma - center| <= radius, inclusive and tolerant) for rows gamma."""
    diff = embeddings - center
    dist_sq = np.vecdot(diff, diff)
    return dist_sq, np.sqrt(dist_sq) <= radius + _BALL_REL_TOL * max(1.0, radius)


def _unique_rows(coords: np.ndarray) -> np.ndarray:
    """The distinct rows of an (n, d) integer array, sorted by coordinates, the first column first.

    np.unique(coords, axis=0)'s rows, without the numpy.ma import its first call makes.
    """
    coords = coords[np.lexsort(coords.T[::-1])]
    keep = np.ones(len(coords), dtype=bool)
    keep[1:] = np.any(coords[1:] != coords[:-1], axis=1)
    return coords[keep]


def _ordered(coords: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Read-only rows of coords sorted by (key, coords): the order of every enumerated index set."""
    ordered = coords[np.lexsort(tuple(coords[:, j] for j in reversed(range(coords.shape[1]))) + (key,))]
    ordered.setflags(write=False)
    return ordered


class CoordinateIndex:
    """Row lookup in an (n, d) array of distinct integer coordinate rows.

    A dense slot table over the rows' bounding box, keyed in mixed radix,
    holds each row's number, and -1 in every slot no row fills.  So
    construction is one scatter, and find() of m targets one bounds check
    and one gather: O(m) time and temporaries.  The box may hold at most
    MAX_BOX_POINTS slots (PreconditionError, before anything is allocated).
    """

    def __init__(self, coords):
        coords = np.asarray(coords, dtype=np.int64)
        self._lo = coords.min(axis=0) if len(coords) else np.zeros(coords.shape[1], dtype=np.int64)
        hi = coords.max(axis=0) if len(coords) else self._lo - 1  # an empty box
        size = _box_size(self._lo, hi, "indexing these coordinates", "index")
        extent = hi - self._lo + 1
        self._extent = extent.astype(np.uint64)
        self._stride = np.cumprod(np.concatenate(([1], extent[:-1])))
        self._slots = np.full(size + 1, -1, dtype=np.int64)  # slot `size` stands for every target outside
        self._slots[(coords - self._lo) @ self._stride] = np.arange(len(coords))

    def find(self, targets) -> np.ndarray:
        """The row of each target row in the indexed array, -1 where it is absent."""
        offsets = np.asarray(targets, dtype=np.int64).reshape(-1, len(self._lo)) - self._lo
        inside = np.all(offsets.view(np.uint64) < self._extent, axis=1)  # a negative offset wraps above
        return self._slots[np.where(inside, offsets @ self._stride, len(self._slots) - 1)]


@dataclass(frozen=True)
class QuasiMomentum:
    """Quasimomentum reduced into the half-open dual fundamental cell."""

    reduced: np.ndarray

    def __post_init__(self):
        self.reduced.setflags(write=False)


def dual_lattice(basis) -> np.ndarray:
    """Rows gamma_i with (gamma_i, omega_j) = 2*pi*delta_ij.

    Raises SingularBasis when |det| falls below 1e-12 * scale^d.
    """
    B = np.asarray(basis, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise SingularBasis(f"basis must be square, got shape {B.shape}")
    d = B.shape[0]
    scale = max(np.linalg.norm(B, axis=1).max(), 1e-300)
    det = np.linalg.det(B)
    if abs(det) <= 1e-12 * scale**d:
        raise SingularBasis(f"|det| = {abs(det):.3e} below threshold for scale {scale:.3e}")
    return TWO_PI * np.linalg.inv(B).T


class LatticeModel:
    """A period lattice, its dual, and fundamental-domain reduction."""

    def __init__(self, basis):
        B = np.asarray(basis, dtype=float).copy()
        D = dual_lattice(B)
        B.setflags(write=False)
        D.setflags(write=False)
        self.basis = B
        self.dual_basis = D
        self.dimension = B.shape[0]
        self.cell_volume = abs(float(np.linalg.det(B)))
        self.dual_cell_volume = abs(float(np.linalg.det(D)))
        self._gram_dual = D @ D.T
        # integral duals (e.g. Z^d) admit exact integer norm comparisons
        g_round = np.round(self._gram_dual)
        self.is_integral = bool(np.allclose(self._gram_dual, g_round, atol=1e-12))
        self._gram_int = g_round.astype(np.int64) if self.is_integral else None
        self._check_invariants()

    def _check_invariants(self):
        d = self.dimension
        prod = self.dual_basis @ self.basis.T
        target = TWO_PI * np.eye(d)
        if not np.allclose(prod, target, rtol=1e-10, atol=1e-10 * TWO_PI):
            raise SingularBasis("dual basis does not satisfy (gamma, omega) = 2*pi*delta")
        double = dual_lattice(self.dual_basis)
        if not np.allclose(double, self.basis, rtol=1e-12, atol=1e-12 * abs(self.basis).max()):
            raise SingularBasis("double dualization does not reproduce the basis")

    @classmethod
    def cubic(cls, d: int) -> "LatticeModel":
        """Period 2*pi in every axis: the dual lattice is Z^d."""
        return cls(TWO_PI * np.eye(d))

    def embed(self, coords) -> np.ndarray:
        """The embedding n @ dual_basis of one coordinate vector, or of each row of an (n, d) array.

        np.vecmat rounds each row exactly as the single-vector product does,
        so an embedding does not depend on the batch it is computed in.
        """
        return np.vecmat(np.asarray(coords, dtype=float), self.dual_basis)

    def vector(self, coords) -> LatticeVector:
        coords = tuple(int(c) for c in coords)
        return LatticeVector(coords, self.embed(coords))

    def ball_coords(self, radius: float, exclude_zero: bool = True) -> np.ndarray:
        """Coordinates of all gamma with |gamma| < radius (strict), optionally without 0.

        Read-only (n, d) int64 rows sorted by (|gamma|^2, integer coords).
        Boundary ties resolved exactly for integral lattices, else with a
        1e-9 relative tolerance pushing the boundary inward.
        """
        if radius < 0:
            raise ValueError("radius must be >= 0")
        bounds = np.array([int(np.floor(radius * np.linalg.norm(self.basis[i]) / TWO_PI + 1e-9))
                           for i in range(self.dimension)])
        box = _integer_box(-bounds, bounds)
        if self.is_integral:
            norm_sq = np.vecdot(box @ self._gram_int, box)
            inside = norm_sq < radius * radius
        else:
            emb = self.embed(box)
            norm_sq = np.vecdot(emb, emb)
            inside = norm_sq < radius * radius * (1.0 - _BALL_REL_TOL)
        if exclude_zero:
            inside &= np.any(box != 0, axis=1)
        return _ordered(box[inside], norm_sq[inside])

    def enumerate_ball(self, radius: float) -> list[LatticeVector]:
        """The rows of ball_coords(radius), 0 excluded, as LatticeVectors, in its order."""
        coords = self.ball_coords(radius)
        return [LatticeVector(tuple(c), e) for c, e in zip(coords.tolist(), self.embed(coords))]

    def enumerate_shifted_ball(self, center, radius: float) -> np.ndarray:
        """Coordinates of all gamma with |gamma - center| <= radius (inclusive, tolerant).

        Used for plane-wave windows; read-only (n, d) int64 rows sorted by
        (|gamma - center|^2, integer coords).
        """
        center = np.asarray(center, dtype=float)
        c_coeff = self.basis @ center / TWO_PI
        half = [radius * np.linalg.norm(self.basis[i]) / TWO_PI for i in range(self.dimension)]
        box = _integer_box([int(np.floor(c - h - 1e-9)) for c, h in zip(c_coeff, half)],
                           [int(np.ceil(c + h + 1e-9)) for c, h in zip(c_coeff, half)])
        dist_sq, inside = _in_shifted_ball(self.embed(box), center, radius)
        return _ordered(box[inside], dist_sq[inside])

    def point_group(self) -> tuple[np.ndarray, ...]:
        """Integer maps n -> nM of dual coordinates that preserve the dual
        Gram matrix G: M G M^T = G to 1e-12 relative.

        Row i of M is the image of dual basis vector i, so it is drawn from
        the dual vectors of the same length.
        """
        G = self._gram_dual
        tol = 1e-12 * float(np.abs(G).max())
        shells = []
        for i in range(self.dimension):
            coords = self.ball_coords(np.sqrt(G[i, i]) * (1 + 1e-6))
            emb = self.embed(coords)
            shells.append(coords[np.abs(np.vecdot(emb, emb) - G[i, i]) <= tol])
        picks = _integer_box(np.zeros(len(shells), dtype=int), [len(s) - 1 for s in shells])
        maps = np.stack([shell[picks[:, i]] for i, shell in enumerate(shells)], axis=1)
        return tuple(M for M in maps if np.all(np.abs(M @ G @ M.T - G) <= tol))

    def reduce(self, x) -> tuple[LatticeVector, QuasiMomentum]:
        """Split x = gamma + t with t in the half-open dual fundamental cell."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("coordinates must be finite")
        coeff = self.basis @ x / TWO_PI
        n = np.floor(coeff + 1e-12).astype(int)
        gamma = self.vector(n)
        t = x - gamma.embedding
        return gamma, QuasiMomentum(reduced=t)

    def split(self, v, t=None) -> tuple[LatticeVector, np.ndarray]:
        """v = gamma0 + t.  Without t this is reduce(v); with t, gamma0 = v - t,
        which must be a dual lattice vector to within the window tolerance,
        |gamma0 - (v - t)| <= 1e-9 (PreconditionError otherwise), so every
        window {gamma : |gamma + t - v| <= R}, R >= 0, holds gamma0."""
        v = np.asarray(v, dtype=float)
        if t is None:
            gamma0, qm = self.reduce(v)
            return gamma0, qm.reduced
        t = np.asarray(t, dtype=float)
        gamma0 = self.vector(np.round(self.basis @ (v - t) / TWO_PI).astype(int))
        if not np.linalg.norm(gamma0.embedding - (v - t)) <= _BALL_REL_TOL:
            raise PreconditionError("v - t is not a dual lattice vector, so the center has no own index gamma0")
        return gamma0, t


@dataclass(frozen=True)
class PlanewaveBasis:
    """A finite set of dual-lattice vectors: a plane-wave window, a resonant block or the direction pool.

    coords holds the integer dual coordinates as read-only (n, d) int64
    rows (copied), embeddings coords @ dual_basis.  positions searches one
    CoordinateIndex, built on its first call.  leading(k) is the set of the
    first k rows and translated(shift) the set of the rows shift + c: both
    are derived sets, which search their root's index (see root).
    """

    lattice: LatticeModel
    coords: np.ndarray = field(repr=False, compare=False)
    embeddings: np.ndarray = field(init=False, repr=False, compare=False)
    # a derived set's (root, shift): see root
    _root: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        coords = np.array(self.coords, dtype=np.int64).reshape(-1, self.lattice.dimension)
        embeddings = self.lattice.embed(coords)
        coords.setflags(write=False)
        embeddings.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "embeddings", embeddings)

    def __len__(self):
        return len(self.coords)

    @classmethod
    def full_ball(cls, lattice: LatticeModel, radius: float) -> "PlanewaveBasis":
        return cls(lattice, lattice.ball_coords(radius, exclude_zero=False))

    @classmethod
    def window(cls, lattice: LatticeModel, t, center, radius: float) -> "PlanewaveBasis":
        """Exactly {gamma : |gamma + t - center| <= radius}, deterministic order."""
        return cls(lattice, lattice.enumerate_shifted_ball(np.asarray(center, dtype=float) - t, radius))

    @cached_property
    def _index(self) -> CoordinateIndex:
        return CoordinateIndex(self.coords)

    @property
    def root(self) -> tuple["PlanewaveBasis", np.ndarray | int]:
        """(root, shift): row i is shift + root's row i.

        A derived set (leading, translated, block.build_index_set) searches
        its root's index and reads its couplings (oracle.assemble); a set
        built on its own rows is its own root, shift 0.
        """
        return (self, 0) if self._root is None else self._root

    def positions(self, coords) -> np.ndarray:
        """The row of each coordinate row in the set, -1 where it is absent."""
        if self._root is None:
            return self._index.find(coords)
        root, shift = self._root
        rows = root.positions(np.asarray(coords, dtype=np.int64) - shift)
        return np.where(rows < len(self), rows, -1)

    def leading(self, k: int) -> "PlanewaveBasis":
        """The set of the first k rows, searched through the root's index with the rows from k masked."""
        derived = object.__new__(PlanewaveBasis)  # its rows' arrays are views of this set's, embedded once
        for name, value in (("lattice", self.lattice), ("coords", self.coords[:k]),
                            ("embeddings", self.embeddings[:k])):
            object.__setattr__(derived, name, value)
        return self._derive(derived, 0)

    def translated(self, shift) -> "PlanewaveBasis":
        """The set of the rows shift + c in this set's order, searched through the root's index at c - shift.

        Its embeddings are lattice.embed of its own rows, so they are bit for
        bit those of a set built on the same rows.
        """
        shift = np.asarray(shift, dtype=np.int64)
        return self._derive(PlanewaveBasis(self.lattice, self.coords + shift), shift)

    def _derive(self, derived: "PlanewaveBasis", shift) -> "PlanewaveBasis":
        """derived, whose rows are shift + this set's leading rows, made a derived set of its root."""
        root, base = self.root
        object.__setattr__(derived, "_root", (root, base + shift))
        return derived
