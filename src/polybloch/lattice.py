"""Period lattices, dual lattices, vector enumeration, and quasimomentum reduction.

Conventions: a lattice is stored as a (d, d) array whose *rows* are the
period vectors (matching the row-major config format).  The dual rows
satisfy (dual[i], basis[j]) = 2*pi*delta_ij.  Fundamental-domain measures
are never rescaled; inner products on the cell divide by the cell volume
where normalization matters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularBasis

TWO_PI = 2.0 * np.pi

# relative tolerance used when deciding strict ball membership for
# non-integral lattices; integral lattices use exact integer arithmetic
_BALL_REL_TOL = 1e-9


@dataclass(frozen=True)
class LatticeVector:
    """Dual-lattice vector: integer coordinates plus cached real embedding."""

    coords: tuple[int, ...]
    embedding: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        self.embedding.setflags(write=False)

    @property
    def norm_sq(self) -> float:
        return float(self.embedding @ self.embedding)

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq))

    def __hash__(self):
        return hash(self.coords)


def vector_arrays(vectors, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n, d) int64 coordinates and (n, d) embeddings of an index set."""
    n = len(vectors)
    coords = np.array([vec.coords for vec in vectors], dtype=np.int64).reshape(n, dimension)
    embeddings = np.array([vec.embedding for vec in vectors], dtype=float).reshape(n, dimension)
    coords.setflags(write=False)
    embeddings.setflags(write=False)
    return coords, embeddings


@dataclass(frozen=True)
class QuasiMomentum:
    """Quasimomentum reduced into the half-open dual fundamental cell."""

    reduced: np.ndarray
    representative: np.ndarray

    def __post_init__(self):
        self.reduced.setflags(write=False)
        self.representative.setflags(write=False)


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
    def cubic(cls, d: int, period: float = TWO_PI) -> "LatticeModel":
        """Period `period` in every axis; period 2*pi gives dual Z^d."""
        return cls(period * np.eye(d))

    def embed(self, coords) -> np.ndarray:
        return np.asarray(coords, dtype=float) @ self.dual_basis

    def vector(self, coords) -> LatticeVector:
        coords = tuple(int(c) for c in coords)
        return LatticeVector(coords, self.embed(coords))

    def zero(self) -> LatticeVector:
        return self.vector((0,) * self.dimension)

    def norm_sq_int(self, coords) -> int:
        """Exact |gamma|^2 for integral lattices."""
        n = np.asarray(coords, dtype=np.int64)
        return int(n @ self._gram_int @ n)

    def enumerate_ball(self, radius: float, exclude_zero: bool = True) -> list[LatticeVector]:
        """All gamma with |gamma| < radius (strict), optionally without 0.

        Deterministic order: sorted by (|gamma|^2, integer coords).
        Boundary ties resolved exactly for integral lattices, else with a
        1e-9 relative tolerance pushing the boundary inward.
        """
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if radius == 0:
            return []
        d = self.dimension
        bounds = [int(np.floor(radius * np.linalg.norm(self.basis[i]) / TWO_PI + 1e-9)) for i in range(d)]
        r2 = radius * radius
        out = []
        for n in itertools.product(*(range(-b, b + 1) for b in bounds)):
            if exclude_zero and all(c == 0 for c in n):
                continue
            if self.is_integral:
                nsq = self.norm_sq_int(n)
                if not nsq < r2:
                    continue
                key_nsq = float(nsq)
            else:
                emb = self.embed(n)
                nsq = float(emb @ emb)
                if not nsq < r2 * (1.0 - _BALL_REL_TOL):
                    continue
                key_nsq = nsq
            out.append((key_nsq, n))
        out.sort()
        return [self.vector(n) for _, n in out]

    def enumerate_shifted_ball(self, center, radius: float) -> list[LatticeVector]:
        """All gamma with |gamma - center| <= radius (inclusive, tolerant).

        Used for plane-wave windows; order sorted by (|gamma - center|^2,
        integer coords).
        """
        center = np.asarray(center, dtype=float)
        d = self.dimension
        c_coeff = self.basis @ center / TWO_PI
        bounds = []
        for i in range(d):
            half = radius * np.linalg.norm(self.basis[i]) / TWO_PI
            bounds.append((int(np.floor(c_coeff[i] - half - 1e-9)), int(np.ceil(c_coeff[i] + half + 1e-9))))
        cutoff = radius + _BALL_REL_TOL * max(1.0, radius)
        out = []
        for n in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds)):
            emb = self.embed(n)
            diff = emb - center
            dist_sq = float(diff @ diff)
            if np.sqrt(dist_sq) <= cutoff:
                out.append((dist_sq, n))
        out.sort()
        return [self.vector(n) for _, n in out]

    def point_group(self) -> tuple[np.ndarray, ...]:
        """Integer maps n -> nM of dual coordinates that preserve the dual
        Gram matrix G: M G M^T = G to 1e-12 relative.

        Row i of M is the image of dual basis vector i, so it is drawn from
        the dual vectors of the same length.
        """
        G = self._gram_dual
        tol = 1e-12 * float(np.abs(G).max())
        shells = [[v.coords for v in self.enumerate_ball(np.sqrt(G[i, i]) * (1 + 1e-6))
                   if abs(v.norm_sq - G[i, i]) <= tol] for i in range(self.dimension)]
        maps = (np.array(rows, dtype=np.int64) for rows in itertools.product(*shells))
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
        return gamma, QuasiMomentum(reduced=t, representative=x.copy())
