"""Ground-truth Bloch spectra via Galerkin truncation in the plane-wave basis.

For a basis {e^{i(gamma+t, x)}} the operator matrix has diagonal
|gamma+t|^{2l} and off-diagonal q_{gamma_i - gamma_j}.  Windowed solves
center the basis on a studied point v = gamma0 + t; coupling hops have
length bounded by the potential support radius, so a window of a few hops
reproduces the eigenvalues near |v|^{2l} to solver precision, certified by
re-solving on a 1.5x window.

Internally the matrix is assembled relative to the shift |v|^{2l} with the
diagonal computed through the cancellation-free identity
A^l - B^l = (A - B) * sum_j A^j B^(l-1-j),  A - B = 2(v, delta) + |delta|^2
(numerics.relative_energies), which keeps eigenvalue differences near the
shift meaningful well below machine epsilon times |v|^{2l}.  The couplings
come from FourierPotential.couplings, the builder the resonant blocks share.

Given a relative-energy interval, the eigensolve computes only the pairs
inside it (LAPACK ?heevr, the MRRR method) and replaces each eigenvalue by
its Rayleigh quotient, which brings it back to the full solve's accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceFailure, WindowNotConverged
from .lattice import TWO_PI, LatticeModel, LatticeVector, vector_arrays
from .numerics import relative_energies
from .potential import FourierPotential

_RESIDUAL_TOL = 1e-8
_CLUSTER_TOL = 1e-9
_REFINE_TOL = 1e-9


@dataclass(frozen=True)
class PlanewaveBasis:
    """Ordered plane-wave index set: full ball or window around a center."""

    lattice: LatticeModel
    vectors: tuple[LatticeVector, ...]
    center: np.ndarray
    window_radius: float
    mode: str  # "full-ball" | "window"
    coords: np.ndarray = field(init=False, repr=False, compare=False)  # (n, d) int64
    embeddings: np.ndarray = field(init=False, repr=False, compare=False)  # (n, d)

    def __post_init__(self):
        self.center.setflags(write=False)
        coords, embeddings = vector_arrays(self.vectors, self.lattice.dimension)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "embeddings", embeddings)

    def __len__(self):
        return len(self.vectors)

    @classmethod
    def full_ball(cls, lattice: LatticeModel, radius: float) -> "PlanewaveBasis":
        vectors = tuple(lattice.enumerate_ball(radius, exclude_zero=False))
        return cls(lattice, vectors, np.zeros(lattice.dimension), float(radius), "full-ball")

    @classmethod
    def window(cls, lattice: LatticeModel, t, center, radius: float) -> "PlanewaveBasis":
        """Exactly {gamma : |gamma + t - center| <= radius}, deterministic order."""
        t = np.asarray(t, dtype=float)
        center = np.asarray(center, dtype=float).copy()
        vectors = tuple(lattice.enumerate_shifted_ball(center - t, radius))
        return cls(lattice, vectors, center, float(radius), "window")

    @classmethod
    def union_windows(cls, lattice: LatticeModel, t, centers, radius: float) -> "PlanewaveBasis":
        """Deduped union of windows around several centers.

        Used when eigenvalues near one energy arise from several separated
        regions of the dual lattice (competitor analysis); ordered by
        (|gamma|^2, coords).
        """
        t = np.asarray(t, dtype=float)
        seen = {}
        for center in centers:
            center = np.asarray(center, dtype=float)
            for vec in lattice.enumerate_shifted_ball(center - t, radius):
                seen.setdefault(vec.coords, vec)
        ordered = tuple(sorted(seen.values(), key=lambda v: (v.norm_sq, v.coords)))
        first = np.asarray(centers[0], dtype=float).copy()
        return cls(lattice, ordered, first, float(radius), "union-window")

    def index_map(self) -> dict[tuple[int, ...], int]:
        return {vec.coords: i for i, vec in enumerate(self.vectors)}


@dataclass(frozen=True)
class BlochSpectrum:
    """Eigenvalues (ascending) and coefficient rows b(N, gamma) of one solve."""

    t: np.ndarray
    degree: int
    basis: PlanewaveBasis
    eigenvalues: np.ndarray
    coefficients: np.ndarray  # row N holds b(N, basis.vectors[i])
    residual_norms: np.ndarray
    cluster_flags: np.ndarray
    shift: float = 0.0
    eigenvalues_rel: np.ndarray = field(default=None, repr=False)
    diagnostics: dict = field(default=None, repr=False, compare=False)  # set by bloch_solve
    _index: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for arr in (self.t, self.eigenvalues, self.coefficients, self.residual_norms, self.cluster_flags):
            arr.setflags(write=False)
        if self.eigenvalues_rel is not None:
            self.eigenvalues_rel.setflags(write=False)
        object.__setattr__(self, "_index", self.basis.index_map())

    def __len__(self):
        return len(self.eigenvalues)

    def position(self, coords) -> int | None:
        return self._index.get(tuple(int(c) for c in coords))

    def coefficient(self, n: int, coords) -> complex:
        pos = self.position(coords)
        return 0j if pos is None else complex(self.coefficients[n, pos])

    def weight(self, n: int, coords) -> float:
        return abs(self.coefficient(n, coords)) ** 2

    def dominant_index(self, coords) -> int:
        """Eigenpair with the largest |b(N, gamma)|^2 (never eigenvalue order).

        On a partial spectrum this is the dominant pair of the whole spectrum
        only when its weight exceeds 1/2: the weights on one index sum to 1
        over all pairs, so no pair left out can then weigh more.
        """
        pos = self.position(coords)
        if pos is None:
            raise KeyError(f"{coords} not in basis")
        return int(np.argmax(np.abs(self.coefficients[:, pos]) ** 2))

    def relative_eigenvalue(self, n: int) -> float:
        """Eigenvalue minus shift, at shifted-frame precision."""
        if self.eigenvalues_rel is not None:
            return float(self.eigenvalues_rel[n])
        return float(self.eigenvalues[n] - self.shift)


def assemble(l: int, q: FourierPotential, t, basis: PlanewaveBasis, shift_center=None) -> np.ndarray:
    """Hermitian matrix of (-Laplace)^l + q in the given plane-wave basis.

    With shift_center = v the diagonal holds |gamma+t|^{2l} - |v|^{2l}
    (cancellation-free); eigenvalues of the result are then relative to
    |v|^{2l}.
    """
    if len(basis) == 0:
        raise ValueError("basis must be non-empty")
    t = np.asarray(t, dtype=float)
    v = np.zeros_like(t) if shift_center is None else np.asarray(shift_center, dtype=float)
    H = q.couplings(basis.coords)
    H[np.diag_indices(len(basis))] = relative_energies(v, basis.embeddings + t, l)
    return H


def diagonalize(H, basis: PlanewaveBasis, t, l: int, shift: float = 0.0, interval=None) -> BlochSpectrum:
    """Dense Hermitian eigensolve with residual and unit-norm certificates.

    With interval = (lo, hi) only the pairs with eigenvalue in (lo, hi] are
    computed, each eigenvalue replaced by its Rayleigh quotient Re(x^H H x);
    None solves for all of them.
    """
    H = np.asarray(H)
    if interval is None:
        evals_rel, evecs = np.linalg.eigh(H)
        HX = H @ evecs
    else:
        import scipy.linalg  # here, not at module level: its import costs more than a small solve

        _, evecs = scipy.linalg.eigh(H, subset_by_value=interval, driver="evr")
        HX = H @ evecs
        evals_rel = np.real(np.vecdot(evecs, HX, axis=0))
        order = np.argsort(evals_rel, kind="stable")
        evals_rel, evecs, HX = evals_rel[order], evecs[:, order], HX[:, order]
    coeff = evecs.T  # row N = coefficient table of eigenpair N
    norms = np.linalg.norm(coeff, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-10):
        raise ConvergenceFailure("eigenvector norms deviate from 1 beyond 1e-10")
    resid = np.linalg.norm(HX - evecs * evals_rel[None, :], axis=0)
    evals_abs = evals_rel + shift
    limits = _RESIDUAL_TOL * (1.0 + np.abs(evals_abs))
    if np.any(resid > limits):
        worst = int(np.argmax(resid - limits))
        raise ConvergenceFailure(f"residual {resid[worst]:.3e} exceeds bound for eigenvalue {evals_abs[worst]!r}")
    gaps = np.diff(evals_rel)
    cluster = np.zeros(len(evals_rel), dtype=bool)
    tight = gaps <= _CLUSTER_TOL * (1.0 + np.abs(evals_abs[:-1]))
    cluster[:-1] |= tight
    cluster[1:] |= tight
    return BlochSpectrum(
        t=np.asarray(t, dtype=float).copy(),
        degree=l,
        basis=basis,
        eigenvalues=evals_abs,
        coefficients=coeff,
        residual_norms=resid,
        cluster_flags=cluster,
        shift=shift,
        eigenvalues_rel=evals_rel.copy(),
    )


def solve(lattice: LatticeModel, l: int, q: FourierPotential, t, basis: PlanewaveBasis,
          shift_center=None, interval=None) -> BlochSpectrum:
    shift = 0.0
    if shift_center is not None:
        v = np.asarray(shift_center, dtype=float)
        shift = float(v @ v) ** l
    H = assemble(l, q, t, basis, shift_center=shift_center)
    return diagonalize(H, basis, t, l, shift=shift, interval=interval)


def bloch_solve(lattice: LatticeModel, l: int, q: FourierPotential, v, window_radius: float,
                t=None, refine: bool = False, interval=None) -> BlochSpectrum:
    """Windowed ground truth near |v|^{2l}, v = gamma0 + t.

    With refine set, re-solves on a 1.5x window; the eigenvalue tracked to
    the center index must move by less than 1e-9 (1 + |Lambda|), else
    WindowNotConverged.  The refined spectrum is returned.

    With interval = (lo, hi), relative to |v|^{2l}, each window computes
    only the pairs inside it, and is solved again in full when none of them
    weighs more than 1/2 on gamma0 (see BlochSpectrum.dominant_index).  The
    returned spectrum's diagnostics describe both windows' solves.
    """
    v = np.asarray(v, dtype=float)
    if t is None:
        gamma0, qm = lattice.reduce(v)
        t = qm.reduced
    else:
        t = np.asarray(t, dtype=float)
        coeff = lattice.basis @ (v - t) / TWO_PI
        n = np.round(coeff)
        if not np.allclose(coeff, n, atol=1e-9):
            raise ValueError("center v - t is not a dual lattice vector; window would exclude the center's own index")
        gamma0 = lattice.vector(n.astype(int))
    spectra, fallback = [], False
    for radius in (window_radius, window_radius * 1.5) if refine else (window_radius,):
        basis = PlanewaveBasis.window(lattice, t, v, radius)
        if basis.index_map().get(gamma0.coords) is None:
            raise ValueError("window excludes the center's own index")
        spectrum = solve(lattice, l, q, t, basis, shift_center=v, interval=interval)
        if interval is not None and not _tracks(spectrum, gamma0.coords):
            spectrum = solve(lattice, l, q, t, basis, shift_center=v)
            fallback = True
        spectra.append(spectrum)
    move = None
    if refine:
        spectrum, refined = spectra
        n_small = spectrum.dominant_index(gamma0.coords)
        n_big = refined.dominant_index(gamma0.coords)
        move = abs(spectrum.relative_eigenvalue(n_small) - refined.relative_eigenvalue(n_big))
        lam = abs(refined.eigenvalues[n_big])
        if move >= _REFINE_TOL * (1.0 + lam):
            raise WindowNotConverged(
                f"tracked eigenvalue moved {move:.3e} under window refinement ({window_radius} -> {window_radius * 1.5})")
    return replace(spectra[-1], diagnostics={
        "basis_size": len(spectra[0].basis),
        "refined_basis_size": len(spectra[-1].basis) if refine else None,
        "pairs_solved": sum(len(s) for s in spectra),
        "full_solve_fallback": fallback,
        "certificate_move": move,
        "worst_residual": max(float(np.max(s.residual_norms)) for s in spectra),
    })


def _tracks(spectrum: BlochSpectrum, coords) -> bool:
    """Whether some pair weighs more than 1/2 on coords, which makes it the full spectrum's dominant pair."""
    return len(spectrum) > 0 and spectrum.weight(spectrum.dominant_index(coords), coords) > 0.5


def free_eigenvalues(lattice: LatticeModel, t, l: int, basis: PlanewaveBasis) -> np.ndarray:
    """Sorted |gamma + t|^{2l} over the basis (the q = 0 spectrum)."""
    t = np.asarray(t, dtype=float)
    vals = [float((vec.embedding + t) @ (vec.embedding + t)) ** l for vec in basis.vectors]
    return np.sort(np.asarray(vals))
