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
shift meaningful well below machine epsilon times |v|^{2l}.  assemble is
the one operator builder, of windows and resonant blocks alike.  Each
center's windows come from one enumeration (_windows): the inner window is
the leading rows of its 1.5x refinement, and its operator the leading block.

Order sweeps need one pair per window: the one dominated by gamma0's plane
wave, whose eigenvalue every order's prediction is matched against.  Away
from gamma0 the window operator's diagonal dominates its couplings (the
paper's corrections are |q| / (|gamma+t|^{2l} - |v|^{2l})), so
track_dominant finds that pair by Davidson's method (Davidson 1975; Morgan
& Scott 1986) from e_gamma0, and the 1.5x window's from the inner window's
pair: each step is one sparse matvec, a Rayleigh-Ritz on the search space
and the diagonally preconditioned correction (diag H - theta)^-1 r, one
more order of the same perturbation series.  Nothing is factored, and the
sparse operator is a WindowOperator in numpy alone: its matvec gathers
once per support vector.  The Ritz pair nearest the highest-order
prediction is accepted when it passes the residual and unit-norm
certificates, weighs more than 1/2 on gamma0 (the weights on gamma0 sum to
1 over all pairs, so no other pair can weigh more) and lies in every
order's matching window.  Otherwise the counted solve below takes over,
on the blocks already assembled.

The counted solve (_counted_window) returns the pairs with relative
eigenvalue in an interval [lo, hi) from the sparse operator's CSC array
(WindowOperator.tocsc, about 5 nonzeros per row): Sylvester's law of
inertia counts the eigenvalues below lo and below hi from the signs of
LDL^H pivots, and shift-invert Lanczos about the midpoint solves for
exactly the difference (Ericsson & Ruhe 1980; the inertia check of Grimes,
Lewis & Simon 1994).  Each eigenvalue is replaced by its Rayleigh
quotient, which brings it back to the full solve's accuracy.  When a guard
trips (an untrustworthy pivot, or a count the Lanczos solve does not
reproduce), or no pair found weighs more than 1/2 on gamma0, the dense
solve of the whole block takes over.  The same shift-invert core
(_shift_invert) and inertia count (_inertia) certify the resonant block's
eigenvalue nearest a known part (block.nearest_eigenvalue).
bloch_solve, solve and diagonalize are the full dense solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceFailure, PreconditionError, WindowNotConverged
from .lattice import CoordinateIndex, LatticeModel, _in_shifted_ball, _ordered
from .numerics import SERIAL_TRACK_BASIS, capped_blas_threads, relative_energies
from .potential import FourierPotential

_RESIDUAL_TOL = 1e-8
_CLUSTER_TOL = 1e-9
_REFINE_TOL = 1e-9
_PIVOT_TOL = 1e-12  # an inertia count needs every |U_ii| >= _PIVOT_TOL * ||H||_1
_TRACK_TOL = 1e-16  # a tracked pair has converged once |H x - theta x| <= _TRACK_TOL * ||H||_1
_TRACK_STEPS = 24  # Davidson steps (one matvec each) per window before tracking is refused


@dataclass(frozen=True)
class PlanewaveBasis:
    """Ordered plane-wave index set: full ball, window, or union of windows.

    coords holds the integer dual coordinates of the plane waves as
    read-only (n, d) int64 rows; embeddings holds coords @ dual_basis.
    """

    lattice: LatticeModel
    coords: np.ndarray = field(repr=False, compare=False)
    embeddings: np.ndarray = field(init=False, repr=False, compare=False)
    _index: CoordinateIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coords, embeddings = self.lattice.index_arrays(self.coords)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "embeddings", embeddings)
        object.__setattr__(self, "_index", CoordinateIndex(coords))

    def __len__(self):
        return len(self.coords)

    @classmethod
    def full_ball(cls, lattice: LatticeModel, radius: float) -> "PlanewaveBasis":
        return cls(lattice, lattice.ball_coords(radius, exclude_zero=False))

    @classmethod
    def window(cls, lattice: LatticeModel, t, center, radius: float) -> "PlanewaveBasis":
        """Exactly {gamma : |gamma + t - center| <= radius}, deterministic order."""
        return cls(lattice, lattice.enumerate_shifted_ball(np.asarray(center, dtype=float) - t, radius))

    @classmethod
    def union_windows(cls, lattice: LatticeModel, t, centers, radius: float) -> "PlanewaveBasis":
        """Deduped union of windows around several centers.

        Used when eigenvalues near one energy arise from several separated
        regions of the dual lattice (competitor analysis); ordered by
        (|gamma|^2, coords).
        """
        coords = np.unique(np.concatenate([lattice.enumerate_shifted_ball(np.asarray(c, dtype=float) - t, radius)
                                           for c in centers]), axis=0)
        emb = lattice.embed(coords)
        return cls(lattice, _ordered(coords, np.vecdot(emb, emb)))

    def positions(self, coords) -> np.ndarray:
        """The row of each coordinate row in the basis, -1 where it is absent."""
        return self._index.find(coords)


@dataclass(frozen=True)
class BlochSpectrum:
    """Eigenvalues (ascending) and coefficient rows b(N, gamma) of one solve."""

    t: np.ndarray
    degree: int
    basis: PlanewaveBasis
    eigenvalues: np.ndarray
    coefficients: np.ndarray  # row N holds b(N, gamma) for gamma = basis.coords[i] in column i
    residual_norms: np.ndarray
    cluster_flags: np.ndarray
    shift: float = 0.0
    eigenvalues_rel: np.ndarray = field(default=None, repr=False)
    diagnostics: dict = field(default=None, repr=False, compare=False)  # set by bloch_solve and track_dominant

    def __post_init__(self):
        for arr in (self.t, self.eigenvalues, self.coefficients, self.residual_norms, self.cluster_flags):
            arr.setflags(write=False)
        if self.eigenvalues_rel is not None:
            self.eigenvalues_rel.setflags(write=False)

    def __len__(self):
        return len(self.eigenvalues)

    def position(self, coords) -> int | None:
        pos = int(self.basis.positions(coords)[0])
        return None if pos < 0 else pos

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


class WindowOperator:
    """A sparse Hermitian operator in numpy alone, as assemble(..., sparse=True) returns it.

    diagonal() is the real diagonal, and (columns, values) the
    off-diagonal of FourierPotential.coupling_table: row i holds
    values[s, i] in column columns[s, i], with the sentinel n (value 0)
    where there is none.  H @ x gathers x once per offset, abs(H) is the
    operator of the entries' moduli, and H[:k, :k] is the leading block:
    the operator over the first k rows, exactly.  tocsc() builds the
    scipy.sparse CSC array that SuperLU and ARPACK need, toarray() the
    dense matrix.
    """

    def __init__(self, diagonal: np.ndarray, columns: np.ndarray, values: np.ndarray):
        self._diagonal, self.columns, self.values = diagonal, columns, values
        self.shape = (len(diagonal), len(diagonal))

    def diagonal(self) -> np.ndarray:
        return self._diagonal

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """H x for a vector x."""
        return self._diagonal * x + np.sum(self.values * np.append(x, 0)[self.columns], axis=0)

    def __abs__(self) -> "WindowOperator":
        return WindowOperator(np.abs(self._diagonal), self.columns, np.abs(self.values))

    def __getitem__(self, key) -> "WindowOperator":
        """The leading block H[:k, :k], the one slice supported."""
        k = key[0].stop
        if key != (slice(None, k), slice(None, k)):
            raise IndexError("only a leading block H[:k, :k] can be sliced")
        inside = self.columns[:, :k] < k
        return WindowOperator(self._diagonal[:k], np.where(inside, self.columns[:, :k], k),
                              np.where(inside, self.values[:, :k], 0))

    def one_norm(self) -> float:
        """||H||_1, the largest column sum of |H| (the largest row sum: H is Hermitian)."""
        return float(np.max(np.abs(self._diagonal) + np.abs(self.values).sum(axis=0)))

    def column_nonzeros(self) -> int:
        """The most stored entries in a column, the diagonal included."""
        return 1 + int(np.max(np.count_nonzero(self.columns < self.shape[0], axis=0)))

    def _triplets(self):
        n = self.shape[0]
        s, i = np.nonzero(self.columns < n)
        return i, self.columns[s, i], self.values[s, i]

    def toarray(self) -> np.ndarray:
        n = self.shape[0]
        H = np.zeros((n, n), dtype=complex)
        i, j, values = self._triplets()
        H[i, j] = values
        H[np.diag_indices(n)] = self._diagonal
        return H

    def tocsc(self):
        import scipy.sparse  # here, not at module level: only SuperLU and ARPACK need it

        n = self.shape[0]
        i, j, values = self._triplets()
        diag = np.arange(n)
        return scipy.sparse.csc_array((np.concatenate((values, self._diagonal)),
                                       (np.concatenate((i, diag)), np.concatenate((j, diag)))), shape=(n, n))


def assemble(l: int, q: FourierPotential, t, basis, shift_center=None, sparse: bool = False):
    """Hermitian matrix of (-Laplace)^l + q over a PlanewaveBasis or a ResonantIndexSet.

    With shift_center = v the diagonal holds |gamma+t|^{2l} - |v|^{2l}
    (cancellation-free); eigenvalues of the result are then relative to
    |v|^{2l}.  The result is a WindowOperator over q.coupling_table with
    sparse set, else its dense array.  An entry depends on its own two
    rows only, so leading rows give the leading block.
    """
    n = len(basis.coords)
    if n == 0:
        raise ValueError("basis must be non-empty")
    t = np.asarray(t, dtype=float)
    v = np.zeros_like(t) if shift_center is None else np.asarray(shift_center, dtype=float)
    H = WindowOperator(relative_energies(v, basis.embeddings + t, l), *q.coupling_table(basis.coords))
    return H if sparse else H.toarray()


def diagonalize(H, basis: PlanewaveBasis, t, l: int, shift: float = 0.0) -> BlochSpectrum:
    """Full dense Hermitian eigensolve with residual and unit-norm certificates."""
    H = np.asarray(H)
    evals_rel, evecs = np.linalg.eigh(H)
    return _certified(basis, t, l, shift, evals_rel, evecs, H @ evecs)


def _certified(basis: PlanewaveBasis, t, l: int, shift: float, evals_rel, evecs, HX) -> BlochSpectrum:
    """The spectrum of the pairs (evals_rel, evecs) of the relative-frame H, HX = H @ evecs.

    Raises ConvergenceFailure unless every vector has unit norm to 1e-10 and
    residual |H x - lambda x| <= _RESIDUAL_TOL (1 + |lambda + shift|).
    """
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


def _window_pairs(H, lo: float, hi: float):
    """The eigenpairs of the sparse H with eigenvalue in [lo, hi), certified complete by inertia.

    count = nu(hi) - nu(lo) pairs lie in [lo, hi) (see _inertia), and
    exactly that many are solved about the midpoint (_shift_invert).
    Returns (count, reason, pairs): reason is None and pairs is
    (eigenvalues, vectors, H @ vectors) in ascending order, or reason names
    the guard that tripped and pairs is None.  "pivot": no trustworthy
    LDL^H at lo or hi, or an eigenvalue exactly at the midpoint.  "count":
    Lanczos could not or did not find the counted pairs (see _shift_invert),
    or a Rayleigh quotient falls outside [lo, hi).
    """
    floor = _PIVOT_TOL * float(abs(H).sum(axis=0).max())
    below = [_inertia(H, s, floor) for s in (lo, hi)]
    if None in below:
        return None, "pivot", None
    count = below[1] - below[0]
    if count == 0:
        empty = np.zeros((H.shape[0], 0), dtype=complex)
        return 0, None, (np.zeros(0), empty, empty)
    reason, pairs = _shift_invert(H, count, 0.5 * (lo + hi))
    if reason is None and np.any((pairs[0] < lo) | (pairs[0] >= hi)):
        reason = "count"
    if reason is not None:
        return count, reason, None
    order = np.argsort(pairs[0], kind="stable")
    return count, None, tuple(p[..., order] for p in pairs)


def _shift_invert(H, k: int, sigma: float):
    """(reason, pairs): the k eigenpairs of the sparse Hermitian H nearest sigma.

    Shift-invert Lanczos (scipy's eigsh) starts from a fixed vector in H's
    dtype, so that reruns are byte-identical: on a float64 H, ARPACK runs
    real symmetric Lanczos and SuperLU factors in real arithmetic.  The
    inverse is one SuperLU factorization of H - sigma I in the symmetric
    minimum-degree ordering that _inertia uses, which fills less than
    eigsh's default COLAMD on these operators.  pairs is (theta, X, H @ X),
    X the unit vectors and theta their Rayleigh quotients Re(x^H H x),
    which bring the eigenvalues back to a full solve's accuracy.  Otherwise
    pairs is None and reason names the guard that tripped: "count" when k
    is not in [1, n - 1) (Lanczos needs k < n - 1) or ARPACK did not
    converge or failed otherwise, "pivot" when H - sigma I is exactly
    singular (an eigenvalue at sigma).
    """
    import scipy.sparse
    import scipy.sparse.linalg  # here, not at module level: its import costs ~30 MB

    n = H.shape[0]
    if not 0 < k < n - 1:
        return "count", None
    v0 = np.random.default_rng(0).standard_normal(n).astype(H.dtype)
    try:
        lu = scipy.sparse.linalg.splu(H - sigma * scipy.sparse.eye_array(n, format="csc"),
                                      permc_spec="MMD_AT_PLUS_A")
    except RuntimeError:  # H - sigma I is exactly singular
        return "pivot", None
    inverse = scipy.sparse.linalg.LinearOperator(H.shape, matvec=lu.solve, dtype=H.dtype)
    try:
        _, X = scipy.sparse.linalg.eigsh(H, k=k, sigma=sigma, v0=v0, OPinv=inverse)
    except scipy.sparse.linalg.ArpackError:  # no convergence, or another ARPACK failure
        return "count", None
    X = X / np.linalg.norm(X, axis=0)
    HX = H @ X
    return None, (np.real(np.vecdot(X, HX, axis=0)), X, HX)


def _inertia(H, s: float, floor: float) -> int | None:
    """nu(s), the number of eigenvalues of the sparse Hermitian H below s.

    By Sylvester's law of inertia nu(s) is the number of negative pivots of
    an LDL^H factorization of H - sI.  SuperLU computes one (U = D L^H) when
    it pivots on the diagonal (diag_pivot_thresh=0) in a symmetric ordering
    (perm_r == perm_c).  None when it did not, or when some |U_ii| < floor:
    an eigenvalue at s, or a pivot too small for its sign to be trusted.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    shifted = H - s * scipy.sparse.eye_array(H.shape[0], format="csc")
    try:
        lu = scipy.sparse.linalg.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                                      options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular
        return None
    pivots = lu.U.diagonal()
    if not np.array_equal(lu.perm_r, lu.perm_c) or np.any(np.abs(pivots) < floor):
        return None
    return int(np.count_nonzero(pivots.real < 0))


def solve(lattice: LatticeModel, l: int, q: FourierPotential, t, basis: PlanewaveBasis,
          shift_center=None) -> BlochSpectrum:
    shift = 0.0
    if shift_center is not None:
        v = np.asarray(shift_center, dtype=float)
        shift = float(v @ v) ** l
    H = assemble(l, q, t, basis, shift_center=shift_center)
    return diagonalize(H, basis, t, l, shift=shift)


def bloch_solve(lattice: LatticeModel, l: int, q: FourierPotential, v, window_radius: float,
                t=None, refine: bool = False) -> BlochSpectrum:
    """Windowed ground truth near |v|^{2l}, v = gamma0 + t, solved in full.

    With refine set, re-solves on a 1.5x window; the eigenvalue tracked to
    the center index must move by less than 1e-9 (1 + |Lambda|), else
    WindowNotConverged (see _windows for the window's own precondition).
    The refined spectrum is returned.
    """
    v = np.asarray(v, dtype=float)
    gamma0, t = lattice.split(v, t)
    spectra = [solve(lattice, l, q, t, basis, shift_center=v)
               for basis in _windows(lattice, q, t, v, gamma0.coords, window_radius, refine)]
    return _summarized(spectra, gamma0.coords, window_radius, refine, eigensolver="dense")


def track_dominant(lattice: LatticeModel, l: int, q: FourierPotential, v, window_radius: float,
                   predictions, halfwidth: float, refine: bool = False) -> BlochSpectrum:
    """The eigenpair dominated by gamma0's plane wave, v = gamma0 + t, solved alone in each window.

    predictions (relative to |v|^{2l}, highest order last) are the values
    the pair is matched against, each within halfwidth.  The operator is
    assembled once, over the outermost window (see _windows), and each
    window's pair comes from _track_pair on its leading block, on one BLAS
    thread when the window has at most numerics.SERIAL_TRACK_BASIS waves;
    with refine set, the 1.5x window starts from the inner window's pair,
    and the two windows' pairs are compared as in bloch_solve.  The
    spectrum holds the one pair (diagnostics eigensolver "tracked").  When either window
    refuses its pair, every window's block is solved instead by
    _counted_window over [min P - halfwidth, max P + halfwidth], which
    holds every pair a prediction can match, and
    diagnostics["tracking_refused"] says why.  diagnostics["track_steps"]
    lists the Davidson steps taken in each window tried.
    """
    v = np.asarray(v, dtype=float)
    gamma0, t = lattice.split(v)
    shift = float(v @ v) ** l
    bases = _windows(lattice, q, t, v, gamma0.coords, window_radius, refine)
    H = assemble(l, q, t, bases[-1], shift_center=v, sparse=True)
    spectra, steps, start = [], [], None
    for basis in bases:
        k = len(basis)
        with capped_blas_threads(1 if k <= SERIAL_TRACK_BASIS else None):
            refused, taken, spectrum = _track_pair(H[:k, :k], basis, t, l, shift, gamma0.coords, predictions,
                                                   halfwidth, start)
        steps.append(taken)
        if refused is not None:
            break
        spectra.append(spectrum)
        start = spectrum.coefficients[0]
    else:
        return _summarized(spectra, gamma0.coords, window_radius, refine, inertia_count=None,
                           eigensolver="tracked", dense_fallback_reason=None, tracking_refused=None,
                           track_steps=steps)
    lo, hi = min(predictions) - halfwidth, max(predictions) + halfwidth
    counts, reasons, spectra = zip(*(_counted_window(H[:len(b), :len(b)], b, t, l, shift, lo, hi, gamma0.coords)
                                     for b in bases))
    return _summarized(spectra, gamma0.coords, window_radius, refine, inertia_count=list(counts),
                       eigensolver="dense" if any(reasons) else "sparse",
                       dense_fallback_reason=next((r for r in reasons if r), None), tracking_refused=refused,
                       track_steps=steps)


def _counted_window(H, basis: PlanewaveBasis, t, l: int, shift: float, lo: float, hi: float, coords):
    """(count, reason, spectrum): the pairs of the sparse H in [lo, hi), counted by inertia.

    H is a WindowOperator or its CSC array (tocsc), which SuperLU and
    ARPACK solve.  The pairs come from _window_pairs, and reason is None,
    when its guards hold and one of them weighs more than 1/2 on coords,
    which makes it the full spectrum's dominant pair (see
    BlochSpectrum.dominant_index).  Otherwise the spectrum is the dense eigh
    of H in full, and reason names the guard that tripped, or is
    "half-rule".
    """
    H = H.tocsc()
    count, reason, pairs = _window_pairs(H, lo, hi)
    if reason is None:
        spectrum = _certified(basis, t, l, shift, *pairs)
        if len(spectrum) and spectrum.weight(spectrum.dominant_index(coords), coords) > 0.5:
            return count, None, spectrum
        reason = "half-rule"
    return count, reason, diagonalize(H.toarray(), basis, t, l, shift)


def _track_pair(H: WindowOperator, basis: PlanewaveBasis, t, l: int, shift: float, coords, predictions,
                halfwidth: float, start=None):
    """(reason, steps, spectrum): the pair of H that Davidson's method reaches from start.

    The search space V starts as [start]: e_coords when start is None,
    else the unit vector whose leading entries are start and the rest 0
    (track_dominant passes the inner window's pair, whose leading rows the
    outer window shares).  Each step multiplies H into
    V's newest vector and takes, by Rayleigh-Ritz on span V, the Ritz pair
    (theta, x) nearest sigma = predictions[-1], x scaled to unit norm and a
    real positive entry on coords, so reruns are byte-identical.  It stops
    once |H x - theta x| <= _TRACK_TOL ||H||_1, or once it is within the
    rounding of its own evaluation r = sum_k s_k (H v_k) - theta x:
    m eps || |H| sum_k |s_k| |v_k| ||, m the most nonzeros in a column of
    H.  (On small windows whose pair spreads over most waves, the residual
    can stall there, above the fixed tolerance.)  Otherwise V gains the
    correction (diag H - theta)^-1 (H x - theta x), orthogonalized twice
    against V; V and H V grow with the steps taken (_with_row), not sized
    for the cap up front.  The pair (x^H H x, x), with H x multiplied
    afresh, is accepted, and reason is None, when the loop stops within
    _TRACK_STEPS steps, the unit-norm and residual certificates hold,
    |x_coords|^2 > 1/2 (so it is the window's dominant pair, see
    BlochSpectrum.dominant_index) and |theta - P| < halfwidth for every
    prediction.  Otherwise spectrum
    is None and reason is "convergence" (no stop within the cap, or a
    failed certificate), "weight" or "window".  steps counts the
    Davidson steps taken (matvecs, the final one aside).
    """
    pos = basis.positions(coords)[0]
    norm1 = H.one_norm()
    tol = _TRACK_TOL * norm1
    # fl(H v) - H v <= m eps |H| |v| entrywise, m the most nonzeros in a column
    rounding = np.finfo(float).eps * H.column_nonzeros()
    diagonal = H.diagonal()
    V = np.zeros((1, H.shape[0]), dtype=complex)  # row k: the k-th orthonormal search vector
    HV = np.empty_like(V)  # row k: H times V's row k
    T = np.zeros((_TRACK_STEPS, _TRACK_STEPS), dtype=complex)  # lower triangle of V^H H V
    if start is None:
        V[0, pos] = 1.0
    else:
        V[0, :len(start)] = start / np.linalg.norm(start)
    for k in range(_TRACK_STEPS):
        HV = _with_row(HV, k)
        HV[k] = H @ V[k]
        T[k, :k + 1] = V[:k + 1] @ HV[k].conj()
        ritz, S = np.linalg.eigh(T[:k + 1, :k + 1])
        j = int(np.argmin(np.abs(ritz - predictions[-1])))
        theta, s = float(ritz[j]), S[:, j]
        x = s @ V[:k + 1]
        scale = np.exp(-1j * np.angle(x[pos])) / np.linalg.norm(x)
        x, s = x * scale, s * scale
        r = s @ HV[:k + 1] - theta * x
        res = np.linalg.norm(r)
        # the rounding floor is at most rounding ||H||_1 ||s||_1: multiply it out only below that
        if res <= tol or (res <= rounding * norm1 * np.abs(s).sum()
                          and res <= rounding * np.linalg.norm(abs(H) @ (np.abs(s) @ np.abs(V[:k + 1])))):
            break
        delta = diagonal - theta  # exactly 0 on a wave as free as gamma0's, e.g. on a resonance plane
        c = r / np.where(np.abs(delta) < tol, tol, delta)
        for _ in range(2):
            c -= np.conj(V[:k + 1] @ c.conj()) @ V[:k + 1]
        V = _with_row(V, k + 1)
        V[k + 1] = c / np.linalg.norm(c)
    else:
        return "convergence", _TRACK_STEPS, None
    steps = k + 1
    Hx = H @ x
    theta = float(np.real(np.vdot(x, Hx)))
    try:
        spectrum = _certified(basis, t, l, shift, np.array([theta]), x[:, None], Hx[:, None])
    except ConvergenceFailure:
        return "convergence", steps, None
    if not abs(x[pos]) ** 2 > 0.5:
        return "weight", steps, None
    if any(abs(theta - p) >= halfwidth for p in predictions):
        return "window", steps, None
    return None, steps, spectrum


def _with_row(rows: np.ndarray, k: int) -> np.ndarray:
    """rows when it has a row k, else a copy of its first k rows with room
    for twice as many rows (at most _TRACK_STEPS + 1).  Rows are copied
    whole, so the grown search space holds the same values bit for bit."""
    if k < len(rows):
        return rows
    grown = np.empty((min(2 * len(rows), _TRACK_STEPS + 1), rows.shape[1]), dtype=rows.dtype)
    grown[:k] = rows[:k]
    return grown


def _windows(lattice: LatticeModel, q: FourierPotential, t, v, coords, window_radius: float,
             refine: bool) -> list[PlanewaveBasis]:
    """The window around v, and with refine its 1.5x refinement, from one enumeration.

    The outer ball's rows are ordered by (|gamma + t - v|^2, coords), so the
    inner window, cut by the enumeration's own membership test, is exactly
    its leading rows.  The window must hold gamma0 = coords, which split
    guarantees for any radius >= 0 (else PreconditionError: a negative
    radius).  With refine it must also hold every gamma0 + g, g in supp q,
    else WindowNotConverged: without them the 1.5x window cannot move the
    eigenvalue it certifies.
    """
    bases = [PlanewaveBasis.window(lattice, t, v, window_radius * 1.5 if refine else window_radius)]
    if refine:
        _, inside = _in_shifted_ball(bases[0].embeddings, v - t, window_radius)
        bases.insert(0, PlanewaveBasis(lattice, bases[0].coords[:np.count_nonzero(inside)]))
    if bases[0].positions(coords)[0] < 0:
        raise PreconditionError("window excludes the center's own index")
    if refine and q.support and np.any(bases[0].positions(np.add(coords, q.support)) < 0):
        raise WindowNotConverged(
            f"window radius {window_radius} misses waves coupled to the center (support radius {q.support_radius})")
    return bases


def _summarized(spectra, coords, window_radius: float, refine: bool, **path) -> BlochSpectrum:
    """The last window's spectrum, with diagnostics describing every window's solve.

    With refine set, the eigenvalue tracked to coords must move by less
    than _REFINE_TOL (1 + |Lambda|) between the two windows, else
    WindowNotConverged.  path names the solve (inertia_count, eigensolver,
    dense_fallback_reason, ...).
    """
    move = None
    if refine:
        spectrum, refined = spectra
        n_small = spectrum.dominant_index(coords)
        n_big = refined.dominant_index(coords)
        move = abs(spectrum.relative_eigenvalue(n_small) - refined.relative_eigenvalue(n_big))
        lam = abs(refined.eigenvalues[n_big])
        if move >= _REFINE_TOL * (1.0 + lam):
            raise WindowNotConverged(
                f"tracked eigenvalue moved {move:.3e} under window refinement ({window_radius} -> {window_radius * 1.5})")
    return replace(spectra[-1], diagnostics={
        "basis_size": len(spectra[0].basis),
        "refined_basis_size": len(spectra[-1].basis) if refine else None,
        "pairs_solved": sum(len(s) for s in spectra),
        **path,
        "certificate_move": move,
        "worst_residual": max(float(np.max(s.residual_norms)) for s in spectra),
    })
