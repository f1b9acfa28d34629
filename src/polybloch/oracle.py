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
the one operator builder, of windows, resonant blocks and band matrices
alike.  Only the diagonal depends on the center: an entry
q_{gamma - gamma'} depends on gamma - gamma' alone, so every window of one
radius is one set of offsets translated by gamma0, and every resonant
block of one shape likewise (block.build_index_set).  Such a translate
searches its root's index (PlanewaveBasis.root), and its sparse operator
reads the root's couplings, which q builds once and keeps
(FourierPotential.coupling_table).  _windows, the one window builder,
translates q's cached origin window (FourierPotential.origin_window),
enumerated once per table and radius; the inner window is the leading
rows of its 1.5x refinement.

Every window solves q's eigenvalue table (FourierPotential.eigenvalue_table),
in the arithmetic its coefficients set.  The coefficient rows come back in
q's frame (_in_q_frame), and diagnostics["real_symmetric"] says which
arithmetic ran.

Order sweeps need one pair per window: the one dominated by gamma0's plane
wave, whose eigenvalue every order's prediction is matched against.  Away
from gamma0 the window operator's diagonal dominates its couplings (the
paper's corrections are |q| / (|gamma+t|^{2l} - |v|^{2l})), so
track_dominant finds that pair by Davidson's method (Davidson 1975; Morgan
& Scott 1986; _track_pair) from e_gamma0, and the 1.5x window's from the
inner window's pair: each step is one sparse matvec, a Rayleigh-Ritz on
the search space and the diagonally preconditioned correction
(diag H - theta)^-1 r, one more order of the same perturbation series.
Nothing is factored, and the sparse operator is a WindowOperator in numpy
alone: its matvec gathers once per support vector.  The Ritz pair nearest
the highest-order prediction is accepted when it passes the residual and
unit-norm certificates (_certified_pair), weighs more than 1/2 on gamma0
(the weights on gamma0 sum to 1 over all pairs, so no other pair can
weigh more) and lies in every order's matching window.  Otherwise every
window is solved in full by dense eigh on the same operators, densified
(WindowOperator.toarray): bloch_solve's matrices, bit for bit.  The same
certified engine finds the resonant block's eigenvalue nearest a known
part (block.nearest_eigenvalue), whose acceptance set is the whole block
and whose operator is likewise that of q's eigenvalue table.  Two
Sylvester-inertia counts (_inertia) prove that eigenvalue nearest, on one
ordered pattern per block shape (_OrderedPattern), the one place that
calls SuperLU.
bloch_solve, solve and diagonalize are the full dense solves.  No dense
matrix holds more than MAX_DENSE_BASIS plane waves.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceFailure, PreconditionError, WindowNotConverged
from .lattice import LatticeModel, PlanewaveBasis, _in_shifted_ball
from .numerics import SERIAL_TRACK_BASIS, capped_blas_threads, relative_energies
from .potential import FourierPotential

_RESIDUAL_TOL = 1e-8
_CLUSTER_TOL = 1e-9
_REFINE_TOL = 1e-9
_PIVOT_TOL = 1e-12  # an inertia count needs every |U_ii| >= _PIVOT_TOL * ||H||_1
_TRACK_TOL = 1e-16  # a tracked pair has converged once |H x - theta x| <= _TRACK_TOL * ||H||_1
_TRACK_STEPS = 24  # Davidson steps (one matvec each) per window before tracking is refused
MAX_DENSE_BASIS = 8192  # plane waves in one dense matrix: a complex one takes 16 n^2 bytes (1 GiB)


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
    eigenvalues_rel: np.ndarray = field(repr=False)
    shift: float
    diagnostics: dict = field(default=None, repr=False, compare=False)  # set by bloch_solve and track_dominant

    def __post_init__(self):
        for arr in (self.t, self.eigenvalues, self.coefficients, self.residual_norms, self.cluster_flags,
                    self.eigenvalues_rel):
            arr.setflags(write=False)

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
        return float(self.eigenvalues_rel[n])


class WindowOperator:
    """A sparse Hermitian operator in numpy alone, as assemble(..., sparse=True) returns it.

    diagonal() is the real diagonal, and (columns, values) the
    off-diagonal of FourierPotential.coupling_table: row i holds
    values[s, i] in column columns[s, i], with the sentinel n (value 0)
    where there is none; dtype is their common type (float64 for real
    couplings).  H @ x gathers x once per offset and abs(H) is the
    operator of the entries' moduli.  tocsc() builds the scipy.sparse CSC
    array that SuperLU needs, every diagonal entry stored, and toarray()
    the dense matrix in H's dtype: PreconditionError, before anything is
    allocated, above MAX_DENSE_BASIS waves.
    """

    def __init__(self, diagonal: np.ndarray, columns: np.ndarray, values: np.ndarray):
        self._diagonal, self.columns, self.values = diagonal, columns, values
        self.shape = (len(diagonal), len(diagonal))
        self.dtype = np.result_type(diagonal, values)

    def diagonal(self) -> np.ndarray:
        return self._diagonal

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """H x for a vector x."""
        return self._diagonal * x + np.sum(self.values * np.append(x, 0)[self.columns], axis=0)

    def __abs__(self) -> "WindowOperator":
        return WindowOperator(np.abs(self._diagonal), self.columns, np.abs(self.values))

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
        if n > MAX_DENSE_BASIS:
            raise PreconditionError(f"a dense matrix of {n} plane waves: a dense solve takes at most "
                                    f"{MAX_DENSE_BASIS}")
        H = np.zeros((n, n), dtype=self.dtype)
        i, j, values = self._triplets()
        H[i, j] = values
        H[np.diag_indices(n)] = self._diagonal
        return H

    def tocsc(self):
        import scipy.sparse  # here, not at module level: only SuperLU needs it

        n = self.shape[0]
        i, j, values = self._triplets()
        diag = np.arange(n)
        return scipy.sparse.csc_array((np.concatenate((values, self._diagonal)),
                                       (np.concatenate((i, diag)), np.concatenate((j, diag)))), shape=(n, n))


def assemble(l: int, q: FourierPotential, t, basis, shift_center=None, sparse: bool = False):
    """Hermitian matrix of (-Laplace)^l + q over an index set (lattice.PlanewaveBasis).

    With shift_center = v the diagonal holds |gamma+t|^{2l} - |v|^{2l}
    (cancellation-free); eigenvalues of the result are then relative to
    |v|^{2l}.  With sparse set the result is a WindowOperator, else its
    dense array.  An entry q_{gamma - gamma'} depends on gamma - gamma'
    alone, and a set's rows are shift + the leading rows of its root
    (PlanewaveBasis.root), so the sparse couplings are the root's table,
    kept by q (FourierPotential.coupling_table), cut to those rows: bit
    for bit the set's own.
    """
    n = len(basis.coords)
    if n == 0:
        raise ValueError("basis must be non-empty")
    t = np.asarray(t, dtype=float)
    v = np.zeros_like(t) if shift_center is None else np.asarray(shift_center, dtype=float)
    diagonal = relative_energies(v, basis.embeddings + t, l)
    if not sparse:
        # The dense path builds the set's own couplings on every call, unkept: perfbench's
        # span test asserts coefficient lookups in a second bloch_solve on one table.
        return WindowOperator(diagonal, *q._coupling_table(basis)).toarray()
    root = basis.root[0]
    columns, values = q.coupling_table(root)
    if n < len(root):  # couplings that leave the leading rows go to the sentinel n
        inside = columns[:, :n] < n
        columns, values = np.where(inside, columns[:, :n], n), np.where(inside, values[:, :n], 0)
    return WindowOperator(diagonal, columns, values)


def diagonalize(H, basis: PlanewaveBasis, t, l: int, shift: float) -> BlochSpectrum:
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


class _OrderedPattern:
    """A WindowOperator H as a CSC array (tocsc), and one symmetric fill-reducing order of its pattern.

    H keeps the rows' own order, and it stores every diagonal entry.  The
    order P is SuperLU's minimum-degree order of A^T + A (MMD_AT_PLUS_A), a
    function of the pattern alone, read once off the factor of a strictly
    diagonally dominant matrix with H's pattern.
    factor(s) factors P (H - sI) P^T with permc_spec "NATURAL", so no
    factorization orders the pattern again.  with_diagonal(d) is the
    operator with H's off-diagonal and the diagonal d, in the same pattern
    and order: a resonant block reuses one pattern for the inertia counts
    of every block of its shape (block.nearest_eigenvalue).
    """

    def __init__(self, H: WindowOperator):
        import scipy.sparse
        import scipy.sparse.linalg

        n = H.shape[0]
        diag = np.arange(n)
        self.H = H.tocsc()
        indices, indptr = self.H.indices, self.H.indptr
        columns = np.repeat(diag, np.diff(indptr))
        self._diagonal = np.flatnonzero(indices == columns)  # where H.data holds H_ii
        # each diagonal entry exceeds its row's and its column's other entries summed, so no pivot leaves it
        dominance = np.diff(indptr) + np.bincount(indices, minlength=n)
        surrogate = scipy.sparse.csc_array((np.where(indices == columns, dominance[columns], -1.0), indices, indptr),
                                           shape=H.shape)
        # H_ij is (P H P^T)_{rank i, rank j}
        self._rank = scipy.sparse.linalg.splu(surrogate, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                                              options={"SymmetricMode": True}).perm_c
        permuted = scipy.sparse.csc_array((np.arange(len(indices)), (self._rank[indices], self._rank[columns])),
                                          shape=H.shape)
        self._gather, self._pattern = permuted.data, (permuted.indices, permuted.indptr)
        self._pivots = np.flatnonzero(permuted.indices == np.repeat(diag, np.diff(permuted.indptr)))

    def with_diagonal(self, diagonal) -> "_OrderedPattern":
        """The operator with H's off-diagonal and this diagonal, in H's pattern and order."""
        import scipy.sparse

        ordered = copy.copy(self)
        data = self.H.data.copy()
        data[self._diagonal] = diagonal
        ordered.H = scipy.sparse.csc_array((data, self.H.indices, self.H.indptr), shape=self.H.shape)
        return ordered

    def factor(self, s: float):
        """SuperLU's factor of P (H - sI) P^T, or None when it is exactly singular.

        It pivots on the diagonal (diag_pivot_thresh=0) in symmetric mode,
        which gives the LDL^H _inertia reads.
        """
        import scipy.sparse
        import scipy.sparse.linalg

        data = self.H.data[self._gather]
        data[self._pivots] -= s
        shifted = scipy.sparse.csc_array((data, *self._pattern), shape=self.H.shape)
        try:
            return scipy.sparse.linalg.splu(shifted, permc_spec="NATURAL", diag_pivot_thresh=0,
                                            options={"SymmetricMode": True})
        except RuntimeError:  # exactly singular
            return None


def _inertia(ordered: _OrderedPattern, s: float, floor: float) -> int | None:
    """nu(s), the number of eigenvalues of the sparse Hermitian H = ordered.H below s.

    By Sylvester's law of inertia nu(s) is the number of negative pivots of
    an LDL^H factorization of H - sI.  SuperLU computes one (U = D L^H) when
    it pivots on the diagonal (_OrderedPattern.factor) in a symmetric
    ordering (perm_r == perm_c).  None when it did not, or when some
    |U_ii| < floor: an eigenvalue at s, or a pivot too small for its sign
    to be trusted.
    """
    lu = ordered.factor(s)
    if lu is None:
        return None
    pivots = lu.U.diagonal()
    if not np.array_equal(lu.perm_r, lu.perm_c) or np.any(np.abs(pivots) < floor):
        return None
    return int(np.count_nonzero(pivots.real < 0))


def solve(lattice: LatticeModel, l: int, q: FourierPotential, t, basis: PlanewaveBasis,
          shift_center) -> BlochSpectrum:
    """Dense solve on basis, eigenvalues relative to |shift_center|^{2l} (see assemble), of q's eigenvalue table."""
    v = np.asarray(shift_center, dtype=float)
    table = q.eigenvalue_table()
    H = assemble(l, table, t, basis, shift_center=v)
    return _in_q_frame(diagonalize(H, basis, t, l, float(v @ v) ** l), q, table)


def _in_q_frame(spectrum: BlochSpectrum, q: FourierPotential, table: FourierPotential) -> BlochSpectrum:
    """spectrum, solved on the operator of q's eigenvalue table, with q's coefficient rows.

    A table other than q is q's even translate, whose operator is D H D^H,
    so each row y maps back to x = conj(D) y; eigenvalues, residual norms
    and weights are the same in both frames.  A global phase cancels in
    D H D^H, so D is taken over the rows of the set's root
    (PlanewaveBasis.root): for every window the origin window (_windows),
    whose D the table keeps (FourierPotential.translate_phases).  D is
    exactly 1 there on gamma0, so a tracked row's largest entry stays real
    positive.
    """
    if table is q:
        return spectrum
    phases = table.translate_phases(spectrum.basis.root[0])[:len(spectrum.basis)]
    return replace(spectrum, coefficients=spectrum.coefficients * np.conj(phases))


def bloch_solve(lattice: LatticeModel, l: int, q: FourierPotential, v, window_radius: float,
                refine: bool = False) -> BlochSpectrum:
    """Windowed ground truth near |v|^{2l}, v = gamma0 + t, solved in full.

    With refine set, re-solves on a 1.5x window; the eigenvalue tracked to
    the center index must move by less than 1e-9 (1 + |Lambda|), else
    WindowNotConverged (see _windows for the window's own precondition).
    The refined spectrum is returned.
    """
    v = np.asarray(v, dtype=float)
    gamma0, t = lattice.split(v)
    table = q.eigenvalue_table()
    spectra = [solve(lattice, l, q, t, basis, shift_center=v)
               for basis in _windows(table, gamma0.coords, window_radius, refine)]
    return _summarized(spectra, gamma0.coords, window_radius, refine, eigensolver="dense",
                       real_symmetric=table.is_real)


def track_dominant(lattice: LatticeModel, l: int, q: FourierPotential, v, window_radius: float,
                   predictions, halfwidth: float, refine: bool = False) -> BlochSpectrum:
    """The eigenpair dominated by gamma0's plane wave, v = gamma0 + t, solved alone in each window.

    predictions (relative to |v|^{2l}, highest order last) are the values
    the pair is matched against, each within halfwidth.  Each window's
    operator (see _windows) is assemble's on q's eigenvalue table: the
    couplings of their root, the origin window, which the table builds
    once per radius, and this center's diagonal.  Its pair comes from _certified_pair, run towards
    predictions[-1] and accepted when |theta - P| < halfwidth for every
    prediction P (else refused as "window"); with refine set, the 1.5x
    window starts from the inner window's pair, and the two windows' pairs
    are compared as in bloch_solve.  The spectrum holds the one pair, its
    row in q's frame with a real positive entry on gamma0 (_in_q_frame;
    diagnostics eigensolver "tracked").  When either window refuses its
    pair, every window's operator is solved in full by dense eigh
    (eigensolver "dense"): the spectrum is bloch_solve's on the same
    windows, bit for bit, and diagnostics["tracking_refused"] says why.
    diagnostics["track_steps"] lists the Davidson steps taken in each
    window tried.
    """
    v = np.asarray(v, dtype=float)
    gamma0, t = lattice.split(v)
    shift = float(v @ v) ** l
    table = q.eigenvalue_table()
    bases = _windows(table, gamma0.coords, window_radius, refine)
    operators = [assemble(l, table, t, basis, shift_center=v, sparse=True) for basis in bases]
    spectra, steps, start = [], [], None
    for basis, H in zip(bases, operators):
        refused, taken, spectrum = _certified_pair(H, basis, t, l, shift, gamma0.coords, predictions[-1], start)
        steps.append(taken)
        if refused is None and any(abs(spectrum.relative_eigenvalue(0) - p) >= halfwidth for p in predictions):
            refused = "window"
        if refused is not None:
            spectra = [diagonalize(op.toarray(), window, t, l, shift) for window, op in zip(bases, operators)]
            break
        spectra.append(spectrum)
        start = spectrum.coefficients[0]
    spectra[-1] = _in_q_frame(spectra[-1], q, table)  # the spectrum returned
    return _summarized(spectra, gamma0.coords, window_radius, refine, eigensolver="dense" if refused else "tracked",
                       real_symmetric=table.is_real, tracking_refused=refused, track_steps=steps)


def _certified_pair(H: WindowOperator, basis: PlanewaveBasis, t, l: int, shift: float, coords, sigma: float,
                    start=None, stop: float = _TRACK_TOL):
    """(reason, steps, spectrum): _track_pair's pair of H nearest sigma, certified, as a one-pair spectrum.

    _track_pair (see there for coords, start and stop) runs on one BLAS
    thread when basis has at most numerics.SERIAL_TRACK_BASIS waves.  Its
    pair is accepted, and reason is None, when the unit-norm and residual
    certificates hold (_certified): some eigenvalue of H then lies within
    residual_norms[0] = |H x - theta x| of theta = eigenvalues_rel[0].
    Otherwise spectrum is None and reason is _track_pair's, or
    "convergence" for a failed certificate.  track_dominant and
    block.nearest_eigenvalue take their pairs from here.
    """
    with capped_blas_threads(1 if len(basis) <= SERIAL_TRACK_BASIS else None):
        reason, steps, pair = _track_pair(H, basis, coords, sigma, start, stop)
    if reason is not None:
        return reason, steps, None
    theta, x, Hx = pair
    try:
        return None, steps, _certified(basis, t, l, shift, np.array([theta]), x[:, None], Hx[:, None])
    except ConvergenceFailure:
        return "convergence", steps, None


def _track_pair(H: WindowOperator, basis: PlanewaveBasis, coords, sigma: float, start=None,
                stop: float = _TRACK_TOL):
    """(reason, steps, pair): the pair of H nearest sigma that Davidson's method reaches from start.

    coords, rows of basis, is the acceptance index set: one row (a
    window's gamma0) or all of them (a resonant block's).  The search
    space V starts as [start]: when start is None, e_i for the row i of
    coords whose diagonal entry is nearest sigma (e_gamma0 for a window),
    else the unit vector whose leading entries are start and the rest 0
    (track_dominant passes the inner window's pair, whose leading rows the
    outer window shares).  V, H V and the Rayleigh-Ritz matrix are in H's
    dtype, so a real H is solved in real arithmetic.  Each step multiplies
    H into V's newest vector and takes, by Rayleigh-Ritz on span V, the
    Ritz pair (theta, x) nearest sigma, x scaled to unit norm and a real
    positive entry where it is largest on coords, so reruns are
    byte-identical.  It stops once |H x - theta x| <= stop ||H||_1
    (windows: _TRACK_TOL), or once it is within the rounding of its own
    evaluation r = sum_k s_k (H v_k) - theta x:
    m eps || |H| sum_k |s_k| |v_k| ||, m the most nonzeros in a column of
    H.  (On small windows whose pair spreads over most waves, the residual
    can stall there, above the fixed tolerance.)  Otherwise V gains the
    correction (diag H - theta)^-1 (H x - theta x), orthogonalized twice
    against V; the loop also stops when that leaves exactly 0, as on a
    decoupled chain of waves that V already spans.  V and H V grow with
    the steps taken (_with_row), not sized for the cap up front.  pair is
    (x^H H x, x, H x), with H x multiplied afresh, and reason None, when
    the loop stops within _TRACK_STEPS steps and x weighs more than 1/2 on
    coords: on gamma0 that makes it the window's dominant pair (see
    BlochSpectrum.dominant_index); on a whole block it always holds.
    Otherwise pair is None and reason is "convergence" or "weight".  steps
    counts the Davidson steps taken (matvecs, the final one aside).
    _certified_pair, its one caller, certifies the pair.
    """
    accept = basis.positions(coords)
    norm1 = H.one_norm()
    tol = _TRACK_TOL * norm1
    done = stop * norm1
    # fl(H v) - H v <= m eps |H| |v| entrywise, m the most nonzeros in a column
    rounding = np.finfo(float).eps * H.column_nonzeros()
    diagonal = H.diagonal()
    V = np.zeros((1, H.shape[0]), dtype=H.dtype)  # row k: the k-th orthonormal search vector
    HV = np.empty_like(V)  # row k: H times V's row k
    T = np.zeros((_TRACK_STEPS, _TRACK_STEPS), dtype=H.dtype)  # lower triangle of V^H H V
    if start is None:
        V[0, accept[np.argmin(np.abs(diagonal[accept] - sigma))]] = 1.0
    else:
        V[0, :len(start)] = start / np.linalg.norm(start)
    conj = np.conj if np.iscomplexobj(V) else (lambda a: a)  # np.conj copies a real array
    for k in range(_TRACK_STEPS):
        HV = _with_row(HV, k)
        HV[k] = H @ V[k]
        T[k, :k + 1] = V[:k + 1] @ conj(HV[k])
        # a 1 x 1 Rayleigh-Ritz matrix is its own eigenvalue, with eigenvector 1
        ritz, S = (T[:1, 0].real, np.ones((1, 1), T.dtype)) if k == 0 else np.linalg.eigh(T[:k + 1, :k + 1])
        j = int(np.argmin(np.abs(ritz - sigma)))
        theta, s = float(ritz[j]), S[:, j]
        x = s @ V[:k + 1]
        top = x[accept[np.argmax(np.abs(x[accept]))]]
        phase = np.exp(-1j * np.angle(top)) if np.iscomplexobj(x) else np.copysign(1.0, top)
        scale = phase / np.linalg.norm(x)
        x, s = x * scale, s * scale
        r = s @ HV[:k + 1] - theta * x
        res = np.linalg.norm(r)
        # the rounding floor is at most rounding ||H||_1 ||s||_1: multiply it out only below that
        if res <= done or (res <= rounding * norm1 * np.abs(s).sum()
                          and res <= rounding * np.linalg.norm(abs(H) @ (np.abs(s) @ np.abs(V[:k + 1])))):
            break
        delta = diagonal - theta  # exactly 0 on a wave as free as gamma0's, e.g. on a resonance plane
        c = r / np.where(np.abs(delta) < tol, tol, delta)
        for _ in range(2):
            c -= conj(V[:k + 1] @ conj(c)) @ V[:k + 1]
        length = np.linalg.norm(c)
        if length == 0:  # span V holds its own correction: no step can add to it
            break
        V = _with_row(V, k + 1)
        V[k + 1] = c / length
    else:
        return "convergence", _TRACK_STEPS, None
    if not np.sum(np.abs(x[accept]) ** 2) > 0.5:
        return "weight", k + 1, None
    Hx = H @ x
    return None, k + 1, (float(np.real(np.vdot(x, Hx))), x, Hx)


def _with_row(rows: np.ndarray, k: int) -> np.ndarray:
    """rows when it has a row k, else a copy of its first k rows with room
    for twice as many rows (at most _TRACK_STEPS + 1).  Rows are copied
    whole, so the grown search space holds the same values bit for bit."""
    if k < len(rows):
        return rows
    grown = np.empty((min(2 * len(rows), _TRACK_STEPS + 1), rows.shape[1]), dtype=rows.dtype)
    grown[:k] = rows[:k]
    return grown


def _windows(q: FourierPotential, coords, window_radius: float, refine: bool) -> list[PlanewaveBasis]:
    """The window around v = gamma0 + t, and with refine its 1.5x refinement, as translates by gamma0 = coords.

    The outer window is q's origin window (FourierPotential.origin_window),
    enumerated once per table and radius, translated to gamma0: its rows
    are gamma0 + gamma in the order of (|gamma|^2, gamma), and they search
    the origin window's one coordinate index.  The inner window, cut by the
    enumeration's own membership test on the origin rows, is exactly its
    leading rows (PlanewaveBasis.leading).  The window must hold gamma0,
    which it does for any radius >= 0 (else PreconditionError: a negative
    radius).  With refine it must also hold every gamma0 + g, g in supp q,
    else WindowNotConverged: without them the 1.5x window cannot move the
    eigenvalue it certifies.
    """
    origin = q.origin_window(window_radius * 1.5 if refine else window_radius)
    bases = [origin.translated(coords)]
    if refine:
        _, inside = _in_shifted_ball(origin.embeddings, 0.0, window_radius)
        bases.insert(0, bases[0].leading(np.count_nonzero(inside)))
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
    WindowNotConverged.  path names the solve (eigensolver, real_symmetric,
    and track_dominant's tracking_refused and track_steps).
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
