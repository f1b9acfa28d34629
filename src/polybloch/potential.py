"""The potential q(x) as a finite table of Fourier pairs (gamma, q_gamma).

Only trigonometric polynomials are representable; a Sobolev class is
modeled by finite support plus a declared smoothness, which makes the
short-wave truncation exact beyond the support radius.  Real-valuedness
(Hermitian symmetry of the table) is required so the plane-wave matrix is
Hermitian and all Bloch eigenvalues real; non-Hermitian tables are
rejected by the loader.  Translating q(x) -> q(x + x0) keeps every
spectrum; even_translate finds the translate whose table is real, when
there is one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeModel, PlanewaveBasis
from .numerics import integer_row_basis

_HERMITIAN_TOL = 1e-12
_EVEN_TOL = 1e-14  # a translate is real when every |Im q_g| <= _EVEN_TOL max |q|


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[str, ...]


class FourierPotential:
    """Immutable map from integer dual coordinates to complex coefficients."""

    def __init__(self, lattice: LatticeModel, coefficients, smoothness: float = 0.0):
        self.lattice = lattice
        self.smoothness = float(smoothness)
        table = {}
        for coords, value in dict(coefficients).items():
            coords = tuple(int(c) for c in coords)
            value = complex(value)
            if value != 0:
                table[coords] = value
        self._table = table
        # one embedding of the support rows serves every norm below; _norms is in table order
        keys = list(table)
        emb = lattice.embed(np.array(keys, dtype=np.int64).reshape(-1, lattice.dimension))
        norm_sq = np.vecdot(emb, emb)
        self._norms = np.sqrt(norm_sq).tolist()
        order = sorted(range(len(keys)), key=lambda i: (norm_sq[i], keys[i]))
        self._support = tuple(keys[i] for i in order)
        self.support_embeddings = emb[order]
        self.support_embeddings.setflags(write=False)
        self._eigenvalue_table = None
        self._phase_basis = np.zeros(lattice.dimension)  # b = 2 x0 in coordinates: see translate_phases
        self._window = None  # (radius, origin window): see origin_window
        self._couplings = None  # (index set, its read-only table): see coupling_table
        self._phases = None  # (index set, its read-only phases): see translate_phases

    # -- basic access -------------------------------------------------

    def coefficient(self, coords) -> complex:
        return self._table.get(tuple(int(c) for c in coords), 0j)

    @property
    def support(self) -> tuple[tuple[int, ...], ...]:
        """The g with q_g != 0, ordered by (|g|^2, coords); support_embeddings holds their embeddings."""
        return self._support

    @property
    def support_radius(self) -> float:
        return max(self._norms, default=0.0)

    def coupling_table(self, index_set) -> tuple[np.ndarray, np.ndarray]:
        """_coupling_table(index_set), read-only, kept in one slot per table with the last set asked.

        The slot holds the set, so it is compared by identity.
        oracle.assemble asks for the root of each sparse operator's set
        (PlanewaveBasis.root), so the windows of one radius, or the blocks
        of one shape, share one table.
        """
        if self._couplings is None or self._couplings[0] is not index_set:
            table = self._coupling_table(index_set)
            for array in table:
                array.setflags(write=False)
            self._couplings = (index_set, table)
        return self._couplings[1]

    def _coupling_table(self, index_set) -> tuple[np.ndarray, np.ndarray]:
        """(columns, values): the off-diagonal entries q_{c_i - c_j} over the rows c of an index set.

        index_set is a lattice.PlanewaveBasis.  One table row per nonzero
        offset g_s of supp q and its negatives (the same set for any table
        the loader accepts): columns[s, i] is the row j of c_i - g_s and
        values[s, i] the entry H[i, j], or the sentinel n = len(c) and 0
        where there is none.  Each g_s is looked up once, by one gather
        through the set's own positions, so the cost is O(n |supp|) with
        O(n) temporaries.  H[i, j] is q_{g_s} when i < j and conj(q_{-g_s})
        when i > j: each pair i < j takes its value from the lookup of its
        upper entry and (j, i) the conjugate, so the operator is exactly
        Hermitian even for tables that are Hermitian only to the loader's
        tolerance.  No entry is on the diagonal.
        """
        coords = index_set.coords
        n = len(coords)
        offsets = [g for g in dict.fromkeys(self._support + tuple(tuple(-c for c in g) for g in self._support))
                   if any(g)]
        members = np.arange(n)
        columns = np.full((len(offsets), n), n, dtype=np.int64)
        values = np.zeros((len(offsets), n), dtype=complex)
        for s, g in enumerate(offsets):
            j = index_set.positions(coords - np.asarray(g, dtype=np.int64))  # absent targets have j = -1
            value = np.where(members < j, self.coefficient(g), np.conj(self.coefficient(tuple(-c for c in g))))
            kept = (j >= 0) & (value != 0)
            columns[s, kept] = j[kept]
            values[s, kept] = value[kept]
        return columns, values

    def origin_window(self, radius: float) -> PlanewaveBasis:
        """The plane-wave window {gamma : |gamma| <= radius}, ordered by (|gamma|^2, coords).

        The window {gamma : |gamma + t - v| <= radius} around v = gamma0 + t
        is its translate by gamma0 (PlanewaveBasis.translated), and an entry
        q_{gamma - gamma'} depends on gamma - gamma' alone, so every
        translate reads its couplings (oracle.assemble).  One slot per table
        holds the window of the last radius asked, so a sweep at one radius
        builds it once and a large window is never held twice.
        """
        if self._window is None or self._window[0] != radius:
            coords = self.lattice.enumerate_shifted_ball(np.zeros(self.lattice.dimension), radius)
            self._window = (radius, PlanewaveBasis(self.lattice, coords))
        return self._window[1]

    def is_invariant(self, matrix, time_reversed: bool = False) -> bool:
        """Whether q_{nM} = q_n for every n, or q_{-nM} = conj(q_n) when
        time_reversed, to the loader's Hermitian tolerance."""
        sign = -1 if time_reversed else 1
        image = {}
        for coords, value in self._table.items():
            key = tuple(int(c) for c in sign * (np.array(coords) @ matrix))
            image[key] = value.conjugate() if time_reversed else value
        scale = max((abs(v) for v in self._table.values()), default=1.0)
        return all(abs(image.get(k, 0j) - self._table.get(k, 0j)) <= _HERMITIAN_TOL * scale
                   for k in image.keys() | self._table.keys())

    def even_translate(self) -> "FourierPotential | None":
        """The table of q(x + x0) when some x0 makes it real (and so, being
        Hermitian, even), else None.

        Translation keeps every spectrum: q(x + x0) has the coefficients
        q_g e^{i(g, x0)}, and its operator on any index set is D H D^H with
        the diagonal unitary D = diag(e^{i(gamma, x0)}).  The table is real
        when each 2(g, x0) = -arg q_g^2 mod 2 pi.  One g of each +- pair is
        kept, and a unimodular row reduction (numerics.integer_row_basis)
        gives a basis of the lattice they generate, each basis vector an
        integer combination of them, so its phase follows from theirs.
        Solving the basis equations fixes 2(g, x0) mod 2 pi on that whole
        lattice, so an x0 exists exactly when this one makes every entry
        real, checked to _EVEN_TOL max |q| (rounding leaves about 4e-15);
        the imaginary parts left are dropped.  A real table comes back
        unchanged (x0 = 0).  An x0 always exists when the pairs are linearly
        independent.  The translate keeps its phases (translate_phases): an
        eigenvector y of D H D^H is x = conj(D) y of H, with the same weights.
        """
        if not self._table:
            return self
        seen, reps = set(), []
        for g in self._support:
            if tuple(-c for c in g) not in seen:
                seen.add(g)
                reps.append(g)
        basis, combos = integer_row_basis(reps)
        values = np.array([self._table[g] for g in reps])
        squares = values * values  # arg q_g^2 = 2 arg q_g mod 2 pi
        # b . n = 2(g, x0) for g with integer coordinates n.  b matters mod 2 pi
        # (each (g, x0) then moves by a multiple of pi), and reducing it keeps
        # b . n accurate; one least-squares step over the pairs themselves then
        # removes the rounding that large combos carry into the basis phases.
        pairs = np.array(reps)
        b = np.linalg.lstsq(np.array(basis, dtype=float), -(np.array(combos) @ np.angle(squares)),
                            rcond=None)[0] % (2 * np.pi)
        b -= np.linalg.lstsq(pairs, np.angle(squares * np.exp(1j * (pairs @ b))), rcond=None)[0]
        coords = list(self._table)
        moved = np.array([self._table[g] for g in coords]) * np.exp(0.5j * (np.array(coords) @ b))
        if np.max(np.abs(moved.imag)) > _EVEN_TOL * np.max(np.abs(moved)):
            return None
        even = FourierPotential(self.lattice, dict(zip(coords, moved.real)), self.smoothness)
        even._phase_basis = b
        return even

    def translate_phases(self, index_set) -> np.ndarray:
        """D's diagonal e^{i(gamma, x0)} over the rows gamma of an index set, for this table as q(x + x0).

        even_translate's table keeps its b (b . n = 2(gamma, x0) for gamma
        with coordinates n); every other table is q itself, x0 = 0, and its
        phases are 1.  Read-only, kept in one slot per table with the last
        set asked, compared by identity, as coupling_table keeps couplings.
        """
        if self._phases is None or self._phases[0] is not index_set:
            phases = np.exp(0.5j * (index_set.coords @ self._phase_basis))
            phases.setflags(write=False)
            self._phases = (index_set, phases)
        return self._phases[1]

    def eigenvalue_table(self) -> tuple["FourierPotential", bool]:
        """The table whose operators have q's eigenvalues, and whether it is real.

        q's even translate when it has one: on every index set its operator
        is D H D^H (see even_translate), real symmetric.  Otherwise q itself.
        Band scans, resonant blocks' nearest eigenvalues and the oracle's
        windows solve this table.  Computed on the first call; the table is
        immutable, so later calls return the same pair.
        """
        if self._eigenvalue_table is None:
            even = self.even_translate()
            self._eigenvalue_table = (self, False) if even is None else (even, True)
        return self._eigenvalue_table

    def one_norm(self) -> float:
        """Sum of |q_gamma|; the operator-norm bound on the perturbation."""
        return float(sum(abs(v) for v in self._table.values()))

    def sobolev_weight(self) -> float:
        """Sum of |q_gamma|^2 (1 + |gamma|^{2s})."""
        s = self.smoothness
        total = 0.0
        for value, nrm in zip(self._table.values(), self._norms):
            total += abs(value) ** 2 * (1.0 + nrm ** (2 * s))
        return float(total)

    def scaled(self, factor: float) -> "FourierPotential":
        return FourierPotential(
            self.lattice,
            {c: v * factor for c, v in self._table.items()},
            self.smoothness,
        )

    # -- invariants ---------------------------------------------------

    def validate(self) -> ValidationReport:
        """Zero mean, Hermitian symmetry, finite Sobolev weight."""
        violations = []
        zero = (0,) * self.lattice.dimension
        if zero in self._table:
            violations.append(f"zero-mean violated: q_0 = {self._table[zero]}")
        scale = max((abs(v) for v in self._table.values()), default=1.0)
        for coords, value in self._table.items():
            neg = tuple(-c for c in coords)
            mirror = self._table.get(neg, 0j)
            if abs(mirror - value.conjugate()) > _HERMITIAN_TOL * scale:
                violations.append(f"Hermitian symmetry violated at {coords}: q_-g = {mirror}, conj(q_g) = {value.conjugate()}")
        weight = self.sobolev_weight()
        if not np.isfinite(weight):
            violations.append("Sobolev weight not finite")
        return ValidationReport(passed=not violations, violations=tuple(violations))

    # -- truncation ---------------------------------------------------

    def truncate(self, radius: float) -> tuple["FourierPotential", float]:
        """Keep |gamma| < radius; tail bound is the summed |q_gamma| dropped.

        The short-wave radius is typically c1 * rho^alpha, computed by the
        caller from the parameter cascade.
        """
        if radius <= 0:
            raise ValueError("radius must be > 0")
        kept, tail = {}, 0.0
        for (coords, value), nrm in zip(self._table.items(), self._norms):
            if nrm < radius:
                kept[coords] = value
            else:
                tail += abs(value)
        return FourierPotential(self.lattice, kept, self.smoothness), float(tail)

    # -- serialization ------------------------------------------------

    @classmethod
    def from_records(cls, lattice: LatticeModel, records, smoothness: float) -> "FourierPotential":
        table = {}
        for rec in records:
            coords = tuple(int(c) for c in rec["n"])
            table[coords] = complex(float(rec.get("re", 0.0)), float(rec.get("im", 0.0)))
        pot = cls(lattice, table, smoothness)
        report = pot.validate()
        if not report.passed:
            raise ValueError("invalid potential table: " + "; ".join(report.violations))
        return pot


def load_potential(path, lattice: LatticeModel, smoothness: float) -> FourierPotential:
    with open(path) as fh:
        records = json.load(fh)
    return FourierPotential.from_records(lattice, records, smoothness)


def cosine_pair(lattice: LatticeModel, coords, amplitude: float = 1.0) -> FourierPotential:
    """amplitude * 2 cos((gamma, x)) as the pair q_{+gamma} = q_{-gamma} = amplitude."""
    coords = tuple(int(c) for c in coords)
    neg = tuple(-c for c in coords)
    return FourierPotential(lattice, {coords: amplitude, neg: amplitude})


def cosine_sum(lattice: LatticeModel, coords_list, amplitude: float = 1.0) -> FourierPotential:
    table = {}
    for coords in coords_list:
        coords = tuple(int(c) for c in coords)
        table[coords] = table.get(coords, 0j) + amplitude
        neg = tuple(-c for c in coords)
        table[neg] = table.get(neg, 0j) + amplitude
    return FourierPotential(lattice, table)


def random_potential(seed: int, lattice: LatticeModel, support_radius: float, s: float,
                     norm_budget: float) -> FourierPotential:
    """Deterministic random real potential with Sobolev weight <= norm_budget."""
    if support_radius < 1:
        raise ValueError("support_radius must be >= 1")
    rng = np.random.default_rng(seed)
    table = {}
    for coords in lattice.ball_coords(support_radius * (1 + 1e-12)).tolist():
        coords = tuple(coords)
        if coords in table:
            continue
        value = complex(rng.standard_normal(), rng.standard_normal())
        table[coords] = value
        table[tuple(-c for c in coords)] = value.conjugate()
    pot = FourierPotential(lattice, table, s)
    if norm_budget <= 0:
        return FourierPotential(lattice, {}, s)
    weight = pot.sobolev_weight()
    if weight == 0:
        return pot
    factor = np.sqrt(norm_budget / weight) * (1.0 - 1e-12)
    return pot.scaled(factor)
