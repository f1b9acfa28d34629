import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polybloch as pb
import reference_enumeration as ref
from polybloch.errors import PreconditionError, SingularBasis
from polybloch.lattice import MAX_BOX_POINTS, CoordinateIndex, _unique_rows

TWO_PI = 2 * np.pi
HEXAGONAL = TWO_PI * np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
# integral (Z^2, Z^3) and non-integral (hexagonal dual Gram 4/3, -2/3) lattices
LATTICES = {"Z2": pb.LatticeModel.cubic(2), "Z3": pb.LatticeModel.cubic(3),
            "hexagonal": pb.LatticeModel(HEXAGONAL)}


def brute_force_ball(radius, box=6, exclude_zero=True):
    """Independent integer-box enumeration for Z^2."""
    out = []
    for n in itertools.product(range(-box, box + 1), repeat=2):
        if exclude_zero and n == (0, 0):
            continue
        if n[0] ** 2 + n[1] ** 2 < radius**2:
            out.append(n)
    return sorted(out, key=lambda n: (n[0] ** 2 + n[1] ** 2, n))


class TestDualLattice:
    def test_identity_scaling(self):
        dual = pb.dual_lattice(TWO_PI * np.eye(2))
        assert np.allclose(dual, np.eye(2))

    def test_diagonal(self):
        dual = pb.dual_lattice(np.diag([TWO_PI, 2 * TWO_PI]))
        assert np.allclose(dual, np.diag([1.0, 0.5]))

    def test_hexagonal_solves_linear_system(self):
        basis = TWO_PI * np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        dual = pb.dual_lattice(basis)
        # independent route: solve (gamma_i, omega_j) = 2 pi delta_ij directly
        expected = np.linalg.solve(basis, TWO_PI * np.eye(2)).T
        assert np.allclose(dual, expected, atol=1e-14)
        assert np.allclose(dual[0], [1.0, -1.0 / np.sqrt(3)])
        assert np.allclose(dual[1], [0.0, 2.0 / np.sqrt(3)])

    def test_biorthogonality_any_basis(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            basis = rng.normal(size=(3, 3))
            if abs(np.linalg.det(basis)) < 0.1:
                continue
            dual = pb.dual_lattice(basis)
            assert np.allclose(dual @ basis.T, TWO_PI * np.eye(3), atol=1e-9)

    def test_singular_basis_rejected(self):
        with pytest.raises(SingularBasis):
            pb.dual_lattice([[1.0, 0.0], [2.0, 0.0]])

    def test_double_dualization(self, z2):
        again = pb.dual_lattice(z2.dual_basis)
        assert np.allclose(again, z2.basis, atol=1e-12)


class TestEnumerateBall:
    def test_tiny_radius_empty(self, z2):
        assert z2.enumerate_ball(0.5) == []

    def test_radius_1p5_brute_force(self, z2):
        # |(+-1, +-1)| = sqrt(2) < 1.5, so 8 vectors, matching brute force
        got = [v.coords for v in z2.enumerate_ball(1.5)]
        assert got == brute_force_ball(1.5)
        assert len(got) == 8

    def test_radius_2p3_brute_force(self, z2):
        got = [v.coords for v in z2.enumerate_ball(2.3)]
        assert got == brute_force_ball(2.3)
        assert len(got) == 20
        norms = sorted({float(v.embedding @ v.embedding) for v in z2.enumerate_ball(2.3)})
        assert norms == [1.0, 2.0, 4.0, 5.0]

    def test_include_zero(self, z2):
        got = z2.ball_coords(1.5, exclude_zero=False)
        assert tuple(got[0]) == (0, 0)
        assert len(got) == 9

    def test_strict_boundary_integral(self, z2):
        # radius exactly 1: no unit vector enters (strict inequality)
        assert z2.enumerate_ball(1.0) == []
        assert len(z2.enumerate_ball(1.0 + 1e-9)) == 4

    def test_nesting(self, z2):
        small = {v.coords for v in z2.enumerate_ball(2.1)}
        large = {v.coords for v in z2.enumerate_ball(3.7)}
        assert small <= large

    def test_count_asymptotics(self, z2):
        # |ball(r)| ~ pi r^2 / covolume; within 10% at r = 20, 40
        for r in (20.0, 40.0):
            count = len(z2.enumerate_ball(r))
            expected = np.pi * r**2
            assert abs(count / expected - 1) < 0.10

    def test_hexagonal_ball(self):
        basis = TWO_PI * np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        lat = pb.LatticeModel(basis)
        for vec in lat.enumerate_ball(2.0):
            assert np.linalg.norm(vec.embedding) < 2.0
            assert np.allclose(vec.embedding, np.array(vec.coords) @ lat.dual_basis)


@st.composite
def ball_cases(draw):
    """A lattice, a center and a radius; the radius is often exactly |gamma| or
    |gamma - center| for a small gamma, and the center often a half-lattice
    point, so that boundary points and equal-distance ties are common."""
    lattice = LATTICES[draw(st.sampled_from(sorted(LATTICES)))]
    d = lattice.dimension
    if draw(st.booleans()):
        center = np.array(draw(st.tuples(*([st.floats(-4, 4)] * d))))
    else:
        center = 0.5 * np.array(draw(st.tuples(*([st.integers(-8, 8)] * d)))) @ lattice.dual_basis
    top = 3.2 if d == 3 else 5.0
    if draw(st.booleans()):
        return lattice, center, draw(st.floats(0.0, top)), draw(st.floats(0.0, top))
    gamma = lattice.embed(draw(st.tuples(*([st.integers(-3, 3)] * d))))
    shell = float(np.linalg.norm(gamma))
    shifted = float(np.linalg.norm(gamma - center))
    return lattice, center, min(shell, top), min(shifted, top)


class TestArrayEnumerators:
    """The array enumerators against the per-point reference walks: the same rows in the same order."""

    @settings(max_examples=150, deadline=None)
    @given(ball_cases())
    def test_ball_matches_reference(self, case):
        lattice, _, radius, _ = case
        for exclude_zero in (True, False):
            got = lattice.ball_coords(radius, exclude_zero)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert got.shape == (len(got), lattice.dimension)
            assert [tuple(row) for row in got.tolist()] == ref.enumerate_ball(lattice, radius, exclude_zero)
        vectors = lattice.enumerate_ball(radius)
        assert [vec.coords for vec in vectors] == ref.enumerate_ball(lattice, radius)
        assert all(np.array_equal(vec.embedding, ref.embed(lattice, vec.coords)) for vec in vectors)

    @settings(max_examples=150, deadline=None)
    @given(ball_cases())
    def test_shifted_ball_matches_reference(self, case):
        lattice, center, _, radius = case
        got = lattice.enumerate_shifted_ball(center, radius)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.shape == (len(got), lattice.dimension)
        assert [tuple(row) for row in got.tolist()] == ref.enumerate_shifted_ball(lattice, center, radius)

    def test_embedding_does_not_depend_on_the_batch(self):
        lattice = pb.LatticeModel(TWO_PI * np.array([[1.0, 0.2, 0.0], [0.31, 1.13, 0.0], [0.17, -0.29, 0.91]]))
        coords = np.random.default_rng(0).integers(-40, 40, size=(500, 3))
        rows = np.array([ref.embed(lattice, c) for c in coords])
        assert np.array_equal(lattice.embed(coords), rows)


class TestCoordinateIndex:
    def test_finds_every_row_and_nothing_else(self):
        coords = np.random.default_rng(1).integers(-5, 5, size=(60, 3))
        coords = np.unique(coords, axis=0)[::-1]
        index = CoordinateIndex(coords)
        assert np.array_equal(index.find(coords), np.arange(len(coords)))
        members = set(map(tuple, coords.tolist()))
        probe = np.array(list(itertools.product(range(-7, 7), repeat=3)))
        found = index.find(probe)
        for row, pos in zip(probe.tolist(), found):
            assert (pos >= 0) == (tuple(row) in members)
            if pos >= 0:
                assert coords[pos].tolist() == row

    def test_empty_set_finds_nothing(self):
        index = CoordinateIndex(np.zeros((0, 2), dtype=np.int64))
        assert index.find([[0, 0], [1, -1]]).tolist() == [-1, -1]


def rows_and_targets(d):
    """Distinct rows, some negative, and targets in and far outside their box, at dimension d."""
    row = st.tuples(*[st.integers(-12, 12)] * d)
    target = st.tuples(*[st.one_of(st.integers(-16, 16), st.integers(-10**12, 10**12))] * d)
    return st.tuples(st.just(d), st.lists(row, unique=True, max_size=60), st.lists(target, max_size=40))


class TestCoordinateSlotTable:
    """CoordinateIndex.find against a dict from each row's coordinates to its number."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(rows_and_targets))
    def test_find_matches_a_dict(self, case):
        d, rows, targets = case
        reference = {row: i for i, row in enumerate(rows)}
        index = CoordinateIndex(np.array(rows, dtype=np.int64).reshape(-1, d))
        assert index.find(np.array(rows, dtype=np.int64).reshape(-1, d)).tolist() == list(range(len(rows)))
        probe = rows + targets
        found = index.find(np.array(probe, dtype=np.int64).reshape(-1, d))
        assert found.tolist() == [reference.get(p, -1) for p in probe]

    def test_box_beyond_the_bound_is_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="one index takes at most"):
                CoordinateIndex(np.array([[0, 0], [0, MAX_BOX_POINTS]]))  # MAX_BOX_POINTS + 1 slots
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16  # its table would take 8 (MAX_BOX_POINTS + 2) bytes
        with pytest.raises(PreconditionError):
            CoordinateIndex(np.array([[0, 0, 0], [10**6, 10**6, 10**6]]))  # about 1e18 slots
        index = CoordinateIndex(np.array([[0, 0], [0, MAX_BOX_POINTS - 1]]))  # exactly the bound
        assert index.find([[0, MAX_BOX_POINTS - 1], [0, 1]]).tolist() == [1, -1]


class TestReduce:
    def test_zero(self, z2):
        gamma, qm = z2.reduce([0.0, 0.0])
        assert gamma.coords == (0, 0)
        assert np.allclose(qm.reduced, 0.0)

    def test_hand_example(self, z2):
        gamma, qm = z2.reduce([5.3, -4.2])
        assert gamma.coords == (5, -5)
        assert np.allclose(qm.reduced, [0.3, 0.8])

    def test_exact_lattice_part_hexagonal(self):
        basis = TWO_PI * np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        lat = pb.LatticeModel(basis)
        x = lat.embed((1, 0)) + 0.25 * lat.dual_basis[1]
        gamma, qm = lat.reduce(x)
        assert gamma.coords == (1, 0)
        assert np.allclose(qm.reduced, 0.25 * lat.dual_basis[1], atol=1e-12)

    def test_exact_split(self, z2):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform(-30, 30, size=2)
            gamma, qm = z2.reduce(x)
            assert np.allclose(gamma.embedding + qm.reduced, x, rtol=1e-12, atol=1e-12)

    @given(st.tuples(st.floats(-50, 50), st.floats(-50, 50)))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, x):
        lat = pb.LatticeModel.cubic(2)
        gamma, qm = lat.reduce(np.asarray(x))
        gamma2, qm2 = lat.reduce(qm.reduced)
        assert gamma2.coords == (0, 0)
        assert np.allclose(qm2.reduced, qm.reduced)

    def test_half_open_cell(self, z2):
        for x in ([1.0, 2.0], [-0.0001, 0.9999], [7.5, -3.25]):
            _, qm = z2.reduce(x)
            coeff = qm.reduced
            assert np.all(coeff >= -1e-11)
            assert np.all(coeff < 1.0)

    def test_split_with_a_given_t(self, z2):
        v = np.array([5.3, 4.2])
        gamma0, t = z2.split(v, v - z2.embed((4, -1)))
        assert gamma0.coords == (4, -1)
        assert z2.split(v)[0].coords == z2.reduce(v)[0].coords

    def test_oracle_and_block_reject_a_non_lattice_offset(self, z2):
        # v - t = (5.0, 3.95) is not a dual lattice vector; the oracle's windows split v by the same split
        v, t = np.array([5.3, 4.2]), np.array([0.3, 0.25])
        with pytest.raises(ValueError, match="v - t is not a dual lattice vector"):
            z2.split(v, t)
        with pytest.raises(ValueError, match="v - t is not a dual lattice vector"):
            pb.build_index_set(z2, v, [z2.vector((1, 0))], b_radius=1.0, a_radius=1.0, t=t)


class TestLatticeModel:
    @pytest.mark.parametrize("basis, order", [
        (TWO_PI * np.eye(2), 8),
        (TWO_PI * np.eye(3), 48),
        (TWO_PI * np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]]), 12),
        (np.diag([TWO_PI, 2 * TWO_PI]), 4),
        (TWO_PI * np.array([[1.0, 0.3], [0.2, 1.3]]), 2),
    ])
    def test_point_group_orders(self, basis, order):
        lat = pb.LatticeModel(basis)
        group = lat.point_group()
        G = lat.dual_basis @ lat.dual_basis.T
        assert len(group) == order
        assert len({M.tobytes() for M in group}) == order
        for M in group:
            assert np.allclose(M @ G @ M.T, G, rtol=0, atol=1e-12 * np.abs(G).max())

    def test_cell_volume(self, z2):
        assert z2.cell_volume == pytest.approx(TWO_PI**2)
        assert z2.dual_cell_volume == pytest.approx(1.0)

    def test_vector_embedding_consistency(self, z2):
        vec = z2.vector((3, -2))
        assert np.allclose(vec.embedding, [3.0, -2.0])
        assert vec.embedding @ vec.embedding == pytest.approx(13.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                                                    max_size=40).map(lambda rows: np.array(rows, dtype=np.int64)
                                                                     .reshape(-1, d))))
def test_unique_rows_are_numpys(rows):
    # lexsort and adjacent deduplication: np.unique(rows, axis=0) bit for bit, duplicates and all
    assert _unique_rows(rows).tobytes() == np.unique(rows, axis=0).tobytes()
    assert _unique_rows(rows).shape == np.unique(rows, axis=0).shape
