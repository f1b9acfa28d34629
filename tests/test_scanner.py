import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import polybloch as pb
from conftest import free_eigenvalues, scaled_cascade, to_records, union_windows
from polybloch.errors import InsufficientBands, PreconditionError
from polybloch.numerics import integer_rank
from polybloch.potential import FourierPotential
from polybloch.scanner import MAX_BAND_BASIS, BandTable, symmetry_group

TWO_PI = 2 * np.pi
LATTICES = {
    "square": pb.LatticeModel.cubic(2),
    "hexagonal": pb.LatticeModel(TWO_PI * np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])),
    "oblique": pb.LatticeModel(TWO_PI * np.array([[1.0, 0.3], [0.2, 1.3]])),
}
GRIDS = [(8, 8), (12, 12), (8, 12), (10, 8)]


def make_potential(lattice, kind, seed, amplitude, support_radius=1.5):
    axes = [tuple(row) for row in np.eye(lattice.dimension, dtype=int)]
    if kind == "generic":
        # s = 0: the Sobolev weight amplitude^2 is the summed 2 |q_g|^2
        return pb.random_potential(seed, lattice, support_radius, 0.0, amplitude**2)
    if kind == "cosine_sum":
        return pb.cosine_sum(lattice, axes, amplitude)
    return pb.cosine_pair(lattice, axes[0], amplitude)


def brute_force_bands(lattice, l, q, grid_counts, n_bands, radius, rows=None):
    """Reference scan: every grid point (or the listed rows) solved on its own."""
    basis = pb.PlanewaveBasis.full_ball(lattice, radius)
    axes = np.meshgrid(*(np.arange(n) for n in grid_counts), indexing="ij")
    k = np.stack([a.ravel() for a in axes], axis=1)
    t_points = (k / np.array(grid_counts)) @ lattice.dual_basis
    rows = range(len(t_points)) if rows is None else rows
    return t_points, np.array([np.linalg.eigvalsh(pb.assemble(l, q, t_points[i], basis))[:n_bands]
                               for i in rows])


def assert_close_to_reference(values, reference):
    assert np.all(np.abs(values - reference) <= 1e-10 * (1 + np.abs(reference)))


def as_set(maps):
    return {tuple(map(tuple, np.asarray(M).tolist())) for M in maps}


class TestBandFunctions:
    def test_free_bands_match_sorted_energies(self, z2):
        q0 = FourierPotential(z2, {})
        table = pb.band_functions(z2, 1, q0, (8, 8), 12, basis_radius=5.0)
        for i, t in enumerate(table.t_points[:10]):
            basis = pb.PlanewaveBasis.full_ball(z2, 5.0)
            free = free_eigenvalues(z2, t, 1, basis)[:12]
            assert np.allclose(table.values[i], free, atol=1e-10)

    def test_free_band1_range(self, z2):
        q0 = FourierPotential(z2, {})
        table = pb.band_functions(z2, 1, q0, (8, 8), 4, basis_radius=4.0)
        assert table.band_min[0] == pytest.approx(0.0, abs=1e-12)
        # half-open grid: the corner (0.5, 0.5) is the grid point closest to
        # the band-1 maximum 0.5 over the closed cell
        assert table.band_max[0] == pytest.approx(0.5, abs=1e-12)

    def test_free_spectrum_covers_without_gap(self, z2):
        q0 = FourierPotential(z2, {})
        table = pb.band_functions(z2, 1, q0, (16, 16), 30, basis_radius=6.5)
        report = pb.gap_report(table, 0.0, float(table.band_min[-1]) - 0.25, enforce_coverage=True)
        assert report.gaps == ()

    def test_monotone_coverage(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.2)
        table = pb.band_functions(z2, 1, q, (8, 8), 20, basis_radius=6.5)
        e_max = float(table.band_min[-1]) - 0.5

        def covered_length(n_bands):
            sub = BandTable(table.grid_counts, n_bands, table.t_points,
                            table.values[:, :n_bands], table.basis_radius, table.axis_steps)
            rep = pb.gap_report(sub, 0.0, e_max, enforce_coverage=False)
            return e_max - sum(hi - lo for lo, hi in rep.gaps)

        lengths = [covered_length(n) for n in (5, 10, 20)]
        assert lengths[0] <= lengths[1] <= lengths[2]

    def test_continuity_proxy(self, z2):
        q0 = FourierPotential(z2, {})
        table = pb.band_functions(z2, 1, q0, (16, 16), 10, basis_radius=5.0)
        assert pb.continuity_report(table, 1) < 3.0

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_continuity_scale_is_the_free_gradient_at_every_degree(self, z2, l):
        # free bands |gamma + t|^{2l} change by at most 2 l rho^{2l-1} per unit of t, with
        # rho = (max lambda)^{1/(2l)}; the steepest band comes close to that bound
        table = pb.band_functions(z2, l, FourierPotential(z2, {}), (16, 16), 12, basis_radius=6.0)
        assert 0.5 < pb.continuity_report(table, l) <= 1 + 1e-9

    def test_grid_too_coarse_rejected(self, z2):
        with pytest.raises(ValueError):
            pb.band_functions(z2, 1, FourierPotential(z2, {}), (4, 4), 5, basis_radius=4.0)

    def test_certified_radius_stable(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.2)
        r = pb.certified_basis_radius(z2, 1, q, 20)
        assert r > np.sqrt(20 / np.pi)  # must exceed the free-counting radius

    def test_band_count_beyond_the_dense_bound_is_refused(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.2)
        with pytest.raises(PreconditionError, match="at least 4098 plane waves"):
            pb.certified_basis_radius(z2, 1, q, MAX_BAND_BASIS // 2 + 1)
        # the start fits, but the first ball solved after the coupling margin does not
        with pytest.raises(PreconditionError, match="a dense band solve takes at most 4096"):
            pb.certified_basis_radius(z2, 1, q, 2000)

    def test_basis_radius_beyond_the_dense_bound_is_refused(self, z2):
        with pytest.raises(PreconditionError, match="holds 5013 plane waves"):
            pb.band_functions(z2, 1, FourierPotential(z2, {}), (8, 8), 5, basis_radius=40.0)


class TestSymmetryReduction:
    """Orbit-reduced scans against a per-point brute-force solve.

    Radii and amplitudes keep the basis truncation error, by which a
    finite-basis band is not exactly periodic in t, far below 1e-10.
    """

    @settings(max_examples=20, deadline=None)
    @given(lattice=st.sampled_from(sorted(LATTICES)), grid=st.sampled_from(GRIDS),
           kind=st.sampled_from(["generic", "cosine_sum", "cosine_pair"]),
           seed=st.integers(0, 2**16), amplitude=st.floats(0.05, 0.3), l=st.sampled_from([1, 2]))
    @example(lattice="square", grid=(8, 12), kind="cosine_sum", seed=0, amplitude=0.3, l=1)
    @example(lattice="square", grid=(12, 12), kind="generic", seed=0, amplitude=0.3, l=1)
    def test_reduced_values_match_brute_force(self, lattice, grid, kind, seed, amplitude, l):
        lat = LATTICES[lattice]
        q = make_potential(lat, kind, seed, amplitude)
        table = pb.band_functions(lat, l, q, grid, 6, basis_radius=7.5)
        t_points, reference = brute_force_bands(lat, l, q, grid, 6, 7.5)
        assert np.array_equal(table.t_points, t_points)
        assert_close_to_reference(table.values, reference)
        assert table.solved_points < len(t_points)

    @pytest.mark.parametrize("kind, support_radius, amplitude, order", [
        # three independent pairs: the scan solves the even translate, whose
        # real table keeps -I and the three axis mirrors
        pytest.param("generic", 1.0, 0.03, 8, id="generic"),
        # nine pairs have no even translate: time reversal alone; their longer
        # hops need the smaller amplitude at this basis radius
        pytest.param("generic", 1.5, 0.01, 2, id="generic-no-translate"),
        pytest.param("cosine_sum", 1.0, 0.03, 16, id="cosine_sum"),
    ])
    def test_three_dimensions_match_brute_force(self, kind, support_radius, amplitude, order):
        z3 = pb.LatticeModel.cubic(3)
        q = make_potential(z3, kind, 5, amplitude, support_radius=support_radius)
        table = pb.band_functions(z3, 1, q, (8, 8, 10), 2, basis_radius=4.0)
        rows = np.random.default_rng(0).choice(len(table.t_points), 48, replace=False)
        t_points, reference = brute_force_bands(z3, 1, q, (8, 8, 10), 2, 4.0, rows)
        assert np.array_equal(table.t_points, t_points)
        assert_close_to_reference(table.values[rows], reference)
        assert table.symmetry_order == order

    @settings(max_examples=8, deadline=None)
    @given(lattice=st.sampled_from(sorted(LATTICES)), grid=st.sampled_from(GRIDS),
           kind=st.sampled_from(["generic", "cosine_sum"]), seed=st.integers(0, 2**16))
    def test_coarse_table_is_band_functions_at_coarse_grid(self, lattice, grid, kind, seed):
        lat = LATTICES[lattice]
        q = make_potential(lat, kind, seed, 0.3)
        _, coarse, fine = pb.stable_gap_report(lat, 1, q, grid, 6, 0.0, None, basis_radius=6.0)
        direct = pb.band_functions(lat, 1, q, grid, 6, basis_radius=6.0)
        assert coarse.grid_counts == direct.grid_counts and coarse.axis_steps == direct.axis_steps
        assert np.array_equal(coarse.t_points, direct.t_points)
        assert_close_to_reference(coarse.values, direct.values)
        assert coarse.solved_points == 0 and fine.solved_points > 0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), support=st.sampled_from([1.0, 1.5, 2.0]), grid=st.sampled_from(GRIDS))
    def test_generic_table_group_is_time_reversal_only(self, z2, seed, support, grid):
        q = pb.random_potential(seed, z2, support, 0.0, 1.0)
        basis = pb.PlanewaveBasis.full_ball(z2, 5.0)
        assert as_set(symmetry_group(z2, q, grid, basis)) == as_set([np.eye(2, dtype=int), -np.eye(2, dtype=int)])

    def test_cosine_sum_group(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.2)
        basis = pb.PlanewaveBasis.full_ball(z2, 5.0)
        square = symmetry_group(z2, q, (16, 16), basis)
        assert len(square) == 8
        assert as_set(square) == as_set(z2.point_group())
        # the quarter turns and diagonal mirrors do not map an 8 x 12 grid onto itself,
        # nor a basis stretched along the first axis
        mirrors = {((1, 0), (0, 1)), ((-1, 0), (0, -1)), ((1, 0), (0, -1)), ((-1, 0), (0, 1))}
        assert as_set(symmetry_group(z2, q, (8, 12), basis)) == mirrors
        stretched = union_windows(z2, np.zeros(2), [(0.5, 0.0), (-0.5, 0.0)], 5.0)
        assert as_set(symmetry_group(z2, q, (16, 16), stretched)) == mirrors

    def test_window_off_the_origin_keeps_no_time_reversed_map(self, z2):
        # the window about (1/2, 0) is mapped onto itself by the mirror n -> n diag(1, -1)
        # alone: n -> -n and n -> n diag(-1, 1) map it onto the window about (-1/2, 0)
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.2)
        shifted = pb.PlanewaveBasis.window(z2, np.zeros(2), (0.5, 0.0), 5.0)
        assert as_set(symmetry_group(z2, q, (16, 16), shifted)) == {((1, 0), (0, 1)), ((1, 0), (0, -1))}

    @settings(max_examples=60, deadline=None)
    @given(lattice=st.sampled_from(sorted(LATTICES)), kind=st.sampled_from(["generic", "cosine_sum", "cosine_pair"]),
           seed=st.integers(0, 2**16), grid=st.sampled_from(GRIDS),
           shape=st.sampled_from(["ball", "window", "union"]), radius=st.floats(1.5, 4.0),
           center=st.one_of(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                            st.sampled_from([(0.5, 0.0), (0.0, 0.5), (0.5, 0.5), (-0.5, 0.5)])),
           coefficients=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    def test_every_map_keeps_the_basis_spectrum(self, lattice, kind, seed, grid, shape, radius, center,
                                                coefficients):
        # H(cM) on the basis has H(c)'s eigenvalues for every map M returned, on full
        # balls and on windows about points (in dual coordinates) not closed under negation
        lat = LATTICES[lattice]
        q = make_potential(lat, kind, seed, 0.3)
        x = np.array(center) @ lat.dual_basis
        basis = {"ball": lambda: pb.PlanewaveBasis.full_ball(lat, radius),
                 "window": lambda: pb.PlanewaveBasis.window(lat, np.zeros(2), x, radius),
                 "union": lambda: union_windows(lat, np.zeros(2), [x, -x], radius)}[shape]()
        c = np.array(coefficients)
        want = np.linalg.eigvalsh(pb.assemble(1, q, c @ lat.dual_basis, basis))
        for M in symmetry_group(lat, q, grid, basis):
            got = np.linalg.eigvalsh(pb.assemble(1, q, (c @ M) @ lat.dual_basis, basis))
            assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want)))

    def test_orbit_counts(self, z2):
        q = pb.random_potential(3, z2, 1.5, 0.0, 1.0)
        table = pb.band_functions(z2, 1, q, (16, 16), 4, basis_radius=4.0)
        # -t mod 1 pairs the 256 points except the 4 with 2t = 0 mod 1
        assert (table.symmetry_order, table.solved_points) == (2, 130)
        fine = pb.stable_gap_report(z2, 1, q, (16, 16), 4, 0.0, None, basis_radius=4.0)[2]
        assert (fine.symmetry_order, fine.solved_points) == (2, 514)


class TestGapReport:
    def _table(self, intervals, z2):
        # synthetic one-point table with prescribed band ranges
        n = len(intervals)
        values = np.array([[lo for lo, _ in intervals], [hi for _, hi in intervals]])
        return BandTable((8, 8), n, np.zeros((2, 2)), values, 1.0, (0.1, 0.1))

    def test_forced_complement(self, z2):
        table = self._table([(0.0, 1.0)], z2)
        report = pb.gap_report(table, 0.0, 2.0, enforce_coverage=False)
        assert report.gaps == ((1.0, 2.0),)

    def test_coverage_enforced(self, z2):
        table = self._table([(0.0, 1.0)], z2)
        with pytest.raises(InsufficientBands):
            pb.gap_report(table, 0.0, 2.0, enforce_coverage=True)

    def test_disjoint_sorted_gaps(self, z2):
        table = self._table([(0.0, 1.0), (1.5, 2.0), (2.2, 5.0)], z2)
        report = pb.gap_report(table, 0.0, 4.0, enforce_coverage=False)
        assert report.gaps == ((1.0, 1.5), (2.0, 2.2))
        for (a, b), (c, d) in zip(report.gaps, report.gaps[1:]):
            assert b <= c

    def test_overlapping_bands_no_gap(self, z2):
        table = self._table([(0.0, 1.1), (0.9, 2.3), (2.1, 6.0)], z2)
        report = pb.gap_report(table, 0.0, 5.0, enforce_coverage=False)
        assert report.gaps == ()

    def test_stability_flag(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.3)
        report, coarse, fine = pb.stable_gap_report(z2, 1, q, (8, 8), 45, 3.0, 10.0,
                                                    basis_radius=7.5)
        assert report.stable is True
        assert fine.grid_counts == (16, 16)

    def test_default_e_max_below_both_top_band_minima(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.3)
        report, coarse, fine = pb.stable_gap_report(z2, 1, q, (8, 8), 30, 0.0, None,
                                                    basis_radius=6.5)
        assert report.e_max < fine.band_min[-1]
        assert report.e_max < coarse.band_min[-1]


class TestMeasureFraction:
    def test_partition_sums_to_one(self, z2):
        cas = scaled_cascade(25.0)
        est = pb.measure_fraction(z2, 25.0, cas, 1000, seed=3)
        assert sum(est.fractions.values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(est.counts.values()) == 1000

    def test_zero_threshold_all_nonresonant(self, z2):
        # strict inequality: threshold 0 admits no one
        cas = scaled_cascade(25.0, thresholds=(0.0, 1e-12, 2e-12))
        est = pb.measure_fraction(z2, 25.0, cas, 1000, seed=3)
        assert est.fractions["U"] == 1.0

    def test_seed_determinism(self, z2):
        cas = scaled_cascade(25.0)
        a = pb.measure_fraction(z2, 25.0, cas, 1000, seed=11)
        b = pb.measure_fraction(z2, 25.0, cas, 1000, seed=11)
        assert a.fractions == b.fractions

    def test_resonant_fraction_decreases(self, z2):
        rhos = (25.0, 50.0, 100.0)
        fracs = []
        for rho in rhos:
            cas = scaled_cascade(rho)
            est = pb.measure_fraction(z2, rho, cas, 2000, seed=42)
            fracs.append(est.resonant_fraction())
        assert fracs[0] > fracs[1] > fracs[2]

    def test_minimum_samples(self, z2):
        cas = scaled_cascade(25.0)
        with pytest.raises(ValueError):
            pb.measure_fraction(z2, 25.0, cas, 100, seed=1)


TRANSLATE_LATTICES = {**LATTICES, "cubic": pb.LatticeModel.cubic(3)}


@st.composite
def pair_tables(draw, lattice, independent: bool):
    """One g of each of up to d (independent) or d + 2 (any) +- pairs, in the box |g_i| <= 2."""
    d = lattice.dimension
    vectors = st.lists(st.integers(-2, 2), min_size=d, max_size=d).map(tuple).filter(any)
    pairs = draw(st.lists(vectors, min_size=1, max_size=d if independent else d + 2,
                          unique_by=lambda g: max(g, tuple(-c for c in g))))
    assume(not independent or integer_rank(pairs) == len(pairs))
    return pairs


def hermitian(lattice, pairs, values):
    table = {g: complex(z) for g, z in zip(pairs, values)}
    table.update({tuple(-c for c in g): complex(z).conjugate() for g, z in zip(pairs, values)})
    return FourierPotential(lattice, table)


def assert_same_bands(lattice, l, q, other, coeff):
    t = np.array(coeff[:lattice.dimension]) @ lattice.dual_basis
    basis = pb.PlanewaveBasis.full_ball(lattice, 3.0)
    expected = np.linalg.eigvalsh(pb.assemble(l, q, t, basis))
    assert np.all(np.abs(np.linalg.eigvalsh(pb.assemble(l, other, t, basis)) - expected)
                  <= 1e-12 * (1 + np.abs(expected)))


class TestEvenTranslate:
    """q(x + x0) has the bands of q: the band layer's real-symmetric path against q itself."""

    coeff = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=3, max_size=3)
    magnitude = st.floats(0.05, 1.0)

    def assert_even_translate(self, lattice, l, q, coeff):
        found = q.even_translate()
        assert found is not None and found.is_invariant(-np.eye(lattice.dimension, dtype=int))
        assert all(r["im"] == 0.0 for r in to_records(found))
        assert_same_bands(lattice, l, q, found, coeff)

    @settings(max_examples=30, deadline=None)
    @given(lattice=st.sampled_from(sorted(TRANSLATE_LATTICES)), l=st.sampled_from([1, 2]), data=st.data())
    def test_independent_pairs_have_an_even_translate(self, lattice, l, data):
        lat = TRANSLATE_LATTICES[lattice]
        pairs = data.draw(pair_tables(lat, independent=True))
        values = [r * np.exp(1j * phase) for r, phase in data.draw(
            st.lists(st.tuples(self.magnitude, st.floats(-np.pi, np.pi)), min_size=len(pairs), max_size=len(pairs)))]
        self.assert_even_translate(lat, l, hermitian(lat, pairs, values), data.draw(self.coeff))

    @settings(max_examples=30, deadline=None)
    @given(lattice=st.sampled_from(sorted(TRANSLATE_LATTICES)), l=st.sampled_from([1, 2]), data=st.data())
    def test_translates_of_real_even_tables(self, lattice, l, data):
        # pairs may depend on each other over the integers, and signs are mixed
        lat = TRANSLATE_LATTICES[lattice]
        pairs = data.draw(pair_tables(lat, independent=False))
        values = data.draw(st.lists(st.tuples(self.magnitude, st.sampled_from([-1.0, 1.0])),
                                    min_size=len(pairs), max_size=len(pairs)))
        a = np.array(data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=lat.dimension, max_size=lat.dimension)))
        values = [r * s * np.exp(1j * np.dot(g, a)) for g, (r, s) in zip(pairs, values)]
        self.assert_even_translate(lat, l, hermitian(lat, pairs, values), data.draw(self.coeff))

    @settings(max_examples=10, deadline=None)
    @example(lattice="hexagonal", magnitudes=[1.0, 0.5, 0.7], phases=[0.0, 0.0, 1.0])
    @given(lattice=st.sampled_from(sorted(LATTICES)), magnitudes=st.lists(magnitude, min_size=3, max_size=3),
           phases=st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3))
    def test_three_pairs_in_the_plane_keep_the_complex_path(self, lattice, magnitudes, phases):
        # (1, 1) = (1, 0) + (0, 1): a translate needs arg q_(1,1) - arg q_(1,0) - arg q_(0,1) in pi Z
        assume(abs(np.sin(phases[2] - phases[0] - phases[1])) > 1e-3)
        # distinct magnitudes: no point-group map permutes the pairs, so the group is time reversal
        assume(min(abs(a - b) for a, b in zip(magnitudes, magnitudes[1:] + magnitudes[:1])) > 1e-6)
        lat = LATTICES[lattice]
        q = hermitian(lat, [(1, 0), (0, 1), (1, 1)], np.multiply(magnitudes, np.exp(1j * np.array(phases))))
        assert q.even_translate() is None
        table = pb.band_functions(lat, 1, q, (8, 8), 4, basis_radius=4.0)
        basis = pb.PlanewaveBasis.full_ball(lat, 4.0)
        assert not table.real_symmetric
        # -t mod 1 pairs the 64 points except the 4 with 2t = 0 mod 1
        assert (table.symmetry_order, table.solved_points) == (len(symmetry_group(lat, q, (8, 8), basis)), 34)
        assert table.symmetry_order == 2

    def test_band_scan_reports_its_path(self, z2):
        q = pb.random_potential(3, z2, 1.0, 0.0, 0.09)  # two independent pairs
        table = pb.band_functions(z2, 1, q, (16, 16), 6, basis_radius=7.5)
        assert table.real_symmetric and table.every_other().real_symmetric
        # -I and the two axis mirrors of the real translate, against -I alone for q
        assert (table.symmetry_order, table.solved_points) == (4, 81)
        reference = brute_force_bands(z2, 1, q, (16, 16), 6, 7.5)[1]
        assert_close_to_reference(table.values, reference)
