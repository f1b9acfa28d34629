import numpy as np
import pytest

import polybloch as pb
from conftest import scaled_cascade
from polybloch.errors import InsufficientBands
from polybloch.potential import FourierPotential
from polybloch.scanner import BandTable


class TestBandFunctions:
    def test_free_bands_match_sorted_energies(self, z2):
        q0 = FourierPotential(z2, {})
        table = pb.band_functions(z2, 1, q0, (8, 8), 12, basis_radius=5.0)
        for i, t in enumerate(table.t_points[:10]):
            basis = pb.PlanewaveBasis.full_ball(z2, 5.0)
            free = pb.free_eigenvalues(z2, t, 1, basis)[:12]
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
        report = pb.gap_report(table, 0.0, float(table.band_min[-1]) - 0.25)
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

    def test_grid_too_coarse_rejected(self, z2):
        with pytest.raises(ValueError):
            pb.band_functions(z2, 1, FourierPotential(z2, {}), (4, 4), 5, basis_radius=4.0)

    def test_inversion_symmetry_flag_matches_full_solve(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.25)
        full = pb.band_functions(z2, 1, q, (8, 8), 10, basis_radius=5.0)
        reduced = pb.band_functions(z2, 1, q, (8, 8), 10, basis_radius=5.0,
                                    inversion_symmetry=True)
        assert np.allclose(full.values, reduced.values, atol=1e-10)

    def test_workers_path_matches_serial(self, z2):
        q = pb.cosine_sum(z2, [(1, 0)], 0.25)
        serial = pb.band_functions(z2, 1, q, (8, 8), 6, basis_radius=4.0)
        parallel = pb.band_functions(z2, 1, q, (8, 8), 6, basis_radius=4.0, workers=2)
        assert np.array_equal(serial.values, parallel.values)

    def test_certified_radius_stable(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.2)
        r = pb.certified_basis_radius(z2, 1, q, 20)
        assert r > np.sqrt(20 / np.pi)  # must exceed the free-counting radius


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
            pb.gap_report(table, 0.0, 2.0)

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
