import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polybloch as pb
from conftest import scaled_cascade
from polybloch.errors import PhaseDegenerate
from polybloch.lattice import CoordinateIndex
from polybloch.potential import FourierPotential

REPO = Path(__file__).resolve().parents[1]


def brute_force_k_set(f_value, t, window, box=9, l=1):
    """Independent integer scan for Z^2 competitors."""
    out = []
    for n in itertools.product(range(-box, box + 1), repeat=2):
        x = np.array(n, dtype=float) + t
        if abs(float(x @ x) ** l - f_value) < window:
            out.append(n)
    return sorted(out)


class TestKSet:
    def test_free_annulus_enumeration(self, z2):
        # v = (5, 0), t = 0, free potential: window 4 (threshold 12 / 3) around F = 25; the
        # pool radius 0.5 holds no direction, so no competitor meets a resonance plane
        q0 = FourierPotential(z2, {})
        cas = scaled_cascade(5.0, thresholds=(12.0, 24.0, 48.0), pool_radius=0.5, known_order=1)
        assert cas.k_window() == 4.0
        t = np.zeros(2)
        got = pb.k_set(z2, np.array([5.0, 0.0]), t, cas, 1, q0, f_value=25.0)
        coords = sorted(g.coords for g, _ in got)
        assert coords == brute_force_k_set(25.0, t, 4.0)
        # norms^2 25 and 26 both land inside the window
        norms = sorted({c[0] ** 2 + c[1] ** 2 for c in coords})
        assert norms == [25, 26]
        assert len(coords) == 20

    def test_small_window_only_center(self, z2):
        q0 = FourierPotential(z2, {})
        cas = scaled_cascade(5.39, thresholds=(0.3, 0.6, 1.2), known_order=1)
        v = np.array([5.0, 2.0])
        got = pb.k_set(z2, v, np.zeros(2), cas, 1, q0, f_value=29.0)
        assert [g.coords for g, _ in got] == [(5, 2)] or (5, 2) in [g.coords for g, _ in got]
        assert all(abs(g.embedding @ g.embedding - 29.0) < 0.1 for g, _ in got)

    def test_degenerate_window_zero(self, z2):
        q0 = FourierPotential(z2, {})
        # window -> 0 keeps only exact ties with F(v)
        cas = scaled_cascade(5.0, thresholds=(1e-9, 2e-9, 4e-9), known_order=1)
        got = pb.k_set(z2, np.array([5.0, 0.0]), np.zeros(2), cas, 1, q0, f_value=25.0)
        norms = {float(g.embedding @ g.embedding) for g, _ in got}
        assert norms == {25.0}

    def test_competitors_carry_classes(self, z2):
        q = pb.cosine_pair(z2, (1, 0), 0.1)
        cas = scaled_cascade(20.0, known_order=2)
        v = 20.0 * np.array([0.78, 0.6258]) / np.linalg.norm([0.78, 0.6258])
        gamma0, qm = z2.reduce(v)
        got = pb.k_set(z2, v, qm.reduced, cas, 1, q)
        assert any(g.coords == gamma0.coords for g, _ in got)
        for _, cls in got:
            assert cls.level in (0, 1)


class TestCheckSimplicity:
    def test_isolated_center_is_member(self, z2):
        q = pb.cosine_pair(z2, (1, 0), 0.1)
        cas = scaled_cascade(20.0, thresholds=(0.5, 1.0, 2.0), known_order=2)
        v = 20.0 * np.array([0.78, 0.6258]) / np.linalg.norm([0.78, 0.6258])
        report = pb.check_simplicity(z2, v, cas, 1, q)
        assert report.member
        assert all(e.margin >= 0 for e in report.entries)

    def test_one_coordinate_index_per_block_and_none_for_the_pool(self, z2, monkeypatch):
        built, init = [], CoordinateIndex.__init__

        def counted(index, coords):
            built.append(len(coords))
            init(index, coords)

        monkeypatch.setattr(CoordinateIndex, "__init__", counted)
        v = np.array([12.48, -15.628])
        cas = scaled_cascade(float(np.linalg.norm(v)), known_order=2, a_radius=1.2)
        report = pb.check_simplicity(z2, v, cas, 1, pb.cosine_pair(z2, (1, 0), 0.1))
        blocks = sorted(e.diagnostics["block_size"] for e in report.entries if e.kind == "block")
        assert len(blocks) == 2 and sorted(built) == sorted(set(blocks))  # one index per block shape

    def test_verdict_and_coefficient_checks_leave_numpy_ma_unloaded(self):
        # np.unique(..., axis=0) imports numpy.ma (12-16 ms, 1.7 MB) on its first call; index
        # sets and reachable offsets deduplicate without it.  The three block competitors here
        # need no inertia count, so no scipy.sparse import brings numpy.ma in either.
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import polybloch as pb\n"
            "lat = pb.LatticeModel.cubic(2)\n"
            "q = pb.cosine_pair(lat, (1, 0), 0.1)\n"
            "cas = pb.derive_parameters(2, 1, 45.0, 20.0, mode='scaled', overrides={\n"
            "    'v_thresholds': [2.0, 4.0, 8.0], 'pool_radius': 3.0, 'known_order': 2})\n"
            "v = np.array([-19.402254825860837, 4.853092588480045])\n"
            "report = pb.check_simplicity(lat, v, cas, 1, q)\n"
            "assert sum(e.kind == 'block' for e in report.entries) == 3\n"
            "spectrum = pb.bloch_solve(lat, 1, q, v, 3.0)\n"
            "gamma0 = lat.reduce(v)[0].coords\n"
            "pb.bloch_verify(spectrum, spectrum.dominant_index(gamma0), gamma0, 3, q, 0.0)\n"
            "print('numpy.ma' in sys.modules, 'scipy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False False"

    def test_trivial_member_when_k_is_singleton(self, z2):
        # nearest competitor free energy sits 0.034 away, outside window 0.05/3
        q0 = FourierPotential(z2, {})
        cas = scaled_cascade(17.0, thresholds=(0.05, 0.1, 0.2), known_order=1)
        v = np.array([14.123, 9.456])
        report = pb.check_simplicity(z2, v, cas, 1, q0)
        assert report.member
        assert report.entries == ()  # vacuous: only the center in its own window

    def test_constructed_violator_flags_competitor(self, z2):
        # move v along e2 until a chosen annulus competitor's known part
        # collides within 2 eps1; the report must name that competitor
        q = pb.cosine_pair(z2, (1, 0), 0.1)
        cas = scaled_cascade(20.0, known_order=2)
        rng = np.random.default_rng(2)
        u = np.array([0.78, 0.6258])
        u /= np.linalg.norm(u)
        v0 = 20.0 * u
        gamma0, qm = z2.reduce(v0)
        # pick a competitor near the same free energy
        target = None
        for g, cls in pb.k_set(z2, v0, qm.reduced, cas, 1, q):
            if g.coords != gamma0.coords and not cls.is_resonant:
                target = g
                break
        assert target is not None
        delta = np.array(target.coords, dtype=float) - np.array(gamma0.coords, dtype=float)

        def gap(tau):
            v = v0 + np.array([0.0, tau])
            f_v = pb.known_part(v, 1, q, cas).value
            f_w = pb.known_part(v + delta, 1, q, cas).value
            return f_v - f_w

        lo, hi = -0.45, 0.45
        g_lo, g_hi = gap(lo), gap(hi)
        assert g_lo * g_hi < 0  # sign change across the slide
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if gap(lo) * gap(mid) <= 0:
                hi = mid
            else:
                lo = mid
        v_bad = v0 + np.array([0.0, 0.5 * (lo + hi)])
        assert abs(gap(0.5 * (lo + hi))) < cas.eps1
        report = pb.check_simplicity(z2, v_bad, cas, 1, q)
        assert not report.member
        bad_coords = {e.coords for e in report.violators()}
        gamma_bad, _ = z2.reduce(v_bad)
        expected = tuple(int(g + d) for g, d in zip(gamma_bad.coords, delta))
        assert expected in bad_coords

    def test_resonant_center_rejected(self, z2):
        q = pb.cosine_pair(z2, (1, 0), 0.1)
        cas = scaled_cascade(20.0, known_order=2)
        with pytest.raises(ValueError, match="non-resonant"):
            pb.check_simplicity(z2, np.array([0.5, 20.0]), cas, 1, q)

    def test_preconditions_are_spectral_errors(self, z2):
        q = pb.cosine_pair(z2, (1, 0), 0.1)
        cas = scaled_cascade(20.0, known_order=2)
        # a resonant center, and one outside the shrunk annulus
        for v, match in (([0.5, 20.0], "non-resonant"), ([3.0, 4.0], "annulus")):
            with pytest.raises(pb.PreconditionError, match=match) as info:
                pb.check_simplicity(z2, np.array(v), cas, 1, q)
            assert isinstance(info.value, pb.SpectralError)


class TestBlochVerify:
    def test_zero_potential(self, z2):
        q0 = FourierPotential(z2, {})
        v = np.array([5.3, 4.2])
        spec = pb.bloch_solve(z2, 1, q0, v, 4.0)
        gamma0, _ = z2.reduce(v)
        n = spec.dominant_index(gamma0.coords)
        report = pb.bloch_verify(spec, n, gamma0.coords, 2, q0, 0.0)
        assert report.residual_mass == pytest.approx(0.0, abs=1e-12)
        assert report.rows == ()
        assert report.normalization_measured == pytest.approx(1.0)

    def test_first_order_coefficients_cosine(self, z2):
        # measured b(N, gamma + g) / b(N, gamma) against q_g / (|v|^2 - |v+g|^2)
        eps = 0.1
        q = pb.cosine_pair(z2, (1, 0), eps)
        v = np.array([5.3, 4.2])
        spec = pb.bloch_solve(z2, 1, q, v, 8.0, refine=True)
        gamma0, _ = z2.reduce(v)
        n = spec.dominant_index(gamma0.coords)
        report = pb.bloch_verify(spec, n, gamma0.coords, 2, q, 0.0)
        by_offset = {r.offset: r for r in report.rows}
        # independent hand values: eps/9.6 toward -e1, -eps/11.6 toward +e1
        row_minus = by_offset[(-1, 0)]
        assert row_minus.predicted_first_order.real == pytest.approx(eps / 9.6, rel=1e-12)
        assert row_minus.measured.real == pytest.approx(eps / 9.6, rel=0.05)
        row_plus = by_offset[(1, 0)]
        assert row_plus.predicted_first_order.real == pytest.approx(-eps / 11.6, rel=1e-12)
        assert row_plus.measured.real == pytest.approx(-eps / 11.6, rel=0.05)
        assert report.weight > 0.99

    def test_normalization_prediction(self, z2):
        eps = 0.1
        q = pb.cosine_pair(z2, (1, 0), eps)
        v = np.array([5.3, 4.2])
        spec = pb.bloch_solve(z2, 1, q, v, 8.0, refine=True)
        gamma0, _ = z2.reduce(v)
        n = spec.dominant_index(gamma0.coords)
        report = pb.bloch_verify(spec, n, gamma0.coords, 3, q, 0.0)
        assert report.normalization_predicted == pytest.approx(report.normalization_measured, abs=1e-5)

    def test_phase_degenerate_raises(self, z2):
        # on the diffraction plane the weight splits across the pair
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([0.5, 10.0])
        spec = pb.bloch_solve(z2, 1, q, v, 6.0)
        gamma0, _ = z2.reduce(v)
        n = spec.dominant_index(gamma0.coords)
        with pytest.raises(PhaseDegenerate):
            pb.bloch_verify(spec, n, gamma0.coords, 2, q, 0.0)


class TestIsoenergetic:
    def test_free_roots_on_sphere(self, z2):
        q0 = FourierPotential(z2, {})
        cas = scaled_cascade(20.0, known_order=1)
        rays = [(0.78, 0.6258), (0.3, 0.95), (-0.6, 0.8)]
        roots = pb.isoenergetic_sample(z2, 20.0, 1, q0, cas, rays)
        for r in roots:
            assert r.skipped is None
            assert r.radius == pytest.approx(20.0, rel=1e-12)

    def test_cosine_first_order_shift(self, z2):
        eps = 0.1
        q = pb.cosine_pair(z2, (1, 0), eps)
        cas = scaled_cascade(20.0, known_order=2)
        u = np.array([0.78, 0.6258])
        u /= np.linalg.norm(u)
        roots = pb.isoenergetic_sample(z2, 20.0, 1, q, cas, [u])
        root = roots[0]
        assert root.skipped is None
        f1 = pb.known_part_sequence(20.0 * u, 1, q, k_max=1).f_values[1]
        predicted = 20.0 - f1 / (2 * 1 * 20.0 ** (2 * 1 - 1))
        assert root.radius == pytest.approx(predicted, abs=1e-3)
        assert abs(root.f_value - 20.0**2) <= 1e-9 * 20.0**2

    def test_resonant_ray_skipped(self, z2):
        q = pb.cosine_pair(z2, (1, 0), 0.1)
        cas = scaled_cascade(20.0, known_order=2)
        roots = pb.isoenergetic_sample(z2, 20.0, 1, q, cas, [(1.0, 0.0)])
        assert roots[0].skipped is not None
        assert roots[0].radius is None

    def test_precondition_errors_are_not_reported_as_no_bracket(self, z2):
        # bracketing gives up only on numerical failures; an order above the
        # series cap is a caller error and surfaces as such
        q = pb.cosine_pair(z2, (1, 0), 0.1)
        cas = dataclasses.replace(scaled_cascade(20.0, known_order=2), known_order=9)
        with pytest.raises(ValueError, match="exceeds the cap"):
            pb.isoenergetic_sample(z2, 20.0, 1, q, cas, [(0.78, 0.6258)])

    @pytest.mark.parametrize("order", [0, 9, 2.0, "x", True])
    def test_known_order_outside_the_cap_is_rejected(self, order):
        with pytest.raises(ValueError, match="known_order"):
            scaled_cascade(20.0, known_order=order)


def test_known_part_consistency(z2):
    q = pb.cosine_pair(z2, (1, 0), 0.1)
    cas = scaled_cascade(20.0, known_order=2)
    v = 20.0 * np.array([0.78, 0.6258]) / np.linalg.norm([0.78, 0.6258])
    kp = pb.known_part(v, 1, q, cas)
    again = pb.known_part_sequence(v, 1, q, cas, k_max=kp.order)
    assert kp.value == pytest.approx(again.known_part(), abs=1e-12)
