import numpy as np
import pytest

import polybloch as pb
from conftest import scaled_cascade
from polybloch.errors import NoCandidate, PreconditionError, SmallDenominator
from polybloch.potential import FourierPotential

V_HAND = np.array([5.3, 4.2])  # |v|^2 = 45.73


def hand_s1(v, eps=1.0):
    """Independent two-term sum for the single-cosine potential."""
    a = float(v @ v)
    d_plus = a - float((v - [1, 0]) @ (v - [1, 0]))
    d_minus = a - float((v + [1, 0]) @ (v + [1, 0]))
    return eps**2 * (1.0 / d_plus + 1.0 / d_minus)


class TestSk:
    def test_s1_two_term_hand_sum(self, cosine):
        a = float(V_HAND @ V_HAND)
        value = pb.s_k(a, V_HAND, 1, cosine, 1)
        assert value == pytest.approx(1 / 9.6 - 1 / 11.6, abs=1e-15)
        assert value == pytest.approx(hand_s1(V_HAND), abs=1e-15)
        assert value == pytest.approx(0.017960, abs=1e-6)

    def test_s2_vanishes_on_cosine_support(self, cosine):
        a = float(V_HAND @ V_HAND)
        assert pb.s_k(a, V_HAND, 1, cosine, 2) == 0.0

    def test_zero_potential(self, z2):
        q0 = FourierPotential(z2, {})
        for k in (1, 2, 3):
            assert pb.s_k(45.73, V_HAND, 1, q0, k) == 0.0

    def test_homogeneity_exact(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.7)
        a = float(V_HAND @ V_HAND)
        for k in (1, 2, 3):
            base = pb.s_k(a, V_HAND, 1, q, k)
            scaled_val = pb.s_k(a, V_HAND, 1, q.scaled(0.5), k)
            assert scaled_val == pytest.approx(0.5 ** (k + 1) * base, rel=1e-12, abs=1e-300)

    def test_reality_complex_potential(self, z2):
        q = FourierPotential(z2, {
            (1, 0): 0.2 + 0.1j, (-1, 0): 0.2 - 0.1j,
            (0, 1): 0.15 - 0.3j, (0, -1): 0.15 + 0.3j,
            (1, 1): 0.05 + 0.02j, (-1, -1): 0.05 - 0.02j,
        })
        assert q.validate().passed
        a = float(V_HAND @ V_HAND)
        for k in (1, 2, 3, 4):
            value = pb.s_k(a, V_HAND, 1, q, k)  # raises if imaginary part survives
            assert isinstance(value, float)

    def test_tuple_counts_cosine(self, cosine):
        ev = pb.evaluate_series(0.0, V_HAND, 1, cosine, 2)
        # k = 1: both support vectors admissible and contributing
        assert ev.admissible_counts[0] == 2
        assert ev.term_counts[0] == 2
        # k = 2: (+,+) and (-,-) admissible, but the closing coefficient vanishes
        assert ev.admissible_counts[1] == 2
        assert ev.term_counts[1] == 0

    def test_denominator_bound_eq23_analogue(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.4)
        a = float(V_HAND @ V_HAND)
        for k in (1, 2, 3):
            ev = pb.evaluate_series(0.0, V_HAND, 1, q, k)
            bound = q.one_norm() ** (k + 1) / ev.denominator_floor**k
            assert abs(ev.values[k - 1]) <= bound

    def test_small_denominator_on_plane(self, z2):
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([0.5, 10.0])  # exactly on the bisector of (-1, 0)
        with pytest.raises(SmallDenominator) as err:
            pb.s_k(float(v @ v), v, 1, q, 1)
        assert err.value.floor == 0.0

    def test_pool_radius_truncates_consistently(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (3, 0)], 0.5)
        a = float(V_HAND @ V_HAND)
        full = pb.s_k(a, V_HAND, 1, q, 1)
        near = pb.evaluate_series(a - float(V_HAND @ V_HAND), V_HAND, 1, q, 1, pool_radius=2.0).values[0]
        only_near = pb.s_k(a, V_HAND, 1, pb.cosine_pair(z2, (1, 0), 0.5), 1)
        assert near == pytest.approx(only_near, rel=1e-14)
        assert near != pytest.approx(full, rel=1e-6)

    def test_degree_two(self, z2, cosine):
        # independent hand evaluation for l = 2
        a = 45.73**2
        d_plus = a - 36.13**2
        d_minus = a - 57.33**2
        assert pb.s_k(a, V_HAND, 2, cosine, 1) == pytest.approx(1 / d_plus + 1 / d_minus, rel=1e-12)


class TestKnownPart:
    def test_zero_potential_all_zero(self, z2):
        q0 = FourierPotential(z2, {})
        exp = pb.known_part_sequence(V_HAND, 1, q0, k_max=3)
        assert exp.f_values == (0.0, 0.0, 0.0, 0.0)
        assert exp.prediction(1) == pytest.approx(45.73)

    def test_recursion_hand_example(self, cosine):
        exp = pb.known_part_sequence(V_HAND, 1, cosine, k_max=2)
        assert exp.f_values[1] == pytest.approx(0.017960, abs=1e-6)
        assert exp.prediction(2) == pytest.approx(45.747960, abs=1e-6)
        # F_2 recursion: A_2 at the shifted parameter, computed independently
        a2 = 45.73 + exp.f_values[1]
        d_plus = a2 - float((V_HAND - [1, 0]) @ (V_HAND - [1, 0]))
        d_minus = a2 - float((V_HAND + [1, 0]) @ (V_HAND + [1, 0]))
        assert exp.f_values[2] == pytest.approx(1 / d_plus + 1 / d_minus, rel=1e-12)

    def test_quadratic_scaling_of_f1(self, z2, cosine):
        eps = 0.25
        full = pb.known_part_sequence(V_HAND, 1, cosine, k_max=1)
        small = pb.known_part_sequence(V_HAND, 1, cosine.scaled(eps), k_max=1)
        assert small.f_values[1] == pytest.approx(eps**2 * full.f_values[1], rel=1e-12)

    def test_cap_enforced(self, cosine):
        with pytest.raises(ValueError):
            pb.known_part_sequence(V_HAND, 1, cosine, k_max=7)

    def test_series_cap_is_a_precondition_error(self, cosine):
        with pytest.raises(PreconditionError, match="series orders"):
            pb.evaluate_series(0.0, V_HAND, 1, cosine, pb.MAX_SERIES_ORDER + 1)


class TestMatching:
    def test_free_match_is_exact(self, z2):
        q0 = FourierPotential(z2, {})
        spec = pb.bloch_solve(z2, 1, q0, V_HAND, 4.0)
        gamma0, _ = z2.reduce(V_HAND)
        m = pb.match_eigenvalue(spec, gamma0.coords, 0.0, 1.0)
        assert m.residual == pytest.approx(0.0, abs=1e-12)
        assert m.weight == pytest.approx(1.0)

    def test_cosine_match_beats_free(self, z2):
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        spec = pb.bloch_solve(z2, 1, q, V_HAND, 8.0, refine=True)
        gamma0, _ = z2.reduce(V_HAND)
        exp = pb.known_part_sequence(V_HAND, 1, q, k_max=2)
        m = pb.match_eigenvalue(spec, gamma0.coords, exp.prediction_rel(2), 1.0)
        assert m.weight > 0.99
        assert abs(m.residual) < abs(exp.f_values[1])

    def test_offset_prediction_no_candidate(self, z2):
        q0 = FourierPotential(z2, {})
        spec = pb.bloch_solve(z2, 1, q0, V_HAND, 4.0)
        gamma0, _ = z2.reduce(V_HAND)
        with pytest.raises(NoCandidate):
            pb.match_eigenvalue(spec, gamma0.coords, 1e3, 1.0)

    def test_minor_weight_pair_is_no_candidate(self, z2):
        # near the resonance v1 = -1/2, gamma0 and gamma0 + e1 mix about 60/40: a window
        # holding only the 40% pair matches nothing, and a wider one the 60% pair
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([-0.459, 4.2])
        spec = pb.bloch_solve(z2, 1, q, v, 6.0)
        gamma0, _ = z2.reduce(v)
        weights = np.abs(spec.coefficients[:, spec.position(gamma0.coords)]) ** 2
        minor, major = np.argsort(weights)[-2:]
        lam = spec.relative_eigenvalue(minor)
        with pytest.raises(NoCandidate, match="weighs more than 1/2"):
            pb.match_eigenvalue(spec, gamma0.coords, lam, 0.01)
        wide = abs(spec.relative_eigenvalue(major) - lam) + 0.01
        assert pb.match_eigenvalue(spec, gamma0.coords, lam, wide).index == major

    def test_oracle_cross_check_first_order(self, z2):
        # windowed diagonalization agrees with |v|^2 + F_1 far beyond |F_1|
        q = pb.cosine_pair(z2, (1, 0), 0.1)
        spec = pb.bloch_solve(z2, 1, q, V_HAND, 8.0, refine=True)
        gamma0, _ = z2.reduce(V_HAND)
        exp = pb.known_part_sequence(V_HAND, 1, q, k_max=2)
        free = pb.match_eigenvalue(spec, gamma0.coords, exp.prediction_rel(1), 1.0)
        first = pb.match_eigenvalue(spec, gamma0.coords, exp.prediction_rel(2), 1.0)
        assert free.residual == pytest.approx(exp.f_values[1], rel=1e-4)
        assert abs(first.residual) < 1e-4 * abs(exp.f_values[1])


class TestOrderSweep:
    def test_zero_potential_all_errors_zero(self, z2):
        q0 = FourierPotential(z2, {})
        cas = scaled_cascade(20.0, s=9.0, known_order=2)
        u = np.array([0.78, 0.6258])
        u /= np.linalg.norm(u)
        table = pb.order_sweep(z2, 1, q0, [10.0 * u, 20.0 * u], [1, 2], cas, window_radius=4.0)
        assert all(r.error < 1e-12 for r in table.rows)
        assert table.slopes[1] is None

    def test_cosine_error_improves_with_order(self, z2):
        q = pb.cosine_pair(z2, (1, 0), 0.1)
        cas = scaled_cascade(20.0, s=9.0, known_order=2)
        u = np.array([0.78, 0.6258])
        u /= np.linalg.norm(u)
        table = pb.order_sweep(z2, 1, q, [8.0 * u, 16.0 * u], [1, 2], cas, window_radius=8.0)
        by_k = {k: dict(table.errors_for(k)) for k in (1, 2)}
        for rho in (8.0, 16.0):
            assert by_k[2][rho] < by_k[1][rho]
        assert table.slopes[1] == pytest.approx(-2.0, abs=0.1)

    def test_csv_export(self, z2, tmp_path):
        q0 = FourierPotential(z2, {})
        cas = scaled_cascade(20.0, s=9.0, known_order=1)
        u = np.array([1.0, 0.41421356])
        u /= np.linalg.norm(u)
        table = pb.order_sweep(z2, 1, q0, [9.0 * u], [1], cas, window_radius=4.0)
        out = tmp_path / "sweep.csv"
        with open(out, "w") as fh:
            table.write_csv(fh)
        header = out.read_text().splitlines()[0]
        assert header == "rho,k,prediction,eigenvalue,error,weight,slope_k"
