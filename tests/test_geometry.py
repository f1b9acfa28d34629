import numpy as np
import pytest

import polybloch as pb
from conftest import s0_threshold, scaled_cascade
from polybloch.errors import CascadeInequalityViolated, PartitionBreakdown, ShellViolation
from polybloch.geometry import in_shell, membership_profile
from polybloch.numerics import blas_threads, capped_blas_threads, integer_rank, integer_row_basis, power_difference


def plane_distance(x, b, l: int) -> float:
    """| |x|^{2l} - |x+b|^{2l} |, computed cancellation-free."""
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    a_val = float(x @ x)
    first = 2.0 * float(x @ b) + float(b @ b)  # |x+b|^2 - |x|^2
    return abs(power_difference(first, a_val + first, a_val, l))


def in_V(x, b, l: int, threshold: float, rho: float) -> tuple[bool, float]:
    """Membership in the single-plane resonance set, with its signed margin.

    margin = | |x|^{2l} - |x+b|^{2l} | - threshold; member means margin < 0
    and x inside the annulus.  The single-plane reference for classify.
    """
    margin = plane_distance(x, b, l) - threshold
    return bool(margin < 0 and in_shell(x, rho)), float(margin)


class TestCascade:
    def test_d2_values(self):
        c = pb.derive_parameters(2, 1, 45.0, 20.0)
        assert c.m == 13
        assert c.alpha == pytest.approx(1 / 13)
        assert c.alpha_level(1) == pytest.approx(3 / 13)
        assert c.k1 == 10
        assert c.p == pytest.approx(43.0)
        assert c.p1 == 15
        assert c.eps1 == pytest.approx(20.0 ** (-2 - 2 / 13))

    def test_d3_values(self):
        c = pb.derive_parameters(3, 1, s0_threshold(3), 20.0)
        assert c.m == 32
        assert c.alpha == pytest.approx(1 / 32)
        assert c.k1 == 34

    def test_s0_arithmetic(self):
        assert s0_threshold(2) == pytest.approx(45.0)
        assert s0_threshold(3) == pytest.approx(157.25)

    def test_all_inequalities_hold_at_s0(self):
        for d in (2, 3):
            c = pb.derive_parameters(d, 1, s0_threshold(d), 50.0)
            assert all(ok for _, _, _, ok in pb.inequality_report(c))

    def test_small_s_triggers_named_violation(self):
        # for d = 2 only the k1 inequality depends on s; it fails below s = 38.5
        with pytest.raises(CascadeInequalityViolated) as err:
            pb.derive_parameters(2, 1, 30.0, 20.0)
        assert "k1" in err.value.name

    def test_scaled_mode_skips_checks(self):
        c = pb.derive_parameters(2, 1, 30.0, 20.0, mode="scaled",
                                 overrides={"v_thresholds": (2.0, 4.0, 8.0)})
        assert c.v_threshold(1) == 2.0
        assert c.v_threshold(2) == 4.0

    def test_eps1_formula(self):
        c = scaled_cascade(20.0)
        assert c.eps1 == 20.0 ** (-2 - 2 * c.alpha)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            pb.derive_parameters(1, 1, 45.0, 20.0)
        with pytest.raises(ValueError):
            pb.derive_parameters(2, 0, 45.0, 20.0)
        with pytest.raises(ValueError):
            pb.derive_parameters(2, 1, 45.0, 0.5)


class TestInV:
    def test_member_hand_example(self):
        flag, margin = in_V([10.0, 0.05], [0.0, 1.0], 1, 2.0, 10.0)
        assert flag
        assert margin == pytest.approx(1.1 - 2.0)

    def test_nonmember_hand_example(self):
        flag, margin = in_V([10.0, 5.0], [0.0, 1.0], 1, 2.0, 10.0)
        assert not flag
        assert margin == pytest.approx(11.0 - 2.0)

    def test_bisector_plane(self):
        # |x| = |x+b| exactly: distance 0, member for any positive threshold
        x = np.array([-0.5, 12.0])
        for thr in (0.1, 2.0):
            flag, margin = in_V(x, [1.0, 0.0], 1, thr, 10.0)
            assert flag
            assert margin == pytest.approx(-thr)

    def test_shell_required(self):
        flag, _ = in_V([100.0, 0.0], [0.0, 1.0], 1, 1000.0, 10.0)
        assert not flag  # inequality holds but x is outside the annulus

    def test_degree_scaling_inclusion(self, z2):
        # V^l membership implies V^1 membership at the same threshold
        rng = np.random.default_rng(8)
        pool = z2.enumerate_ball(2.5)
        for l in (2, 3):
            hits = 0
            for _ in range(300):
                x = rng.uniform(-1, 1, 2)
                x *= rng.uniform(10, 14) / np.linalg.norm(x)
                for b in pool:
                    in_l, _ = in_V(x, b.embedding, l, 50.0, 10.0)
                    if in_l:
                        hits += 1
                        in_1, _ = in_V(x, b.embedding, 1, 50.0, 10.0)
                        assert in_1
            assert hits > 0


class TestClassify:
    def test_far_point_nonresonant_margin_scan(self, z2):
        rho = 50.0
        cas = scaled_cascade(rho)
        x = np.array([rho * 0.61, rho * 0.48])
        # independent exhaustive margin scan over the pool
        pool = z2.enumerate_ball(cas.direction_pool_radius())
        min_dist = min(plane_distance(x, b.embedding, 1) for b in pool)
        assert min_dist > cas.v_threshold(1)
        verdict = pb.classify(z2, x, cas)
        assert not verdict.is_resonant
        assert verdict.min_pool_margin == pytest.approx(min_dist - cas.v_threshold(1))

    def test_near_plane_resonant_level_one(self, z2):
        rho = 50.0
        cas = scaled_cascade(rho)
        x = np.array([rho, 0.01])  # near the (0, +-1) planes only
        verdict = pb.classify(z2, x, cas)
        assert verdict.level == 1
        assert {g.coords for g in verdict.directions} <= {(0, 1), (0, -1)}
        assert all(m < 0 for m in verdict.margins)

    def test_level_never_reaches_two_in_shell_d2(self, z2):
        rho = 50.0
        cas = scaled_cascade(rho)
        rng = np.random.default_rng(4)
        for _ in range(400):
            x = rng.standard_normal(2)
            x *= rho / np.linalg.norm(x)
            verdict = pb.classify(z2, x, cas)
            assert verdict.level <= 1

    def test_shell_violation(self, z2):
        cas = scaled_cascade(50.0)
        with pytest.raises(ShellViolation):
            pb.classify(z2, [1.0, 1.0], cas)

    def test_partition_exhaustive_exclusive_d2(self, z2):
        rho = 40.0
        cas = scaled_cascade(rho)
        rng = np.random.default_rng(17)
        pool = pb.direction_pool(z2, cas)
        for _ in range(500):
            x = rng.standard_normal(2)
            x *= rng.uniform(0.55, 1.45) * rho / np.linalg.norm(x)
            _, _, flags = membership_profile(z2, x, cas, pool=pool)
            cells = [not flags[0]] + [flags[k] and not flags[k + 1] for k in range(len(flags) - 1)]
            assert sum(cells) == 1

    def test_partition_d3(self):
        # the union of {U, E_1\E_2, E_2\E_3} covers every sample; the graded
        # thresholds leave a thin overlap (x in U and in E_2\E_3 at once),
        # so exclusivity is checked in bulk rather than pointwise
        lat = pb.LatticeModel.cubic(3)
        rho = 60.0
        cas = scaled_cascade(rho, d=3, thresholds=(1.5, 3.0, 6.0, 12.0), pool_radius=2.0)
        rng = np.random.default_rng(23)
        pool = pb.direction_pool(lat, cas)
        seen_levels = set()
        n, overlaps = 600, 0
        for _ in range(n):
            x = rng.standard_normal(3)
            x *= rho / np.linalg.norm(x)
            verdict = pb.classify(lat, x, cas, pool=pool)
            seen_levels.add(verdict.level)
            _, _, flags = membership_profile(lat, x, cas, pool=pool)
            cells = [not flags[0]] + [flags[k] and not flags[k + 1] for k in range(len(flags) - 1)]
            assert sum(cells) >= 1  # exhaustive cover
            if sum(cells) > 1:
                overlaps += 1
        assert overlaps <= 0.01 * n
        assert {0, 1} <= seen_levels

    def test_deterministic_lex_witness(self, z2):
        rho = 50.0
        cas = scaled_cascade(rho)
        x = np.array([rho, 0.01])
        a = pb.classify(z2, x, cas)
        b = pb.classify(z2, x, cas)
        assert [g.coords for g in a.directions] == [g.coords for g in b.directions]
        # lexicographically smallest qualifying direction
        assert a.directions[0].coords == (0, -1)

    def test_nested_membership_common_threshold(self, z2):
        # E_2 at a common threshold is contained in E_1 at that threshold
        rho = 20.0
        lat3 = pb.LatticeModel.cubic(3)
        cas = scaled_cascade(rho, d=3, thresholds=(6.0, 6.0001, 6.0002, 6.0003), pool_radius=2.5)
        rng = np.random.default_rng(5)
        pool = pb.direction_pool(lat3, cas)
        for _ in range(200):
            x = rng.standard_normal(3)
            x *= rho / np.linalg.norm(x)
            _, _, flags = membership_profile(lat3, x, cas, pool=pool)
            if flags[1]:
                assert flags[0]

    def test_partition_breakdown_detected(self, z2):
        # huge thresholds put shell points inside E_d, which must be flagged
        cas = scaled_cascade(10.0, thresholds=(500.0, 501.0, 502.0))
        with pytest.raises(PartitionBreakdown):
            pb.classify(z2, np.array([10.0, 0.0]), cas)


def test_integer_row_basis_generates_the_rows():
    rows = [(3, 0), (0, 1), (1, 3), (2, 4)]
    basis, combos = integer_row_basis(rows)
    assert np.array_equal(np.array(combos) @ np.array(rows), np.array(basis))
    assert integer_rank(basis) == len(basis) == 2
    coeff = np.linalg.solve(np.array(basis, dtype=float).T, np.array(rows, dtype=float).T)
    assert np.allclose(coeff, np.round(coeff))  # each row is an integer combination of the basis
    assert integer_row_basis([]) == ([], [])


def test_capped_blas_threads_caps_and_restores():
    before = blas_threads()
    if before is None:
        pytest.skip("numpy's BLAS thread count cannot be read here")
    with capped_blas_threads(1):
        assert blas_threads() == 1
    assert blas_threads() == before
    with pytest.raises(RuntimeError), capped_blas_threads(1):
        raise RuntimeError
    assert blas_threads() == before
    with capped_blas_threads(None), capped_blas_threads(before + 1):
        assert blas_threads() == before


def test_integer_rank_exact():
    assert integer_rank([(1, 0), (0, 1)]) == 2
    assert integer_rank([(2, 4), (1, 2)]) == 1
    assert integer_rank([(1, 1, 0), (0, 1, 1), (1, 0, -1)]) == 2
    assert integer_rank([]) == 0
