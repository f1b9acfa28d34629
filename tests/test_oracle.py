import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import polybloch as pb
from polybloch import oracle
from polybloch.errors import NoCandidate, PreconditionError, WindowNotConverged
from polybloch.numerics import blas_threads
from polybloch.oracle import PlanewaveBasis
from polybloch.potential import FourierPotential

from conftest import free_eigenvalues, scaled_cascade

REPO = Path(__file__).resolve().parents[1]


def two_state_basis(z2):
    return PlanewaveBasis(z2, [(0, 0), (1, 0)])


def counted_solve(lattice, l, q, v, radius, preds, hw, refine=False):
    """track_dominant's counted fallback over [min P - hw, max P + hw), tracking refused at once."""
    with mock.patch.object(oracle, "_TRACK_STEPS", 0):
        spectrum = pb.track_dominant(lattice, l, q, v, radius, preds, hw, refine=refine)
    assert spectrum.diagnostics["tracking_refused"] == "convergence"
    return spectrum


def assert_matches_dense(spectrum, dense, l, q, v, preds, hw):
    """Every prediction's match_eigenvalue on spectrum is the dense full solve's.

    Exactly so where spectrum is a dense solve in full; otherwise the pair
    matched carries the dense pair's Rayleigh quotient to 1e-12 (1 + |lambda|)
    and its weight on gamma0 to 1e-10 (eigh's own eigenvalues carry ~eps |H|).
    """
    gamma0 = dense.basis.lattice.reduce(v)[0].coords
    W = dense.coefficients.T
    lam = np.real(np.vecdot(W, pb.assemble(l, q, dense.t, dense.basis, shift_center=v) @ W, axis=0))
    for p in preds:
        try:
            ref = pb.match_eigenvalue(dense, gamma0, p, hw)
        except NoCandidate:
            with pytest.raises(NoCandidate):
                pb.match_eigenvalue(spectrum, gamma0, p, hw)
            continue
        got = pb.match_eigenvalue(spectrum, gamma0, p, hw)
        if len(spectrum) == len(spectrum.basis):
            assert got == ref
        else:
            assert abs(spectrum.relative_eigenvalue(got.index) - lam[ref.index]) <= 1e-12 * (1.0 + abs(lam[ref.index]))
            assert abs(got.weight - ref.weight) <= 1e-10


class TestAssemble:
    def test_zero_potential_diagonal(self, z2):
        basis = PlanewaveBasis.full_ball(z2, 1.5)
        t = np.array([0.1, 0.2])
        H = pb.assemble(2, FourierPotential(z2, {}), t, basis)
        assert np.allclose(H, np.diag(np.diag(H)))
        for i, emb in enumerate(basis.embeddings):
            x = emb + t
            assert H[i, i].real == pytest.approx(float(x @ x) ** 2)

    def test_hand_matrix(self, z2, cosine):
        H = pb.assemble(1, cosine, [0.3, 0.0], two_state_basis(z2))
        assert np.allclose(H, [[0.09, 1.0], [1.0, 1.69]])

    def test_l2_squares_diagonal(self, z2, cosine):
        H = pb.assemble(2, cosine, [0.3, 0.0], two_state_basis(z2))
        assert H[0, 0].real == pytest.approx(0.09**2)
        assert H[1, 1].real == pytest.approx(1.69**2)

    def test_hermitian_by_construction(self, z2):
        q = FourierPotential(z2, {(1, 1): 0.3 + 0.4j, (-1, -1): 0.3 - 0.4j})
        basis = PlanewaveBasis.full_ball(z2, 2.3)
        H = pb.assemble(1, q, [0.15, 0.45], basis)
        assert np.array_equal(H, H.conj().T)


class TestDiagonalize:
    def test_diagonal_input(self, z2):
        basis = PlanewaveBasis.full_ball(z2, 1.5)
        t = np.array([0.3, 0.1])
        H = pb.assemble(1, FourierPotential(z2, {}), t, basis)
        spec = pb.diagonalize(H, basis, t, 1)
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        assert np.allclose(spec.eigenvalues, np.sort(np.diag(H).real))
        # coefficient table is a permutation matrix
        assert np.allclose(np.abs(spec.coefficients) @ np.abs(spec.coefficients).T, np.eye(len(basis)), atol=1e-12)

    def test_symmetric_2x2(self, z2):
        basis = two_state_basis(z2)
        spec = pb.diagonalize(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), basis, [0.0, 0.0], 1)
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])

    def test_closed_form_2x2(self, z2, cosine):
        H = pb.assemble(1, cosine, [0.3, 0.0], two_state_basis(z2))
        spec = pb.diagonalize(H, two_state_basis(z2), [0.3, 0.0], 1)
        mean, disc = 0.89, np.sqrt(0.64 + 1.0)
        assert spec.eigenvalues[0] == pytest.approx(mean - disc, abs=1e-10)
        assert spec.eigenvalues[1] == pytest.approx(mean + disc, abs=1e-10)

    def test_parseval_rows(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.3)
        basis = PlanewaveBasis.full_ball(z2, 3.2)
        t = np.array([0.21, 0.37])
        spec = pb.solve(z2, 1, q, t, basis)
        norms = np.sum(np.abs(spec.coefficients) ** 2, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-10)

    def test_trace_identity(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.3)
        basis = PlanewaveBasis.full_ball(z2, 3.2)
        t = np.array([0.21, 0.37])
        spec = pb.solve(z2, 1, q, t, basis)
        free = free_eigenvalues(z2, t, 1, basis)
        assert np.sum(spec.eigenvalues) == pytest.approx(np.sum(free), rel=1e-8)

    def test_perturbation_bound(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.3)
        basis = PlanewaveBasis.full_ball(z2, 3.2)
        t = np.array([0.21, 0.37])
        spec = pb.solve(z2, 1, q, t, basis)
        free = free_eigenvalues(z2, t, 1, basis)
        assert np.max(np.abs(spec.eigenvalues - free)) <= q.one_norm() + 1e-12

    def test_cluster_flags_on_degeneracy(self, z2):
        # t = 0: |gamma+t|^2 degenerate for the four unit vectors
        basis = PlanewaveBasis.full_ball(z2, 1.5)
        t = np.zeros(2)
        spec = pb.solve(z2, 1, FourierPotential(z2, {}), t, basis)
        assert spec.cluster_flags[1:].all()  # the four degenerate states flagged
        assert not spec.cluster_flags[0]


class TestWindowedSolve:
    def test_free_window_reproduces_center(self, z2):
        v = np.array([5.3, 4.2])
        spec = pb.bloch_solve(z2, 1, FourierPotential(z2, {}), v, 3.0)
        gamma0, _ = z2.reduce(v)
        n = spec.dominant_index(gamma0.coords)
        assert spec.eigenvalues[n] == pytest.approx(float(v @ v), rel=1e-12)
        assert spec.weight(n, gamma0.coords) == pytest.approx(1.0)

    def test_window_membership_exact(self, z2):
        v = np.array([5.3, 4.2])
        t = z2.reduce(v)[1].reduced
        basis = PlanewaveBasis.window(z2, t, v, 4.0)
        member = set(map(tuple, basis.coords.tolist()))
        for coords in z2.enumerate_shifted_ball(v - t, 10.0).tolist():
            dist = np.linalg.norm(z2.embed(coords) + t - v)
            assert (tuple(coords) in member) == (dist <= 4.0 + 1e-9)

    def test_refinement_certificate(self, z2):
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([5.3, 4.2])
        small = pb.bloch_solve(z2, 1, q, v, 8.0)
        refined = pb.bloch_solve(z2, 1, q, v, 8.0, refine=True)
        gamma0, _ = z2.reduce(v)
        lam_small = small.relative_eigenvalue(small.dominant_index(gamma0.coords))
        lam_big = refined.relative_eigenvalue(refined.dominant_index(gamma0.coords))
        assert abs(lam_small - lam_big) < 1e-9

    def test_window_too_small_fails_certificate(self, z2):
        # refining 1.4 -> 2.1 pulls in the 2-hop states at distance 2,
        # shifting the tracked eigenvalue far beyond the certificate
        q = pb.cosine_pair(z2, (1, 0), 1.0)
        v = np.array([5.3, 4.2])
        with pytest.raises(WindowNotConverged):
            pb.bloch_solve(z2, 1, q, v, 1.4, refine=True)

    def test_center_not_on_lattice_rejected(self, z2):
        with pytest.raises(ValueError, match="own index"):
            pb.bloch_solve(z2, 1, FourierPotential(z2, {}), [5.3, 4.2], 3.0, t=np.array([0.1, 0.1]))

    def test_center_1e6_off_the_lattice_is_a_precondition_error(self, z2):
        v = np.array([5.3, 4.2])
        t = v - np.array([5.0, 4.0]) + np.array([1e-6, 0.0])
        with pytest.raises(PreconditionError, match="not a dual lattice vector"):
            pb.bloch_solve(z2, 1, FourierPotential(z2, {}), v, 3.0, t=t)
        # the exact split puts gamma0 in every window of radius >= 0
        assert pb.bloch_solve(z2, 1, FourierPotential(z2, {}), v, 0.0, t=t - [1e-6, 0.0]).diagnostics["basis_size"] == 1

    def test_negative_window_is_a_precondition_error(self, z2):
        with pytest.raises(PreconditionError, match="window excludes the center's own index"):
            pb.bloch_solve(z2, 1, FourierPotential(z2, {}), [5.3, 4.2], -1.0)

    def test_window_missing_the_coupled_waves_fails_certificate(self, z2):
        # a 0.01 window holds gamma0 alone, and so does its 1.5x refinement:
        # the certified eigenvalue could not move, so the refinement proves nothing
        q = pb.cosine_pair(z2, (1, 0), 0.1)
        v = np.array([15.6, 12.5])
        assert len(pb.bloch_solve(z2, 1, q, v, 0.01).basis) == 1
        with pytest.raises(WindowNotConverged, match="coupled"):
            pb.bloch_solve(z2, 1, q, v, 0.01, refine=True)
        # one hop of the support is the least window the certificate accepts
        assert pb.bloch_solve(z2, 1, q, v, 1.0, refine=True).diagnostics["basis_size"] == 5

    def test_shifted_frame_consistency(self, z2):
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([5.3, 4.2])
        spec = pb.bloch_solve(z2, 1, q, v, 6.0)
        n = spec.dominant_index(z2.reduce(v)[0].coords)
        assert spec.shift == pytest.approx(float(v @ v))
        assert spec.eigenvalues[n] == pytest.approx(spec.shift + spec.relative_eigenvalue(n), rel=1e-12)


class TestPartialSolve:
    """The counted interval solve against the full eigh of the same window."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**16), support=st.sampled_from([1.0, 1.5]), amplitude=st.floats(0.05, 1.0),
           l=st.sampled_from([1, 2]), angle=st.floats(0.0, 2 * np.pi), rho=st.floats(2.0, 6.0),
           radius=st.floats(1.5, 3.5), scale=st.sampled_from([0.5, 5.0, 50.0]),
           middle=st.floats(-1.0, 1.0), width=st.floats(1e-3, 1.0))
    @example(seed=0, support=1.0, amplitude=0.3, l=1, angle=0.7, rho=4.0, radius=3.0, scale=0.5,
             middle=0.0, width=1.0)
    @example(seed=0, support=1.0, amplitude=0.3, l=2, angle=0.7, rho=4.0, radius=3.0, scale=50.0,
             middle=-1.0, width=0.01)
    @example(seed=23553, support=1.0, amplitude=0.43, l=2, angle=5.2110, rho=5.0, radius=3.321, scale=0.5,
             middle=-0.0296, width=0.1799)  # eigh's own eigenvalue is 1.67e-12 off here
    def test_partial_matches_full(self, z2, seed, support, amplitude, l, angle, rho, radius, scale, middle, width):
        q = pb.random_potential(seed, 2, support, 0.0, amplitude, lattice=z2)
        v = rho * np.array([np.cos(angle), np.sin(angle)])
        gamma0 = z2.reduce(v)[0].coords
        pred, hw = scale * middle, scale * width
        lo, hi = pred - hw, pred + hw
        full = pb.bloch_solve(z2, l, q, v, radius)
        H = pb.assemble(l, q, full.t, full.basis, shift_center=v)
        # eigh's own eigenvalues are good to ~eps |H|, which exceeds the tolerance
        # when |H| passes a few thousand; the Rayleigh quotients of its vectors are
        # good to |residual|^2 / gap
        W = full.coefficients.T
        lam = np.real(np.vecdot(W, H @ W, axis=0))
        order = np.argsort(lam, kind="stable")
        lam, W = lam[order], W[:, order]
        tol = 1e-12 * (1.0 + np.abs(lam))
        pos = full.position(gamma0)
        n_full = int(np.argmax(np.abs(W[pos]) ** 2))
        _, reason, pairs = oracle._window_pairs(
            pb.assemble(l, q, full.t, full.basis, shift_center=v, sparse=True).tocsc(), lo, hi)
        if reason is not None:
            assert reason in ("pivot", "count")
        else:
            rel_part, X, _ = pairs
            assert np.all((rel_part > lo - 1e-12 * (1 + abs(lo))) & (rel_part <= hi + 1e-12 * (1 + abs(hi))))
            # the pairs returned are a run of consecutive eigenvalues, matched in sorted
            # order; an eigenvalue within rounding of lo may fall on either side of it
            m, tol_lo = len(rel_part), 1e-12 * (1 + abs(lo))
            starts = [a for a in range(np.count_nonzero(lam < lo - tol_lo), np.count_nonzero(lam < lo + tol_lo) + 1)
                      if a + m <= len(lam) and np.all(np.abs(rel_part - lam[a:a + m]) <= tol[a:a + m])]
            assert starts
            idx = starts[0] + np.arange(m)
            # every eigenvalue inside [lo, hi) by more than tol is returned
            surely_inside = np.nonzero((lam >= lo + tol) & (lam < hi - tol))[0]
            assert set(surely_inside.tolist()) <= set(idx.tolist())
            # weights on gamma0 of well-separated pairs, whose vectors are fixed to ~eps |H| / gap
            gaps = np.abs(lam[:, None] - lam[None, :]) + np.diag(np.full(len(lam), np.inf))
            separated = gaps.min(axis=1)[idx] > 1e-4 * np.linalg.norm(H, 2)
            w_full = np.abs(W[pos, idx]) ** 2
            w_part = np.abs(X[pos]) ** 2
            assert np.all(np.abs(w_part - w_full)[separated] <= 1e-10)
            # the dominant pair's eigenvalue (its index is arbitrary within a degenerate pair)
            if m and w_part.max() > 0.5:
                assert abs(lam[idx[int(np.argmax(w_part))]] - lam[n_full]) <= tol[n_full]
        windowed = counted_solve(z2, l, q, v, radius, [pred], hw)
        tracked_inside = lo + tol[n_full] <= lam[n_full] < hi - tol[n_full]
        if not tracked_inside:
            assert windowed.diagnostics["eigensolver"] == "dense"
        if windowed.diagnostics["eigensolver"] == "dense":
            assert windowed.diagnostics["dense_fallback_reason"] in ("pivot", "count", "half-rule")
            assert len(windowed) == len(full)
            assert np.array_equal(windowed.eigenvalues, full.eigenvalues)
        else:
            tracked = windowed.relative_eigenvalue(windowed.dominant_index(gamma0))
            assert abs(tracked - lam[n_full]) <= tol[n_full]

    def test_empty_interval_falls_back_to_full_solve(self, z2):
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([5.3, 4.2])
        full = pb.bloch_solve(z2, 1, q, v, 6.0, refine=True)
        spec = counted_solve(z2, 1, q, v, 6.0, [1e6 + 0.5], 0.5, refine=True)
        assert spec.diagnostics["dense_fallback_reason"] == "half-rule"
        assert np.array_equal(spec.eigenvalues, full.eigenvalues)
        assert spec.diagnostics["pairs_solved"] == spec.diagnostics["basis_size"] + len(spec)

    def test_minor_weight_pair_alone_falls_back(self, z2):
        # Near the resonance v1 = -1/2, gamma0 and gamma0 + e1 mix about 60/40.
        # An interval holding only the 40% pair cannot rule out a heavier pair
        # outside it, so the window is solved in full.
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([-0.459, 4.2])
        gamma0 = z2.reduce(v)[0].coords
        full = pb.bloch_solve(z2, 1, q, v, 6.0)
        weights = np.abs(full.coefficients[:, full.position(gamma0)]) ** 2
        minor, major = np.argsort(weights)[-2:]
        assert 0.3 < weights[minor] < 0.5 < weights[major]
        lam = full.relative_eigenvalue(minor)
        spec = counted_solve(z2, 1, q, v, 6.0, [lam], 0.01)
        assert spec.diagnostics["dense_fallback_reason"] == "half-rule"
        assert spec.relative_eigenvalue(spec.dominant_index(gamma0)) == full.relative_eigenvalue(major)

    def test_window_interval_solves_few_pairs(self, z2):
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([5.3, 4.2])
        gamma0 = z2.reduce(v)[0].coords
        full = pb.bloch_solve(z2, 1, q, v, 8.0, refine=True)
        spec = counted_solve(z2, 1, q, v, 8.0, [0.0], 0.5, refine=True)
        diag = spec.diagnostics
        assert diag["dense_fallback_reason"] is None and diag["eigensolver"] == "sparse"
        assert diag["pairs_solved"] < 10 < diag["basis_size"] < diag["refined_basis_size"] == len(full.basis)
        assert diag["certificate_move"] < 1e-9 and diag["worst_residual"] < 1e-8
        n, n_full = spec.dominant_index(gamma0), full.dominant_index(gamma0)
        assert abs(spec.relative_eigenvalue(n) - full.relative_eigenvalue(n_full)) <= 1e-15
        assert spec.weight(n, gamma0) == pytest.approx(full.weight(n_full, gamma0), abs=1e-12)

    def test_rayleigh_quotient_restores_full_accuracy(self, z2):
        # Criterion 3's cosine pair at rho = 80 on its required window (901 waves).
        # The interval solve's own eigenvalue is 1.2e-13 off the full solve's;
        # the Rayleigh quotient brings it to ~4e-20.
        q = pb.cosine_pair(z2, (1, 0), 0.1)
        cas = scaled_cascade(20.0, known_order=3)
        u = np.array([0.78, 0.6258])
        v = 80.0 * u / np.linalg.norm(u)
        gamma0 = z2.reduce(v)[0].coords
        preds = [pb.known_part_sequence(v, 1, q, cas, k_max=3).prediction_rel(k) for k in (1, 2, 3)]
        hw = cas.matching_halfwidth()
        window = pb.required_window_radius(q, cas)
        full = pb.bloch_solve(z2, 1, q, v, window)
        part = counted_solve(z2, 1, q, v, window, preds, hw)
        assert part.diagnostics["dense_fallback_reason"] is None
        lam_full = full.relative_eigenvalue(full.dominant_index(gamma0))
        lam_part = part.relative_eigenvalue(part.dominant_index(gamma0))
        assert abs(lam_part - lam_full) <= 1e-17


# random small windows: d = 2, 3; l = 1, 2; generic tables and rank-1 chains; predictions
# offset from the first-order level shift
TRACKED_CASES = dict(
    d=st.sampled_from([2, 3]), l=st.sampled_from([1, 2]), chains=st.booleans(), seed=st.integers(0, 2**16),
    amplitude=st.floats(0.05, 0.5), axis=st.integers(0, 2),
    direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), rho=st.floats(3.0, 6.0),
    radius=st.floats(1.5, 2.5), scale=st.sampled_from([0.01, 0.1, 1.0]),
    offsets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3), width=st.floats(0.05, 2.0))


def tracked_case(d, l, chains, seed, amplitude, axis, direction, rho, scale, offsets):
    """(lattice, q, v, gamma0, predictions) of one TRACKED_CASES draw."""
    lattice = pb.LatticeModel.cubic(d)
    if chains:  # rank-1 support: the operator splits into decoupled chains
        q = pb.cosine_pair(lattice, np.eye(d, dtype=int)[axis % d], amplitude)
    else:
        q = pb.random_potential(seed, d, 1.0, 0.0, amplitude, lattice=lattice)
    u = np.array(direction[:d]) + 1e-3
    v = rho * u / np.linalg.norm(u)
    gamma0 = lattice.reduce(v)[0].coords
    # predictions about the first-order level shift, the highest order last
    shift = float(v @ v) ** l
    first = sum(abs(q.coefficient(g)) ** 2 / (shift - float(np.sum((v + lattice.embed(g)) ** 2)) ** l)
                for g in q.support)
    return lattice, q, v, gamma0, [first + scale * o for o in offsets]


class TestTrackedSolve:
    """track_dominant against the dense bloch_solve of the same windows."""

    @settings(max_examples=100, deadline=None)
    @given(refine=st.booleans(), **TRACKED_CASES)
    @example(d=2, l=1, chains=True, seed=0, amplitude=0.3, axis=0, direction=[0.78, 0.6258, 0.0], rho=5.0,
             radius=2.0, refine=True, scale=0.01, offsets=[0.0], width=1.0)
    @example(d=3, l=2, chains=False, seed=7, amplitude=0.2, axis=0, direction=[0.78, 0.6258, 0.31], rho=4.0,
             radius=2.0, refine=False, scale=0.01, offsets=[0.1, 0.0], width=1.0)
    @example(d=2, l=1, chains=True, seed=0, amplitude=0.25, axis=0, direction=[0.0, 0.5, 0.0], rho=3.0,
             radius=2.5, refine=False, scale=1.0, offsets=[0.0, -1.0], width=1.0)  # P = -1.125: weights 1e-38
    def test_tracked_matches_dense(self, d, l, chains, seed, amplitude, axis, direction, rho, radius,
                                   refine, scale, offsets, width):
        lattice, q, v, gamma0, preds = tracked_case(d, l, chains, seed, amplitude, axis, direction, rho, scale,
                                                    offsets)
        hw = scale * width
        outcomes = []
        for solver in (lambda: pb.track_dominant(lattice, l, q, v, radius, preds, hw, refine=refine),
                       lambda: pb.bloch_solve(lattice, l, q, v, radius, refine=refine)):
            try:
                outcomes.append(solver())
            except WindowNotConverged:
                outcomes.append(None)
        tracked, dense = outcomes
        if dense is None or tracked is None:  # both measure the same pair's move under refinement
            assert tracked is None and dense is None
            return
        diag = tracked.diagnostics
        event(f"tracking refused: {diag['tracking_refused']}")
        if diag["eigensolver"] != "tracked":
            assert diag["tracking_refused"] in ("convergence", "weight", "window")
            assert diag["eigensolver"] in ("sparse", "dense") and len(diag["inertia_count"]) == (2 if refine else 1)
            assert_matches_dense(tracked, dense, l, q, v, preds, hw)
            return
        assert diag["tracking_refused"] is None and len(tracked) == 1
        assert diag["pairs_solved"] == (2 if refine else 1)
        lam, weight = tracked.relative_eigenvalue(0), tracked.weight(0, gamma0)
        assert weight > 0.5 and all(abs(lam - p) < hw for p in preds)
        # the dense pair's Rayleigh quotient: its own eigenvalue carries ~eps |H| of error
        n = dense.dominant_index(gamma0)
        x = dense.coefficients[n]
        H = pb.assemble(l, q, dense.t, dense.basis, shift_center=v)
        reference = float(np.real(np.vdot(x, H @ x)))
        assert abs(lam - reference) <= 1e-12 * (1.0 + abs(reference))
        assert abs(weight - dense.weight(n, gamma0)) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(**TRACKED_CASES)
    def test_warm_started_refined_pair_is_the_cold_started_pair(self, d, l, chains, seed, amplitude, axis,
                                                                direction, rho, radius, scale, offsets, width):
        # the 1.5x window starts from the inner window's pair; Davidson's method from
        # e_gamma0 on the same window must reach the same pair
        lattice, q, v, gamma0, preds = tracked_case(d, l, chains, seed, amplitude, axis, direction, rho, scale,
                                                    offsets)
        hw = scale * width
        try:
            tracked = pb.track_dominant(lattice, l, q, v, radius, preds, hw, refine=True)
        except WindowNotConverged:
            return
        if tracked.diagnostics["eigensolver"] != "tracked":
            return
        H = pb.assemble(l, q, tracked.t, tracked.basis, shift_center=v, sparse=True)
        reason, steps, cold = oracle._track_pair(H, tracked.basis, tracked.t, l, tracked.shift, gamma0, preds, hw)
        event(f"cold start refused: {reason}")
        if reason is not None:  # test_tracked_matches_dense checks the warm pair against the dense solve
            return
        event(f"refined window steps, warm <= cold: {tracked.diagnostics['track_steps'][1] <= steps}")
        lam = cold.relative_eigenvalue(0)
        assert abs(tracked.relative_eigenvalue(0) - lam) <= 1e-12 * (1.0 + abs(lam))
        assert abs(tracked.weight(0, gamma0) - cold.weight(0, gamma0)) <= 1e-10

    def test_tracked_pair_is_the_counted_dominant_pair(self, z2):
        # criterion 3's cosine pair at rho = 80 on its required window: one pair per window
        q = pb.cosine_pair(z2, (1, 0), 0.1)
        cas = scaled_cascade(20.0, known_order=3)
        u = np.array([0.78, 0.6258])
        v = 80.0 * u / np.linalg.norm(u)
        gamma0 = z2.reduce(v)[0].coords
        preds = [pb.known_part_sequence(v, 1, q, cas, k_max=3).prediction_rel(k) for k in (1, 2, 3)]
        hw = cas.matching_halfwidth()
        window = pb.required_window_radius(q, cas)
        tracked = pb.track_dominant(z2, 1, q, v, window, preds, hw, refine=True)
        counted = counted_solve(z2, 1, q, v, window, preds, hw, refine=True)
        diag = tracked.diagnostics
        assert (diag["eigensolver"], diag["tracking_refused"], diag["pairs_solved"]) == ("tracked", None, 2)
        assert diag["inertia_count"] is None and diag["dense_fallback_reason"] is None
        assert diag["certificate_move"] < 1e-20 and diag["worst_residual"] < 1e-13
        # the 1.5x window starts from the inner window's pair, which all but solves it
        assert diag["track_steps"][1] <= 2
        n = counted.dominant_index(gamma0)
        assert abs(tracked.relative_eigenvalue(0) - counted.relative_eigenvalue(n)) <= 1e-19
        assert tracked.weight(0, gamma0) == pytest.approx(counted.weight(n, gamma0), abs=1e-14)
        assert tracked.coefficient(0, gamma0).imag == 0.0 and tracked.coefficient(0, gamma0).real > 0

    def test_tracked_center_enumerates_and_assembles_once(self, z2, monkeypatch):
        # the inner window is the leading block of the 1.5x window's one enumeration and operator
        calls = {"enumerate": 0, "assemble": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pb.LatticeModel, "enumerate_shifted_ball",
                            counted("enumerate", pb.LatticeModel.enumerate_shifted_ball))
        monkeypatch.setattr(oracle, "assemble", counted("assemble", oracle.assemble))
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        centers = [np.array([5.3, 4.2]), np.array([-3.1, 6.4])]
        for v in centers:
            f1 = pb.known_part_sequence(v, 1, q, k_max=1).known_part_rel()
            spectrum = pb.track_dominant(z2, 1, q, v, 6.0, [f1], 0.01, refine=True)
            assert spectrum.diagnostics["eigensolver"] == "tracked"
            assert spectrum.diagnostics["pairs_solved"] == 2
        assert calls == {"enumerate": len(centers), "assemble": len(centers)}
        # a refused center solves the leading blocks of the same operator
        calls.update(enumerate=0, assemble=0)
        f1 = pb.known_part_sequence(centers[0], 1, q, k_max=1).known_part_rel()
        spectrum = pb.track_dominant(z2, 1, q, centers[0], 6.0, [f1 + 0.02, f1], 0.01, refine=True)
        assert spectrum.diagnostics["tracking_refused"] == "window"
        assert calls == {"enumerate": 1, "assemble": 1}

    def test_small_windows_track_on_one_blas_thread(self, z2, monkeypatch):
        # _track_pair runs on one thread up to SERIAL_TRACK_BASIS waves, the counted
        # fallback and larger windows on the caller's count, which is restored after
        before = blas_threads()
        if before is None or before < 2:
            pytest.skip("numpy's BLAS runs on one thread here, or its count cannot be read")
        seen = []

        def recorded(name, fn):
            def wrapper(*args, **kwargs):
                seen.append((name, len(args[1]), blas_threads()))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(oracle, "_track_pair", recorded("track", oracle._track_pair))
        monkeypatch.setattr(oracle, "_counted_window", recorded("counted", oracle._counted_window))
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([5.3, 4.2])
        f1 = pb.known_part_sequence(v, 1, q, k_max=1).known_part_rel()
        assert pb.track_dominant(z2, 1, q, v, 6.0, [f1], 0.01, refine=True).diagnostics["eigensolver"] == "tracked"
        (_, inner, _), (_, outer, _) = seen
        assert seen == [("track", inner, 1), ("track", outer, 1)] and blas_threads() == before
        seen.clear()
        spectrum = pb.track_dominant(z2, 1, q, v, 6.0, [f1 + 0.02, f1], 0.01, refine=True)
        assert spectrum.diagnostics["tracking_refused"] == "window"
        assert seen == [("track", inner, 1), ("counted", inner, before), ("counted", outer, before)]
        assert blas_threads() == before
        seen.clear()
        monkeypatch.setattr(oracle, "SERIAL_TRACK_BASIS", inner)
        assert pb.track_dominant(z2, 1, q, v, 6.0, [f1], 0.01, refine=True).diagnostics["eigensolver"] == "tracked"
        assert seen == [("track", inner, 1), ("track", outer, before)] and blas_threads() == before

    def refused(self, lattice, q, v, preds, hw, window=6.0):
        spec = pb.track_dominant(lattice, 1, q, v, window, preds, hw, refine=True)
        assert spec.diagnostics["eigensolver"] != "tracked"
        assert_matches_dense(spec, pb.bloch_solve(lattice, 1, q, v, window, refine=True), 1, q, v, preds, hw)
        return spec.diagnostics["tracking_refused"]

    def test_free_center_is_tracked_exactly(self, z2):
        # q = 0: e_gamma0 is an eigenvector, so the first step's Ritz pair is exact,
        # even with the prediction 0 exactly on its eigenvalue
        q = FourierPotential(z2, {})
        v = np.array([5.3, 4.2])
        gamma0 = z2.reduce(v)[0].coords
        tracked = pb.track_dominant(z2, 1, q, v, 6.0, [0.0, 0.0], 0.5, refine=True)
        counted = counted_solve(z2, 1, q, v, 6.0, [0.0, 0.0], 0.5, refine=True)
        diag = tracked.diagnostics
        assert (diag["eigensolver"], diag["tracking_refused"], diag["pairs_solved"]) == ("tracked", None, 2)
        assert diag["track_steps"] == [1, 1]
        assert tracked.relative_eigenvalue(0) == 0.0 and tracked.weight(0, gamma0) == 1.0
        n = counted.dominant_index(gamma0)
        assert counted.relative_eigenvalue(n) == 0.0 and counted.weight(n, gamma0) == 1.0

    def test_minor_weight_pair_is_refused(self, z2):
        # near the resonance v1 = -1/2, gamma0 and gamma0 + e1 mix about 60/40;
        # a shift at the 40% pair converges to it
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([-0.459, 4.2])
        full = pb.bloch_solve(z2, 1, q, v, 6.0)
        weights = np.abs(full.coefficients[:, full.position(z2.reduce(v)[0].coords)]) ** 2
        minor = np.argsort(weights)[-2]
        assert 0.3 < weights[minor] < 0.5
        assert self.refused(z2, q, v, [full.relative_eigenvalue(minor)], 0.01) == "weight"

    def test_center_on_a_resonance_plane_is_refused(self, z2):
        # v1 = -1/2 exactly: gamma0 and gamma0 + e1 share the diagonal entry 0, so
        # the first correction divides by a zero diag H - theta; the pairs mix 50/50
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        assert self.refused(z2, q, np.array([-0.5, 4.2]), [0.2], 0.5) == "weight"

    def test_pair_outside_one_order_window_is_refused(self, z2):
        # the highest order finds the dominant pair, which the first order's window misses
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([5.3, 4.2])
        f1 = pb.known_part_sequence(v, 1, q, k_max=1).known_part_rel()
        assert self.refused(z2, q, v, [f1 + 0.02, f1], 0.01) == "window"

    def test_residual_stalled_at_rounding_is_tracked(self, z2):
        # a 9-wave window whose dominant pair (weight 0.83) spreads over it: the residual
        # stalls within the rounding of its own evaluation, above 1e-16 ||H||_1, the stop
        # that alone refused the window as "convergence"
        q = pb.random_potential(24066, 2, 1.5, 0.0, 0.9781030510583639, lattice=z2)
        v, radius = np.array([3.3994398659760097, -0.2054366877004561]), 1.7235301597834696
        gamma0 = z2.reduce(v)[0].coords
        full = pb.bloch_solve(z2, 1, q, v, radius)
        lam = full.relative_eigenvalue(full.dominant_index(gamma0))
        tracked = pb.track_dominant(z2, 1, q, v, radius, [lam], 0.05)
        counted = counted_solve(z2, 1, q, v, radius, [lam], 0.05)
        assert len(counted.basis) == 9
        assert (tracked.diagnostics["eigensolver"], tracked.diagnostics["tracking_refused"]) == ("tracked", None)
        n = counted.dominant_index(gamma0)
        x = counted.coefficients[n]
        reference = float(np.real(np.vdot(x, pb.assemble(1, q, counted.t, counted.basis, shift_center=v) @ x)))
        assert abs(tracked.relative_eigenvalue(0) - reference) <= 1e-12 * (1.0 + abs(reference))
        assert abs(tracked.weight(0, gamma0) - counted.weight(n, gamma0)) <= 1e-12

    def test_solve_cap_is_refused(self, z2, monkeypatch):
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([5.3, 4.2])
        f1 = pb.known_part_sequence(v, 1, q, k_max=1).known_part_rel()
        assert pb.track_dominant(z2, 1, q, v, 6.0, [f1], 0.01, refine=True).diagnostics["eigensolver"] == "tracked"
        monkeypatch.setattr(oracle, "_TRACK_STEPS", 1)
        assert self.refused(z2, q, v, [f1], 0.01) == "convergence"

    def test_slow_convergence_within_the_cap_is_tracked(self, monkeypatch):
        # a 19-wave window at d = 3 whose residual falls about tenfold per step and
        # reaches 1e-16 ||H||_1 at step 15: a 12-step cap refused it as "convergence"
        lattice = pb.LatticeModel.cubic(3)
        q = pb.random_potential(64727, 3, 1.0, 0.0, 0.23694736248191073, lattice=lattice)
        u = np.array([0.56416212087482, -0.45656199529368235, 0.1315094616701118]) + 1e-3
        v, radius = 4.93804523967398 * u / np.linalg.norm(u), 1.69967725815301
        preds, hw = [0.11254585692981786], 0.16439107790019175
        gamma0 = lattice.reduce(v)[0].coords
        tracked = pb.track_dominant(lattice, 1, q, v, radius, preds, hw)
        assert (tracked.diagnostics["eigensolver"], tracked.diagnostics["tracking_refused"]) == ("tracked", None)
        dense = pb.bloch_solve(lattice, 1, q, v, radius)
        assert len(dense.basis) == 19
        n = dense.dominant_index(gamma0)
        x = dense.coefficients[n]
        reference = float(np.real(np.vdot(x, pb.assemble(1, q, dense.t, dense.basis, shift_center=v) @ x)))
        assert abs(tracked.relative_eigenvalue(0) - reference) <= 1e-12 * (1.0 + abs(reference))
        assert abs(tracked.weight(0, gamma0) - dense.weight(n, gamma0)) <= 1e-10
        monkeypatch.setattr(oracle, "_TRACK_STEPS", 12)
        assert pb.track_dominant(lattice, 1, q, v, radius, preds, hw).diagnostics["tracking_refused"] == "convergence"


def window_operator(lattice, l, q, v, radius):
    """Basis, t, shift and sparse relative-frame operator of the window around v."""
    t = lattice.reduce(v)[1].reduced
    basis = PlanewaveBasis.window(lattice, t, v, radius)
    H = pb.assemble(l, q, t, basis, shift_center=v, sparse=True)
    return basis, t, float(v @ v) ** l, H


class TestSparseSlice:
    """The inertia-counted shift-invert solve against the full dense eigh.

    Convention: the inertia count nu(s) is the number of eigenvalues below s,
    so an interval solve returns the pairs in [lo, hi).  An eigenvalue on an
    endpoint makes a pivot vanish, which the pivot guard sends to the dense
    solve of the whole block.
    """

    @settings(max_examples=100, deadline=None)
    @given(d=st.sampled_from([2, 3]), l=st.sampled_from([1, 2]), chains=st.booleans(),
           seed=st.integers(0, 2**16), amplitude=st.floats(0.05, 1.0), axis=st.integers(0, 2),
           direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), rho=st.floats(2.0, 6.0),
           radius=st.floats(1.5, 3.0), scale=st.sampled_from([0.5, 5.0, 50.0]),
           middle=st.floats(-1.0, 1.0), width=st.floats(1e-3, 1.0))
    @example(d=2, l=1, chains=True, seed=0, amplitude=0.3, axis=0, direction=[0.78, 0.6258, 0.0], rho=5.0,
             radius=3.0, scale=0.5, middle=0.0, width=1.0)
    def test_slice_matches_dense(self, d, l, chains, seed, amplitude, axis, direction, rho, radius,
                                 scale, middle, width):
        lattice = pb.LatticeModel.cubic(d)
        if chains:  # rank-1 support: the operator splits into decoupled chains
            q = pb.cosine_pair(lattice, np.eye(d, dtype=int)[axis % d], amplitude)
        else:
            q = pb.random_potential(seed, d, 1.0, 0.0, amplitude, lattice=lattice)
        u = np.array(direction[:d]) + 1e-3
        v = rho * u / np.linalg.norm(u)
        gamma0 = lattice.reduce(v)[0].coords
        basis, t, shift, H = window_operator(lattice, l, q, v, radius)
        lo, hi = scale * (middle - width), scale * (middle + width)
        dense = H.toarray()
        lam, W = np.linalg.eigh(dense)
        count, reason, pairs = oracle._window_pairs(H.tocsc(), lo, hi)
        if reason is not None:
            assert reason in ("pivot", "count")
            # the fallback is the dense eigh of the same block, in full
            fallback = oracle._counted_window(H, basis, t, l, shift, lo, hi, gamma0)
            assert fallback[:2] == (count, reason)
            assert np.array_equal(fallback[2].eigenvalues_rel, lam)
        # eigh's own eigenvalues are good to ~eps |H|, which exceeds the tolerance
        # when |H| passes a few thousand; the Rayleigh quotients of its vectors are
        # good to |residual|^2 / gap
        lam = np.real(np.vecdot(W, dense @ W, axis=0))
        order = np.argsort(lam, kind="stable")
        lam, W = lam[order], W[:, order]
        tol = 1e-12 * (1.0 + np.abs(lam))
        inside = (lo <= lam) & (lam < hi)
        clear = not np.any((np.abs(lam - lo) <= tol) | (np.abs(lam - hi) <= tol))
        if reason is None:
            evals, X, _ = pairs
            assert len(evals) == count
            assert np.all((lo <= evals) & (evals < hi))
        if not clear:  # an eigenvalue within rounding of an endpoint may fall on either side
            return
        if count is not None:
            assert count == np.count_nonzero(inside)
        if reason is not None:
            return
        idx = np.flatnonzero(inside)
        assert np.all(np.abs(evals - lam[idx]) <= tol[idx])
        # weights on gamma0 of well-separated pairs, whose vectors are fixed to ~eps |H| / gap
        pos = basis.positions(gamma0)[0]
        gaps = np.abs(lam[:, None] - lam[None, :]) + np.diag(np.full(len(lam), np.inf))
        separated = gaps.min(axis=1)[idx] > 1e-4 * np.linalg.norm(dense, 2)
        w_dense = np.abs(W[pos, idx]) ** 2
        w_part = np.abs(X[pos]) ** 2
        assert np.all(np.abs(w_part - w_dense)[separated] <= 1e-10)
        if len(evals) and w_part.max() > 0.5:
            assert idx[int(np.argmax(w_part))] == int(np.argmax(np.abs(W[pos]) ** 2))

    @pytest.mark.parametrize("offset", [0.0, 1e-13])
    def test_endpoint_on_free_eigenvalue_takes_pivot_guard(self, z2, offset):
        # q = 0: the eigenvalues are the diagonal, and lo on one of them leaves
        # a zero (or sub-floor) pivot whose sign is meaningless
        v = np.array([5.3, 4.2])
        basis, t, shift, H = window_operator(z2, 1, FourierPotential(z2, {}), v, 3.0)
        lam = np.sort(H.diagonal().real)
        lo, hi = lam[3] + offset, lam[9]
        count, reason, spec = oracle._counted_window(H, basis, t, 1, shift, lo, hi, z2.reduce(v)[0].coords)
        assert (count, reason) == (None, "pivot")
        assert np.array_equal(spec.eigenvalues_rel, lam)

    def test_off_diagonal_pivot_takes_pivot_guard(self, z2):
        # H - lo I has a zero diagonal coupled off the diagonal: SuperLU must
        # pivot off the diagonal, perm_r != perm_c, and there is no LDL^H to count
        import scipy.sparse

        basis = PlanewaveBasis.full_ball(z2, 1.5)
        H = np.diag([0.0, 0.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]).astype(complex)
        H[0, 1] = H[1, 0] = 1.0
        _, reason, spec = oracle._counted_window(scipy.sparse.csc_array(H), basis, np.zeros(2), 1, 0.0, 0.0, 3.5,
                                                 basis.coords[0])
        assert reason == "pivot"
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])

    def test_count_near_basis_size_takes_count_guard(self, z2):
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([5.3, 4.2])
        basis, t, shift, H = window_operator(z2, 1, q, v, 1.5)
        lam = np.linalg.eigh(H.toarray())[0]
        count, reason, spec = oracle._counted_window(H, basis, t, 1, shift, lam[1] - 0.5, lam[-1] + 1.0,
                                                     z2.reduce(v)[0].coords)
        assert (count, reason) == (len(basis) - 1, "count")
        assert np.array_equal(spec.eigenvalues_rel, lam)

    def test_pair_outside_interval_takes_count_guard(self, z2, monkeypatch):
        # a Lanczos solve that returns the wrong pair: its Rayleigh quotient
        # lies outside the interval, so the dense solve supplies the pairs
        import scipy.sparse.linalg

        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([5.3, 4.2])
        basis, t, shift, H = window_operator(z2, 1, q, v, 6.0)
        lam, W = np.linalg.eigh(H.toarray())
        n = int(np.argmin(np.abs(lam)))
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lambda A, k, **kw: (lam[n + 5:n + 5 + k], W[:, n + 5:n + 5 + k]))
        count, reason, spec = oracle._counted_window(H, basis, t, 1, shift, lam[n] - 1e-3, lam[n] + 1e-3,
                                                     z2.reduce(v)[0].coords)
        assert (count, reason) == (1, "count")
        assert np.array_equal(spec.eigenvalues_rel, lam)

    def test_counted_fallback_reports_the_guard(self, z2):
        v = np.array([5.3, 4.2])
        spec = counted_solve(z2, 1, FourierPotential(z2, {}), v, 3.0, [0.0], 1.0, refine=True)
        diag = spec.diagnostics
        # the counts hold gamma0 (at 0) and gamma0 + (-1, 1) (at -0.2); the free
        # eigenvalue at the shift sits exactly on the midpoint 0
        assert (diag["eigensolver"], diag["dense_fallback_reason"]) == ("dense", "pivot")
        assert diag["inertia_count"] == [2, 2]
        gamma0 = z2.reduce(v)[0].coords
        assert spec.relative_eigenvalue(spec.dominant_index(gamma0)) == 0.0

    def test_rerun_is_byte_identical(self, z2):
        q = pb.random_potential(3, 2, 1.5, 0.0, 0.5, lattice=z2)
        v = np.array([7.1, 3.3])
        first, second = (counted_solve(z2, 1, q, v, 5.0, [0.0], 2.0, refine=True) for _ in range(2))
        assert first.diagnostics["eigensolver"] == "sparse"
        assert first.eigenvalues_rel.tobytes() == second.eigenvalues_rel.tobytes()
        assert first.coefficients.tobytes() == second.coefficients.tobytes()


def test_import_and_full_solves_leave_scipy_sparse_unloaded():
    # scipy.sparse.linalg adds ~30 MB of resident memory; only counted solves and
    # simplicity verdicts may pay it, not the simplicity set-up path (known parts,
    # the competitor set and the dense block)
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import polybloch as pb\n"
        "lat = pb.LatticeModel.cubic(2)\n"
        "q = pb.cosine_pair(lat, (1, 0), 0.2)\n"
        "pb.bloch_solve(lat, 1, q, np.array([5.3, 4.2]), 4.0, refine=True)\n"
        "pb.band_functions(lat, 1, q, (8, 8), 4, basis_radius=3.0)\n"
        "cas = pb.derive_parameters(2, 1, 45.0, 20.0, mode='scaled',\n"
        "                           overrides={'v_thresholds': [2.0, 4.0, 8.0], 'pool_radius': 3.0})\n"
        "v = 20.0 * np.array([0.78, 0.6258]) / np.linalg.norm([0.78, 0.6258])\n"
        "f = pb.known_part(v, 1, q, cas).value\n"
        "assert pb.k_set(lat, v, lat.reduce(v)[1].reduced, cas, 1, q, f_value=f)\n"
        "iset = pb.build_index_set(lat, np.array([0.5, 10.0]), [lat.vector((0, 1))], cas)\n"
        "pb.assemble_block(iset, 1, q)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_tracked_order_sweep_loads_no_scipy():
    # a tracked center multiplies by the numpy window operator and factors and
    # Lanczos-solves nothing, so only a refused center pays for scipy.sparse (~22 MB)
    # and scipy.sparse.linalg (~30 MB)
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import polybloch as pb\n"
        "lat = pb.LatticeModel.cubic(2)\n"
        "q = pb.cosine_pair(lat, (1, 0), 0.1)\n"
        "cas = pb.derive_parameters(2, 1, 45.0, 20.0, mode='scaled', overrides={\n"
        "    'v_thresholds': [2.0, 4.0, 8.0], 'pool_radius': 3.0, 'known_order': 3})\n"
        "u = np.array([0.78, 0.6258]) / np.linalg.norm([0.78, 0.6258])\n"
        "table = pb.order_sweep(lat, 1, q, [20.0 * u, 40.0 * u], [1, 2, 3], cas)\n"
        "assert [d['eigensolver'] for d in table.diagnostics] == ['tracked', 'tracked']\n"
        "print('scipy' in sys.modules, any(m.startswith('scipy.') for m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False False"
