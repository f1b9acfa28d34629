import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import polybloch as pb
from polybloch import oracle
from polybloch.errors import PartitionBreakdown, PreconditionError, WindowNotConverged
from polybloch.lattice import CoordinateIndex
from polybloch.oracle import PlanewaveBasis
from polybloch.potential import FourierPotential

from conftest import blas_threads, free_eigenvalues, scaled_cascade

REPO = Path(__file__).resolve().parents[1]


def two_state_basis(z2):
    return PlanewaveBasis(z2, [(0, 0), (1, 0)])


def assert_is_bloch_solve(spectrum, dense):
    """spectrum is track_dominant's dense fallback: dense, bloch_solve's spectrum, bit for bit."""
    diag = dict(spectrum.diagnostics)
    assert diag.pop("tracking_refused") in ("convergence", "weight", "window")
    del diag["track_steps"]
    assert diag == dense.diagnostics and diag["eigensolver"] == "dense"
    assert spectrum.eigenvalues_rel.tobytes() == dense.eigenvalues_rel.tobytes()
    assert spectrum.coefficients.tobytes() == dense.coefficients.tobytes()


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
        spec = pb.diagonalize(H, basis, t, 1, 0.0)
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        assert np.allclose(spec.eigenvalues, np.sort(np.diag(H).real))
        # coefficient table is a permutation matrix
        assert np.allclose(np.abs(spec.coefficients) @ np.abs(spec.coefficients).T, np.eye(len(basis)), atol=1e-12)

    def test_symmetric_2x2(self, z2):
        basis = two_state_basis(z2)
        spec = pb.diagonalize(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), basis, [0.0, 0.0], 1, 0.0)
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])

    def test_closed_form_2x2(self, z2, cosine):
        H = pb.assemble(1, cosine, [0.3, 0.0], two_state_basis(z2))
        spec = pb.diagonalize(H, two_state_basis(z2), [0.3, 0.0], 1, 0.0)
        mean, disc = 0.89, np.sqrt(0.64 + 1.0)
        assert spec.eigenvalues[0] == pytest.approx(mean - disc, abs=1e-10)
        assert spec.eigenvalues[1] == pytest.approx(mean + disc, abs=1e-10)

    def test_parseval_rows(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.3)
        basis = PlanewaveBasis.full_ball(z2, 3.2)
        t = np.array([0.21, 0.37])
        spec = pb.solve(z2, 1, q, t, basis, np.zeros(2))
        norms = np.sum(np.abs(spec.coefficients) ** 2, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-10)

    def test_trace_identity(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.3)
        basis = PlanewaveBasis.full_ball(z2, 3.2)
        t = np.array([0.21, 0.37])
        spec = pb.solve(z2, 1, q, t, basis, np.zeros(2))
        free = free_eigenvalues(z2, t, 1, basis)
        assert np.sum(spec.eigenvalues) == pytest.approx(np.sum(free), rel=1e-8)

    def test_perturbation_bound(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.3)
        basis = PlanewaveBasis.full_ball(z2, 3.2)
        t = np.array([0.21, 0.37])
        spec = pb.solve(z2, 1, q, t, basis, np.zeros(2))
        free = free_eigenvalues(z2, t, 1, basis)
        assert np.max(np.abs(spec.eigenvalues - free)) <= q.one_norm() + 1e-12

    def test_cluster_flags_on_degeneracy(self, z2):
        # t = 0: |gamma+t|^2 degenerate for the four unit vectors
        basis = PlanewaveBasis.full_ball(z2, 1.5)
        t = np.zeros(2)
        spec = pb.solve(z2, 1, FourierPotential(z2, {}), t, basis, np.zeros(2))
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
        # bloch_solve takes t from lattice.split(v); a given t goes through the same split
        with pytest.raises(ValueError, match="own index"):
            pb.build_index_set(z2, [5.3, 4.2], [z2.vector((1, 0))], b_radius=1.0, a_radius=1.0,
                               t=np.array([0.1, 0.1]))

    def test_center_1e6_off_the_lattice_is_a_precondition_error(self, z2):
        v = np.array([5.3, 4.2])
        t = v - np.array([5.0, 4.0]) + np.array([1e-6, 0.0])
        with pytest.raises(PreconditionError, match="not a dual lattice vector"):
            z2.split(v, t)
        # the exact split puts gamma0 in every window of radius >= 0
        gamma0, t = z2.split(v, t - [1e-6, 0.0])
        assert PlanewaveBasis.window(z2, t, v, 0.0).coords.tolist() == [list(gamma0.coords)]

    def test_negative_window_is_a_precondition_error(self, z2):
        with pytest.raises(PreconditionError, match="window excludes the center's own index"):
            pb.bloch_solve(z2, 1, FourierPotential(z2, {}), [5.3, 4.2], -1.0)

    def test_window_beyond_the_dense_bound_is_a_precondition_error(self, z2, monkeypatch):
        # the bound is checked before the dense matrix is allocated, for full solves
        # and for a tracked window's dense fallback alike
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([5.3, 4.2])
        n = len(pb.bloch_solve(z2, 1, q, v, 3.0).basis)
        monkeypatch.setattr(oracle, "MAX_DENSE_BASIS", n)
        pb.bloch_solve(z2, 1, q, v, 3.0)
        monkeypatch.setattr(oracle, "MAX_DENSE_BASIS", n - 1)
        with pytest.raises(PreconditionError, match=f"{n} plane waves: a dense solve takes at most {n - 1}"):
            pb.bloch_solve(z2, 1, q, v, 3.0)
        f1 = pb.known_part_sequence(v, 1, q, k_max=1).known_part_rel()
        assert pb.track_dominant(z2, 1, q, v, 3.0, [f1], 0.01).diagnostics["eigensolver"] == "tracked"
        with pytest.raises(PreconditionError, match=f"a dense matrix of {n} plane waves"):
            pb.track_dominant(z2, 1, q, v, 3.0, [f1 + 0.02, f1], 0.01)

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
        q = pb.random_potential(seed, lattice, 1.0, 0.0, amplitude)
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
            assert_is_bloch_solve(tracked, dense)
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
        # the unrefined solve on the 1.5x radius is that window's cold start, under the same prediction windows
        cold = pb.track_dominant(lattice, l, q, v, radius * 1.5, preds, hw)
        assert np.array_equal(cold.basis.coords, tracked.basis.coords)
        event(f"cold start refused: {cold.diagnostics['tracking_refused']}")
        if cold.diagnostics["eigensolver"] != "tracked":  # test_tracked_matches_dense checks the warm pair
            return
        steps = cold.diagnostics["track_steps"][0]
        event(f"refined window steps, warm <= cold: {tracked.diagnostics['track_steps'][1] <= steps}")
        lam = cold.relative_eigenvalue(0)
        assert abs(tracked.relative_eigenvalue(0) - lam) <= 1e-12 * (1.0 + abs(lam))
        assert abs(tracked.weight(0, gamma0) - cold.weight(0, gamma0)) <= 1e-10

    def test_tracked_pair_is_the_dense_dominant_pair(self, z2):
        # criterion 3's cosine pair at rho = 80 on its required window: one pair per window,
        # against the Rayleigh quotient of the inner window's dense dominant pair (901 waves)
        q = pb.cosine_pair(z2, (1, 0), 0.1)
        cas = scaled_cascade(20.0, known_order=3)
        u = np.array([0.78, 0.6258])
        v = 80.0 * u / np.linalg.norm(u)
        gamma0 = z2.reduce(v)[0].coords
        preds = [pb.known_part_sequence(v, 1, q, cas, k_max=3).prediction_rel(k) for k in (1, 2, 3)]
        hw = cas.matching_halfwidth()
        window = pb.required_window_radius(q, cas)
        tracked = pb.track_dominant(z2, 1, q, v, window, preds, hw, refine=True)
        dense = pb.bloch_solve(z2, 1, q, v, window)
        assert len(dense.basis) == 901
        diag = tracked.diagnostics
        assert (diag["eigensolver"], diag["tracking_refused"], diag["pairs_solved"]) == ("tracked", None, 2)
        assert diag["certificate_move"] < 1e-20 and diag["worst_residual"] < 1e-13
        # the 1.5x window starts from the inner window's pair, which all but solves it
        assert diag["track_steps"][1] <= 2
        n = dense.dominant_index(gamma0)
        x = dense.coefficients[n]
        reference = float(np.real(np.vdot(x, pb.assemble(1, q, dense.t, dense.basis, shift_center=v) @ x)))
        assert abs(tracked.relative_eigenvalue(0) - reference) <= 1e-19
        assert tracked.weight(0, gamma0) == pytest.approx(dense.weight(n, gamma0), abs=1e-14)
        assert tracked.coefficient(0, gamma0).imag == 0.0 and tracked.coefficient(0, gamma0).real > 0

    def test_tracked_center_enumerates_and_assembles_once(self, z2, monkeypatch):
        # every center's windows translate the table's one origin window: one enumeration,
        # one coupling table and one coordinate index per table and radius, and one
        # assemble per window, which reads the origin window's couplings
        calls = {"enumerate": 0, "assemble": 0, "couplings": 0, "index": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pb.LatticeModel, "enumerate_shifted_ball",
                            counted("enumerate", pb.LatticeModel.enumerate_shifted_ball))
        monkeypatch.setattr(oracle, "assemble", counted("assemble", oracle.assemble))
        monkeypatch.setattr(FourierPotential, "_coupling_table",
                            counted("couplings", FourierPotential._coupling_table))
        monkeypatch.setattr(CoordinateIndex, "__init__", counted("index", CoordinateIndex.__init__))
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        centers = [np.array([5.3, 4.2]), np.array([-3.1, 6.4])]
        for v in centers:
            f1 = pb.known_part_sequence(v, 1, q, k_max=1).known_part_rel()
            spectrum = pb.track_dominant(z2, 1, q, v, 6.0, [f1], 0.01, refine=True)
            assert spectrum.diagnostics["eigensolver"] == "tracked"
            assert spectrum.diagnostics["pairs_solved"] == 2
        assert calls == {"enumerate": 1, "assemble": 2 * len(centers), "couplings": 1, "index": 1}
        # a refused center solves the same two operators by dense eigh
        calls.update(enumerate=0, assemble=0, couplings=0, index=0)
        f1 = pb.known_part_sequence(centers[0], 1, q, k_max=1).known_part_rel()
        spectrum = pb.track_dominant(z2, 1, q, centers[0], 6.0, [f1 + 0.02, f1], 0.01, refine=True)
        assert spectrum.diagnostics["tracking_refused"] == "window"
        assert calls == {"enumerate": 0, "assemble": 2, "couplings": 0, "index": 0}

    def test_small_windows_track_on_one_blas_thread(self, z2, monkeypatch):
        # _track_pair runs on one thread up to SERIAL_TRACK_BASIS waves, the dense
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
        monkeypatch.setattr(oracle, "diagonalize", recorded("dense", oracle.diagonalize))
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([5.3, 4.2])
        f1 = pb.known_part_sequence(v, 1, q, k_max=1).known_part_rel()
        assert pb.track_dominant(z2, 1, q, v, 6.0, [f1], 0.01, refine=True).diagnostics["eigensolver"] == "tracked"
        (_, inner, _), (_, outer, _) = seen
        assert seen == [("track", inner, 1), ("track", outer, 1)] and blas_threads() == before
        seen.clear()
        spectrum = pb.track_dominant(z2, 1, q, v, 6.0, [f1 + 0.02, f1], 0.01, refine=True)
        assert spectrum.diagnostics["tracking_refused"] == "window"
        assert seen == [("track", inner, 1), ("dense", inner, before), ("dense", outer, before)]
        assert blas_threads() == before
        seen.clear()
        monkeypatch.setattr(oracle, "SERIAL_TRACK_BASIS", inner)
        assert pb.track_dominant(z2, 1, q, v, 6.0, [f1], 0.01, refine=True).diagnostics["eigensolver"] == "tracked"
        assert seen == [("track", inner, 1), ("track", outer, before)] and blas_threads() == before

    def refused(self, lattice, q, v, preds, hw, window=6.0):
        spec = pb.track_dominant(lattice, 1, q, v, window, preds, hw, refine=True)
        assert_is_bloch_solve(spec, pb.bloch_solve(lattice, 1, q, v, window, refine=True))
        return spec.diagnostics["tracking_refused"]

    def test_free_center_is_tracked_exactly(self, z2):
        # q = 0: e_gamma0 is an eigenvector, so the first step's Ritz pair is exact,
        # even with the prediction 0 exactly on its eigenvalue
        q = FourierPotential(z2, {})
        v = np.array([5.3, 4.2])
        gamma0 = z2.reduce(v)[0].coords
        tracked = pb.track_dominant(z2, 1, q, v, 6.0, [0.0, 0.0], 0.5, refine=True)
        dense = pb.bloch_solve(z2, 1, q, v, 6.0, refine=True)
        diag = tracked.diagnostics
        assert (diag["eigensolver"], diag["tracking_refused"], diag["pairs_solved"]) == ("tracked", None, 2)
        assert diag["track_steps"] == [1, 1]
        assert tracked.relative_eigenvalue(0) == 0.0 and tracked.weight(0, gamma0) == 1.0
        n = dense.dominant_index(gamma0)
        assert dense.relative_eigenvalue(n) == 0.0 and dense.weight(n, gamma0) == 1.0

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
        q = pb.random_potential(24066, z2, 1.5, 0.0, 0.9781030510583639)
        v, radius = np.array([3.3994398659760097, -0.2054366877004561]), 1.7235301597834696
        gamma0 = z2.reduce(v)[0].coords
        full = pb.bloch_solve(z2, 1, q, v, radius)
        lam = full.relative_eigenvalue(full.dominant_index(gamma0))
        tracked = pb.track_dominant(z2, 1, q, v, radius, [lam], 0.05)
        assert len(full.basis) == 9
        assert (tracked.diagnostics["eigensolver"], tracked.diagnostics["tracking_refused"]) == ("tracked", None)
        n = full.dominant_index(gamma0)
        x = full.coefficients[n]
        reference = float(np.real(np.vdot(x, pb.assemble(1, q, full.t, full.basis, shift_center=v) @ x)))
        assert abs(tracked.relative_eigenvalue(0) - reference) <= 1e-12 * (1.0 + abs(reference))
        assert abs(tracked.weight(0, gamma0) - full.weight(n, gamma0)) <= 1e-12

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
        q = pb.random_potential(64727, lattice, 1.0, 0.0, 0.23694736248191073)
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


# translate frame against complex frame: random Hermitian tables on up to d + 1 short
# +- pairs (with an even translate or without), d = 2, 3, cubic and oblique lattices
FRAME_LATTICES = {"Z2": np.eye(2), "Z3": np.eye(3), "oblique2": np.array([[1.0, 0.0], [0.37, 1.21]]),
                  "oblique3": np.array([[1.0, 0.0, 0.0], [0.31, 1.13, 0.0], [0.17, -0.29, 0.91]])}


@st.composite
def frame_cases(draw):
    """(lattice, q, l, v, radius, refine, predictions, halfwidth) for one window solve."""
    lattice = pb.LatticeModel(2 * np.pi * FRAME_LATTICES[draw(st.sampled_from(sorted(FRAME_LATTICES)))])
    d = lattice.dimension
    # one g of each +- pair in the box |g_i| <= 1; d + 1 pairs are dependent, and a translate then needs matching phases
    candidates = [g for g in itertools.product((-1, 0, 1), repeat=d) if g > (0,) * d]
    n = draw(st.integers(1, d + 1))
    pairs = draw(st.lists(st.sampled_from(candidates), min_size=n, max_size=n, unique=True))
    table = {}
    for g, (r, phase) in zip(pairs, draw(st.lists(st.tuples(st.floats(0.05, 0.5), st.floats(-np.pi, np.pi)),
                                                  min_size=len(pairs), max_size=len(pairs)))):
        table[g] = r * np.exp(1j * phase)
        table[tuple(-c for c in g)] = np.conj(table[g])
    q = FourierPotential(lattice, table)
    l = draw(st.sampled_from([1, 2]))
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))) + 1e-3
    v = draw(st.floats(3.0, 6.0)) * u / np.linalg.norm(u)
    radius = q.support_radius + draw(st.floats(0.5, 1.5))
    hw = draw(st.sampled_from([0.01, 0.1, 1.0]))
    preds = [first_order_shift(q, v, l) + hw * draw(st.floats(-0.5, 0.5))]
    return lattice, q, l, v, radius, draw(st.booleans()), preds, hw


def first_order_shift(q, v, l):
    """The first-order level shift of gamma0's plane wave, relative to |v|^{2l}."""
    shift = float(v @ v) ** l
    gaps = [shift - float(np.sum((v + e) ** 2)) ** l for e in q.support_embeddings]
    return sum(abs(q.coefficient(g)) ** 2 / gap for g, gap in zip(q.support, gaps) if gap)


def in_complex_frame(q):
    """q's own table, whose windows are solved as given, translate or not: in complex arithmetic
    unless its coefficients are real."""
    own = FourierPotential(q.lattice, {g: q.coefficient(g) for g in q.support}, q.smoothness)
    own._eigenvalue_table = own
    return own


def dominant_pair(spectrum, gamma0, H):
    """(Rayleigh quotient on q's operator H, weight, row with a real positive entry on gamma0,
    distance to the nearest other eigenvalue) of the pair dominated by gamma0."""
    n, pos = spectrum.dominant_index(gamma0), spectrum.position(gamma0)
    x = spectrum.coefficients[n]
    others = np.delete(spectrum.eigenvalues_rel, n)
    gap = float(np.min(np.abs(others - spectrum.eigenvalues_rel[n]), initial=np.inf))
    return float(np.real(np.vdot(x, H @ x))), abs(x[pos]) ** 2, x * (abs(x[pos]) / x[pos]), gap


@settings(max_examples=100, deadline=None)
@given(frame_cases())
def test_translate_frame_solves_are_the_complex_frame_solves(case):
    # the same windows, solved through q's even translate in float64 and mapped back
    # (x = conj(D) y), and solved in q's own complex frame: one eigenvalue, weight and row
    lattice, q, l, v, radius, refine, preds, hw = case
    own = in_complex_frame(q)
    real = q.eigenvalue_table().is_real
    event(f"even translate: {real}")
    gamma0 = lattice.split(v)[0].coords
    try:
        dense = [pb.bloch_solve(lattice, l, p, v, radius, refine=refine) for p in (q, own)]
    except WindowNotConverged:
        return
    tracked = [pb.track_dominant(lattice, l, p, v, radius, preds, hw, refine=refine) for p in (q, own)]
    assert [s.diagnostics["real_symmetric"] for s in dense + tracked] == [real, own.is_real, real, own.is_real]
    # dense eigenvalues agree only to ~eps ||H|| (backward error), their Rayleigh quotients on q's own
    # operator to second order in it; a tracked pair is Davidson's own Rayleigh quotient
    H = pb.assemble(l, q, dense[0].t, dense[0].basis, shift_center=v)
    (lam, weight, row, gap), (lam_c, weight_c, row_c, _) = (dominant_pair(s, gamma0, H) for s in dense)
    assert abs(lam - lam_c) <= 1e-12 * (1.0 + abs(lam_c))
    # a pair nearer than this to another is not determined to 1e-10 by a backward-stable solve
    isolated = gap >= 1e-4 * np.max(np.sum(np.abs(H), axis=0))
    event(f"dominant pair isolated: {isolated}")
    if isolated:
        assert abs(weight - weight_c) <= 1e-10 and np.max(np.abs(row - row_c)) <= 1e-10
    solvers = [s.diagnostics["eigensolver"] for s in tracked]
    event(f"window solvers: {solvers}")
    if solvers != ["tracked", "tracked"]:
        return
    first, second = tracked
    lam_t = second.relative_eigenvalue(0)
    assert abs(first.relative_eigenvalue(0) - lam_t) <= 1e-12 * (1.0 + abs(lam_t))
    if isolated:
        assert abs(first.weight(0, gamma0) - second.weight(0, gamma0)) <= 1e-10
        assert np.max(np.abs(first.coefficients[0] - second.coefficients[0])) <= 1e-10
        if real:  # D is 1 on gamma0: the float64 pair's entry there stays real positive
            assert first.coefficient(0, gamma0).imag == 0.0 and first.coefficient(0, gamma0).real > 0


def test_window_diagnostics_say_which_arithmetic_ran(z2, monkeypatch):
    # two independent complex pairs have an even translate, whose windows are solved in
    # float64; a third pair in the plane whose phase does not match leaves none, and q's
    # own complex windows are solved.  Tracked, refused and dense solves all say which ran.
    dtypes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: (dtypes.append(a.dtype), eigh(a, *args, **kw))[1])
    v = np.array([5.3, 4.2])
    values = [0.2 * np.exp(0.7j), 0.15 * np.exp(-1.1j), 0.1 * np.exp(0.4j)]
    for pairs, real in (([(1, 0), (0, 1)], True), ([(1, 0), (0, 1), (1, 1)], False)):
        table = {g: z for g, z in zip(pairs, values)}
        table.update({(-g[0], -g[1]): np.conj(z) for g, z in zip(pairs, values)})
        q = FourierPotential(z2, table)
        assert (q.even_translate() is not None) == real
        f1 = pb.known_part_sequence(v, 1, q, k_max=1).known_part_rel()
        dtypes.clear()
        spectra = [pb.track_dominant(z2, 1, q, v, 6.0, [f1], 0.01, refine=True),
                   pb.track_dominant(z2, 1, q, v, 6.0, [f1 + 0.02, f1], 0.01, refine=True),
                   pb.bloch_solve(z2, 1, q, v, 6.0, refine=True)]
        assert [s.diagnostics["eigensolver"] for s in spectra] == ["tracked", "dense", "dense"]
        assert [s.diagnostics["real_symmetric"] for s in spectra] == [real] * 3
        assert set(dtypes) == {np.dtype(float if real else complex)}
        assert all(s.coefficients.dtype == complex for s in spectra)


def test_ordinary_nonresonant_centers_are_tracked(z2):
    # the dense fallback serves refusals, not ordinary traffic: seeded non-resonant
    # centers of generic tables at rho = 20, on their required windows (901 and 2,053
    # waves at support 1 on Z^2, 1,813 and 4,085 at 1.5; 20,479 and 69,599 on Z^3), track
    rng = np.random.default_rng(0)
    for lattice, supports, seeds, per in ((z2, (1.0, 1.5), range(3), 2), (pb.LatticeModel.cubic(3), (1.0,), [0], 1)):
        d = lattice.dimension
        cas = scaled_cascade(20.0, d=d, thresholds=(2.0, 4.0, 8.0, 16.0), known_order=2, a_radius=1.2)
        pool = pb.direction_pool(lattice, cas)
        for support in supports:
            for seed in seeds:
                q = pb.random_potential(seed, lattice, support, 0.0, 0.1)
                tracked = 0
                while tracked < per:
                    u = rng.standard_normal(d)
                    v = 20.0 * u / np.linalg.norm(u)
                    try:
                        resonant = pb.classify(lattice, v, cas, pool=pool).is_resonant
                    except PartitionBreakdown:  # no class: outside order_sweep's precondition
                        continue
                    if not resonant:
                        (diag,) = pb.order_sweep(lattice, 1, q, [v], [1, 2], cas).diagnostics
                        assert diag["eigensolver"] == "tracked"
                        tracked += 1


def window_operator(lattice, l, q, v, radius):
    """The sparse relative-frame operator of the window around v."""
    t = lattice.reduce(v)[1].reduced
    return pb.assemble(l, q, t, PlanewaveBasis.window(lattice, t, v, radius), shift_center=v, sparse=True)


def inertia(H, s):
    """oracle._inertia's nu(s) on the sparse H, under the pivot floor blocks use."""
    return oracle._inertia(oracle._OrderedPattern(H), s, oracle._PIVOT_TOL * H.one_norm())


class TestSparseSlice:
    """Sylvester-inertia counts of a sparse operator (oracle._inertia) against the full dense eigh.

    nu(s) is the number of eigenvalues below s, so nu(hi) - nu(lo) counts
    the slice [lo, hi) of the spectrum, as block.nearest_eigenvalue counts
    it.  An eigenvalue at s makes a pivot vanish, and the pivot guard
    returns None.
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
            q = pb.random_potential(seed, lattice, 1.0, 0.0, amplitude)
        u = np.array(direction[:d]) + 1e-3
        v = rho * u / np.linalg.norm(u)
        H = window_operator(lattice, l, q, v, radius)  # a cosine pair's is float64, as an even q's blocks are
        ordered, floor = oracle._OrderedPattern(H), oracle._PIVOT_TOL * H.one_norm()
        dense = H.toarray()
        # eigh's own eigenvalues are good to ~eps |H|, which exceeds the tolerance
        # when |H| passes a few thousand; the Rayleigh quotients of its vectors are
        # good to |residual|^2 / gap
        W = np.linalg.eigh(dense)[1]
        lam = np.real(np.vecdot(W, dense @ W, axis=0))
        tol = 1e-12 * (1.0 + np.abs(lam))
        for s in (scale * (middle - width), scale * (middle + width)):
            count = oracle._inertia(ordered, s, floor)
            event(f"pivot guard: {count is None}")
            # an eigenvalue within rounding of s may fall on either side of it
            if count is not None and not np.any(np.abs(lam - s) <= tol):
                assert count == np.count_nonzero(lam < s)

    @pytest.mark.parametrize("offset", [0.0, 1e-13])
    def test_endpoint_on_free_eigenvalue_takes_pivot_guard(self, z2, offset):
        # q = 0: the eigenvalues are the diagonal, and s on one of them leaves
        # a zero (or sub-floor) pivot whose sign is meaningless
        H = window_operator(z2, 1, FourierPotential(z2, {}), np.array([5.3, 4.2]), 3.0)
        lam = np.sort(H.diagonal())
        assert inertia(H, lam[3] + offset) is None
        assert inertia(H, 0.5 * (lam[3] + lam[4])) == 4

    def test_off_diagonal_pivot_takes_pivot_guard(self, z2):
        # H - sI at s = 0 has a zero diagonal coupled off the diagonal: SuperLU must
        # pivot off the diagonal, perm_r != perm_c, and there is no LDL^H to count
        n = 9
        columns = np.full((1, n), n)
        columns[0, :2] = (1, 0)  # H[0, 1] = H[1, 0] = 1
        values = np.where(columns < n, 1.0 + 0j, 0j)
        H = oracle.WindowOperator(np.array([0.0, 0.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]), columns, values)
        assert inertia(H, 0.0) is None
        assert inertia(H, 3.5) == 3  # -1, 1 and 3

    def test_slice_orders_its_pattern_once(self, z2, monkeypatch):
        # the two inertia counts share one minimum-degree order: one factor reads it
        # off the pattern, and both counts factor in it
        import scipy.sparse.linalg

        q = pb.random_potential(3, z2, 1.5, 0.0, 0.5)
        H = window_operator(z2, 1, q, np.array([7.1, 3.3]), 5.0)
        specs, splu = [], scipy.sparse.linalg.splu
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda A, permc_spec=None, **kw: (specs.append(permc_spec), splu(A, permc_spec, **kw))[1])
        ordered = oracle._OrderedPattern(H)
        below = [oracle._inertia(ordered, s, oracle._PIVOT_TOL * H.one_norm()) for s in (-2.0, 2.0)]
        assert None not in below and below[1] > below[0]
        assert specs == ["MMD_AT_PLUS_A", "NATURAL", "NATURAL"]


def test_import_and_full_solves_leave_scipy_sparse_unloaded():
    # scipy.sparse.linalg adds ~30 MB of resident memory; only simplicity verdicts
    # (the block inertia counts) may pay it, not the simplicity set-up path (known parts,
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
    # a tracked center multiplies by the numpy window operator and factors nothing,
    # and a refused one falls back to numpy's dense eigh: track_dominant never pays
    # for scipy.sparse (~22 MB) or scipy.sparse.linalg (~30 MB).  The forced
    # refusals run at smoothness 9, on 81- and 177-wave windows.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import polybloch as pb\n"
        "from polybloch import oracle\n"
        "lat = pb.LatticeModel.cubic(2)\n"
        "q = pb.cosine_pair(lat, (1, 0), 0.1)\n"
        "overrides = {'v_thresholds': [2.0, 4.0, 8.0], 'pool_radius': 3.0, 'known_order': 3}\n"
        "cas = pb.derive_parameters(2, 1, 45.0, 20.0, mode='scaled', overrides=overrides)\n"
        "u = np.array([0.78, 0.6258]) / np.linalg.norm([0.78, 0.6258])\n"
        "table = pb.order_sweep(lat, 1, q, [20.0 * u, 40.0 * u], [1, 2, 3], cas)\n"
        "assert [d['eigensolver'] for d in table.diagnostics] == ['tracked', 'tracked']\n"
        "oracle._TRACK_STEPS = 0\n"
        "cas = pb.derive_parameters(2, 1, 9.0, 20.0, mode='scaled', overrides=overrides)\n"
        "table = pb.order_sweep(lat, 1, q, [20.0 * u, 40.0 * u], [1, 2, 3], cas)\n"
        "assert [d['eigensolver'] for d in table.diagnostics] == ['dense', 'dense']\n"
        "assert [d['tracking_refused'] for d in table.diagnostics] == ['convergence', 'convergence']\n"
        "print('scipy' in sys.modules, any(m.startswith('scipy.') for m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False False"
