import numpy as np
import pytest

import polybloch as pb
from polybloch.errors import WindowNotConverged
from polybloch.oracle import PlanewaveBasis
from polybloch.potential import FourierPotential


def two_state_basis(z2):
    return PlanewaveBasis(z2, (z2.vector((0, 0)), z2.vector((1, 0))),
                          np.zeros(2), 2.0, "window")


class TestAssemble:
    def test_zero_potential_diagonal(self, z2):
        basis = PlanewaveBasis.full_ball(z2, 1.5)
        t = np.array([0.1, 0.2])
        H = pb.assemble(2, FourierPotential(z2, {}), t, basis)
        assert np.allclose(H, np.diag(np.diag(H)))
        for i, vec in enumerate(basis.vectors):
            x = vec.embedding + t
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
        free = pb.free_eigenvalues(z2, t, 1, basis)
        assert np.sum(spec.eigenvalues) == pytest.approx(np.sum(free), rel=1e-8)

    def test_perturbation_bound(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.3)
        basis = PlanewaveBasis.full_ball(z2, 3.2)
        t = np.array([0.21, 0.37])
        spec = pb.solve(z2, 1, q, t, basis)
        free = pb.free_eigenvalues(z2, t, 1, basis)
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
        member = {vec.coords for vec in basis.vectors}
        for vec in z2.enumerate_shifted_ball(v - t, 10.0):
            dist = np.linalg.norm(vec.embedding + t - v)
            assert (vec.coords in member) == (dist <= 4.0 + 1e-9)

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

    def test_shifted_frame_consistency(self, z2):
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([5.3, 4.2])
        spec = pb.bloch_solve(z2, 1, q, v, 6.0)
        n = spec.dominant_index(z2.reduce(v)[0].coords)
        assert spec.shift == pytest.approx(float(v @ v))
        assert spec.eigenvalues[n] == pytest.approx(spec.shift + spec.relative_eigenvalue(n), rel=1e-12)
