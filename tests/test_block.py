import itertools

import numpy as np
import pytest

import polybloch as pb
from conftest import scaled_cascade
from polybloch.errors import EmptyDirections
from polybloch.potential import FourierPotential


def brute_force_offsets(directions, b_radius, a_radius, box=4):
    """Independent enumeration of {b + a} for Z^2."""
    b_list = []
    for n in range(-box, box + 1):
        combo = tuple(n * c for c in directions[0])
        if np.linalg.norm(combo) < b_radius:
            b_list.append(combo)
    a_list = [a for a in itertools.product(range(-box, box + 1), repeat=2)
              if np.linalg.norm(a) < a_radius]
    return {tuple(b[i] + a[i] for i in range(2)) for b in b_list for a in a_list}


class TestIndexSet:
    def test_scaled_example_structure(self, z2):
        # b and a balls of radius 1.2: five column offsets and +-e1 translates
        v = np.array([0.5, 10.0])
        cas = scaled_cascade(10.0, thresholds=(2.0, 5.76, 11.0), a_radius=1.2)
        # block_b_radius(1) = sqrt(5.76)/2 = 1.2
        iset = pb.build_index_set(z2, v, [z2.vector((0, 1))], cas)
        offsets = {tuple(h - g for h, g in zip(hv.coords, iset.gamma0.coords)) for hv in iset.vectors}
        expected = {(0, n) for n in (-2, -1, 0, 1, 2)} | {(s, n) for s in (-1, 1) for n in (-1, 0, 1)}
        assert offsets == expected
        assert iset.size == 11
        assert offsets == brute_force_offsets([(0, 1)], 1.2, 1.2)

    def test_brute_force_radius_1p5(self, z2):
        # euclidean balls of radius 1.5 include the diagonal translates
        v = np.array([0.5, 10.0])
        iset = pb.build_index_set(z2, v, [z2.vector((0, 1))], b_radius=1.5, a_radius=1.5)
        offsets = {tuple(h - g for h, g in zip(hv.coords, iset.gamma0.coords)) for hv in iset.vectors}
        assert offsets == brute_force_offsets([(0, 1)], 1.5, 1.5)
        assert iset.size == 15

    def test_small_b_radius_reduces_to_translates(self, z2):
        v = np.array([0.5, 10.0])
        iset = pb.build_index_set(z2, v, [z2.vector((0, 1))], b_radius=0.5, a_radius=1.2)
        offsets = {tuple(h - g for h, g in zip(hv.coords, iset.gamma0.coords)) for hv in iset.vectors}
        assert offsets == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_center_always_in_set(self, z2):
        v = np.array([0.5, 10.0])
        iset = pb.build_index_set(z2, v, [z2.vector((0, 1))], b_radius=0.5, a_radius=0.5)
        assert iset.gamma0.coords in {h.coords for h in iset.vectors}

    def test_size_bound(self, z2):
        v = np.array([0.5, 12.0])
        b_r, a_r = 2.5, 2.5
        iset = pb.build_index_set(z2, v, [z2.vector((0, 1))], b_radius=b_r, a_radius=a_r)
        n_b = sum(1 for n in range(-5, 6) if abs(n) < b_r)
        n_a = len(z2.enumerate_ball(a_r, exclude_zero=False))
        assert iset.size <= n_b * n_a

    def test_empty_directions(self, z2):
        with pytest.raises(EmptyDirections):
            pb.build_index_set(z2, np.array([0.5, 10.0]), [], b_radius=1.0, a_radius=1.0)

    def test_dependent_directions_rejected(self, z2):
        with pytest.raises(ValueError, match="independent"):
            pb.build_index_set(z2, np.array([0.5, 10.0]),
                               [z2.vector((0, 1)), z2.vector((0, -2))],
                               b_radius=1.0, a_radius=1.0)

    def test_deterministic_order(self, z2):
        v = np.array([0.5, 10.0])
        a = pb.build_index_set(z2, v, [z2.vector((0, 1))], b_radius=1.5, a_radius=1.5)
        b = pb.build_index_set(z2, v, [z2.vector((0, 1))], b_radius=1.5, a_radius=1.5)
        assert [h.coords for h in a.vectors] == [h.coords for h in b.vectors]


def two_point_block(z2, q, diag_values, l=1):
    """Hand-built 2-element index set with prescribed |h_i + t|^2."""
    # place v on the x2 axis and the partner one step along e1 from (-0.5, h)
    from polybloch.block import ResonantIndexSet, assemble_block

    h2 = np.sqrt(diag_values[0] - 0.25)
    v = np.array([-0.5, h2])
    t_target = diag_values[1]
    gamma0, qm = z2.reduce(v)
    t = qm.reduced
    iset = ResonantIndexSet(
        center=v, t=t, gamma0=gamma0,
        directions=(z2.vector((1, 0)),),
        vectors=(gamma0, z2.vector((gamma0.coords[0] + 1, gamma0.coords[1]))),
        b_radius=1.0, a_radius=0.0,
    )
    return assemble_block(iset, l, q)


class TestBlockAssembly:
    def test_symmetric_two_level(self, z2):
        # equal diagonals 100, coupling 1 -> eigenvalues 99, 101
        q = pb.cosine_pair(z2, (1, 0), 1.0)
        blk = two_point_block(z2, q, (100.0, 100.0))
        d0 = blk.matrix[0, 0].real
        d1 = blk.matrix[1, 1].real
        assert d0 == pytest.approx(d1, abs=1e-9)
        assert np.allclose(blk.eigenvalues, [d0 - 1.0, d0 + 1.0], atol=1e-9)

    def test_detuned_two_level_closed_form(self, z2):
        # diagonals (a, b), coupling c: eigenvalues mean -+ sqrt(((a-b)/2)^2 + c^2)
        q = pb.cosine_pair(z2, (1, 0), 1.0)
        from polybloch.block import ResonantIndexSet, assemble_block

        v = np.array([-0.5, 10.0])
        gamma0, qm = z2.reduce(v)
        iset = ResonantIndexSet(
            center=v, t=qm.reduced, gamma0=gamma0,
            directions=(z2.vector((1, 0)),),
            vectors=(gamma0, z2.vector((gamma0.coords[0] + 2, gamma0.coords[1]))),
            b_radius=1.0, a_radius=0.0,
        )
        blk = assemble_block(iset, 1, q)
        a_d, b_d = blk.matrix[0, 0].real, blk.matrix[1, 1].real
        c = abs(blk.matrix[0, 1])
        assert c == 0.0  # two steps along e1 are outside the support
        # couple them artificially via a wider potential
        q2 = pb.cosine_pair(z2, (2, 0), 1.0)
        blk2 = assemble_block(iset, 1, q2)
        mean = (a_d + b_d) / 2
        disc = np.sqrt(((a_d - b_d) / 2) ** 2 + 1.0)
        assert np.allclose(blk2.eigenvalues, [mean - disc, mean + disc], rtol=1e-12)

    def test_spec_numeric_example(self, z2):
        # diagonals (100, 104), coupling 1 -> 102 -+ sqrt(5)
        mean, disc = 102.0, np.sqrt(5.0)
        h = np.array([[100.0, 1.0], [1.0, 104.0]])
        vals = np.linalg.eigvalsh(h)
        assert vals[0] == pytest.approx(mean - disc, abs=1e-12)
        assert vals[1] == pytest.approx(mean + disc, abs=1e-12)

    def test_zero_potential_diagonal(self, z2):
        q0 = FourierPotential(z2, {})
        v = np.array([0.5, 10.0])
        iset = pb.build_index_set(z2, v, [z2.vector((0, 1))], b_radius=1.2, a_radius=1.2)
        blk = pb.assemble_block(iset, 1, q0)
        diag = sorted(np.real(np.diag(blk.matrix)))
        assert np.allclose(blk.eigenvalues, diag, rtol=1e-12)


class TestMatching:
    def test_zero_potential_deviation_zero(self, z2):
        q0 = FourierPotential(z2, {})
        v = np.array([0.5, 10.0])
        iset = pb.build_index_set(z2, v, [z2.vector((0, 1))], b_radius=1.2, a_radius=1.2)
        blk = pb.assemble_block(iset, 1, q0)
        spec = pb.bloch_solve(z2, 1, q0, v, 5.0)
        match = pb.match_resonant(spec, blk)
        assert match.deviation == pytest.approx(0.0, abs=1e-10)
        # matched block index is the rank of |v|^2 among the diagonal
        diag = sorted(np.real(np.diag(blk.matrix)))
        rank = diag.index(pytest.approx(float(v @ v)))
        assert match.block_index == rank

    def test_block_beats_free_on_plane(self, z2):
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([0.5, 10.0])
        cas = scaled_cascade(np.linalg.norm(v), a_radius=1.2)
        verdict = pb.classify(z2, v, cas)
        assert verdict.level == 1
        iset = pb.build_index_set(z2, v, verdict.directions, cas)
        blk = pb.assemble_block(iset, 1, q)
        spec = pb.bloch_solve(z2, 1, q, v, 8.0, refine=True)
        match = pb.match_resonant(spec, blk)
        gamma0, _ = z2.reduce(v)
        free_err = abs(spec.relative_eigenvalue(spec.dominant_index(gamma0.coords)))
        assert match.deviation < free_err / 10
        assert match.deviation <= pb.tail_coupling_bound(iset, q)

    def test_monotone_block_refinement(self, z2):
        # growing the index set inside a strictly larger oracle window can
        # only improve the match: each enlargement captures more couplings
        q = pb.cosine_pair(z2, (1, 0), 0.2)
        v = np.array([0.5, 10.0])
        spec = pb.bloch_solve(z2, 1, q, v, 9.0)
        devs = []
        for a_radius in (1.2, 2.2, 3.2):
            iset = pb.build_index_set(z2, v, [z2.vector((-1, 0))], b_radius=1.0, a_radius=a_radius)
            blk = pb.assemble_block(iset, 1, q)
            devs.append(pb.match_resonant(spec, blk).deviation)
        assert devs[0] > devs[1] > devs[2]
