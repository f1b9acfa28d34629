import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import polybloch as pb
import reference_enumeration as ref
from conftest import scaled_cascade
from polybloch.block import nearest_eigenvalue
from polybloch.errors import EmptyDirections, PreconditionError
from polybloch.numerics import integer_rank
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
        offsets = set(map(tuple, (iset.coords - iset.gamma0.coords).tolist()))
        expected = {(0, n) for n in (-2, -1, 0, 1, 2)} | {(s, n) for s in (-1, 1) for n in (-1, 0, 1)}
        assert offsets == expected
        assert iset.size == 11
        assert offsets == brute_force_offsets([(0, 1)], 1.2, 1.2)

    def test_brute_force_radius_1p5(self, z2):
        # euclidean balls of radius 1.5 include the diagonal translates
        v = np.array([0.5, 10.0])
        iset = pb.build_index_set(z2, v, [z2.vector((0, 1))], b_radius=1.5, a_radius=1.5)
        offsets = set(map(tuple, (iset.coords - iset.gamma0.coords).tolist()))
        assert offsets == brute_force_offsets([(0, 1)], 1.5, 1.5)
        assert iset.size == 15

    def test_small_b_radius_reduces_to_translates(self, z2):
        v = np.array([0.5, 10.0])
        iset = pb.build_index_set(z2, v, [z2.vector((0, 1))], b_radius=0.5, a_radius=1.2)
        offsets = set(map(tuple, (iset.coords - iset.gamma0.coords).tolist()))
        assert offsets == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_center_always_in_set(self, z2):
        v = np.array([0.5, 10.0])
        iset = pb.build_index_set(z2, v, [z2.vector((0, 1))], b_radius=0.5, a_radius=0.5)
        assert iset.gamma0.coords in set(map(tuple, iset.coords.tolist()))

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

    @pytest.mark.parametrize("directions, radii, match", [
        ([(0, 1), (0, -2)], {"b_radius": 1.0, "a_radius": 1.0}, "independent"),
        ([(0, 1), (1, 0)], {"b_radius": 1.0, "a_radius": 1.0}, "d - 1"),
        ([(0, 1)], {"a_radius": 1.0}, "b_radius"),
        ([(0, 1)], {"b_radius": 1.0}, "a_radius"),
    ])
    def test_bad_arguments_are_precondition_errors(self, z2, directions, radii, match):
        with pytest.raises(PreconditionError, match=match):
            pb.build_index_set(z2, np.array([0.5, 10.0]), [z2.vector(g) for g in directions], **radii)

    def test_deterministic_order(self, z2):
        v = np.array([0.5, 10.0])
        a = pb.build_index_set(z2, v, [z2.vector((0, 1))], b_radius=1.5, a_radius=1.5)
        b = pb.build_index_set(z2, v, [z2.vector((0, 1))], b_radius=1.5, a_radius=1.5)
        assert np.array_equal(a.coords, b.coords)


LATTICES = {"Z2": pb.LatticeModel.cubic(2), "Z3": pb.LatticeModel.cubic(3),
            "hexagonal": pb.LatticeModel(2 * np.pi * np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]]))}


@st.composite
def index_set_cases(draw):
    """Independent short directions and b, a radii that are often exact shell radii."""
    lattice = LATTICES[draw(st.sampled_from(sorted(LATTICES)))]
    d = lattice.dimension
    k = draw(st.integers(1, d - 1))
    directions = draw(st.lists(st.tuples(*([st.integers(-2, 2)] * d)).filter(any),
                               min_size=k, max_size=k, unique=True))
    assume(integer_rank(directions) == k)
    radii = []
    for _ in range(2):
        if draw(st.booleans()):
            radii.append(draw(st.floats(0.3, 2.5)))
        else:
            shell = np.linalg.norm(lattice.embed(draw(st.tuples(*([st.integers(-2, 2)] * d)).filter(any))))
            radii.append(min(float(shell), 2.5))
    v = np.array(draw(st.tuples(*([st.floats(-20, 20)] * d))))
    return lattice, v, [lattice.vector(g) for g in directions], radii[0], radii[1]


@settings(max_examples=80, deadline=None)
@given(index_set_cases())
def test_index_set_matches_tuple_reference(case):
    lattice, v, directions, b_radius, a_radius = case
    iset = pb.build_index_set(lattice, v, directions, b_radius=b_radius, a_radius=a_radius)
    want = ref.index_set(lattice, iset.gamma0.coords, directions, b_radius, a_radius)
    assert [tuple(h) for h in iset.coords.tolist()] == want
    assert iset.coords.dtype == np.int64 and not iset.coords.flags.writeable
    assert np.array_equal(iset.embeddings, lattice.embed(iset.coords))


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
        lattice=z2, center=v, t=t, gamma0=gamma0,
        directions=(z2.vector((1, 0)),),
        coords=[gamma0.coords, (gamma0.coords[0] + 1, gamma0.coords[1])],
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
            lattice=z2, center=v, t=qm.reduced, gamma0=gamma0,
            directions=(z2.vector((1, 0)),),
            coords=[gamma0.coords, (gamma0.coords[0] + 2, gamma0.coords[1])],
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


def dense_nearest(block, target) -> float:
    return float(block.eigenvalues[np.argmin(np.abs(block.eigenvalues - target))])


class TestNearestEigenvalue:
    """The inertia-certified sparse nearest-eigenvalue solve against the dense block's eigvalsh."""

    @settings(max_examples=100, deadline=None)
    @given(d=st.sampled_from([2, 3]), l=st.sampled_from([1, 2]), chains=st.booleans(),
           support=st.sampled_from([1.0, 1.5]),
           seed=st.integers(0, 2**16), amplitude=st.floats(0.05, 1.0), axis=st.integers(0, 2),
           two_directions=st.booleans(), direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           rho=st.floats(2.0, 6.0), radius=st.floats(1.0, 2.5), pick=st.integers(0, 10**6),
           near=st.booleans(), offset=st.floats(-1.0, 1.0), ratio=st.floats(0.0, 2.0))
    @example(d=2, l=1, chains=False, support=1.0, seed=3, amplitude=0.5, axis=1, two_directions=False,
             direction=[0.05, 1.0, 0.0], rho=5.0, radius=2.5, pick=0, near=True, offset=0.5, ratio=1.0)
    def test_sparse_matches_dense(self, d, l, chains, support, seed, amplitude, axis, two_directions, direction,
                                  rho, radius, pick, near, offset, ratio):
        # cosine pairs and radius-1 tables have an even translate, solved real;
        # radius-1.5 tables (more +- pairs than d) generically have none, and
        # q's own complex block is solved
        lattice = pb.LatticeModel.cubic(d)
        axes = np.eye(d, dtype=int)
        if chains:  # rank-1 support: the block splits into decoupled chains
            q = pb.cosine_pair(lattice, axes[axis % d], amplitude)
        else:
            q = pb.random_potential(seed, d, support, 0.0, amplitude, lattice=lattice)
        directions = [lattice.vector(axes[axis % d])]
        if d == 3 and two_directions:
            directions.append(lattice.vector(axes[(axis + 1) % d]))
        u = np.array(direction[:d]) + 1e-3
        v = rho * u / np.linalg.norm(u)
        index_set = pb.build_index_set(lattice, v, directions, b_radius=radius, a_radius=radius)
        dense = pb.assemble_block(index_set, l, q)
        lam = dense.eigenvalues
        target = lam[pick % len(lam)] + offset * (1e-9 if near else 1.0)
        value, diag = nearest_eigenvalue(index_set, l, q, target)
        assert diag["block_size"] == index_set.size
        assert diag["real_symmetric"] == (q.even_translate() is not None)
        if diag["eigensolver"] == "sparse":
            assert diag["dense_fallback_reason"] is None and diag["inertia_count"] == 0
        else:
            assert diag["dense_fallback_reason"] in ("pivot", "count")
            assert value == dense_nearest(dense, target)
        tol = 1e-12 * np.max(np.abs(lam))  # 1e-12 |H|_2
        dist = np.sort(np.abs(lam - target))
        # value is an eigenvalue, and none lies nearer the target
        assert np.min(np.abs(lam - value)) <= tol
        assert abs(abs(value - target) - dist[0]) <= tol
        if len(dist) == 1 or dist[1] - dist[0] > 2 * tol:  # the nearest eigenvalue is unique
            assert abs(value - dense_nearest(dense, target)) <= tol
        two_eps1 = ratio * dist[0]
        margin, dense_margin = abs(value - target) - two_eps1, dist[0] - two_eps1
        if abs(dense_margin) > tol:
            assert (margin >= 0) == (dense_margin >= 0)

    @staticmethod
    def generic_block(z2):
        q = pb.random_potential(3, 2, 1.5, 0.0, 0.5, lattice=z2)
        index_set = pb.build_index_set(z2, np.array([0.5, 10.2]), [z2.vector((0, 1))],
                                       b_radius=3.0, a_radius=3.0)
        return q, index_set, pb.assemble_block(index_set, 1, q)

    @pytest.mark.parametrize("offset", [1e-9, -1e-9, 1e-11])
    def test_target_within_1e9_of_an_eigenvalue(self, z2, offset):
        # the count's shifts sit within ~1e-10 of the eigenvalue found (or, for
        # 1e-11, the certified interval is empty and nothing is factorized)
        q, index_set, dense = self.generic_block(z2)
        lam = dense.eigenvalues[np.argmin(np.abs(dense.eigenvalues - dense.shift))]
        value, diag = nearest_eigenvalue(index_set, 1, q, lam + offset)
        assert diag == {"eigensolver": "sparse", "dense_fallback_reason": None, "inertia_count": 0,
                        "block_size": index_set.size, "real_symmetric": False}
        assert abs(value - lam) <= 1e-12 * np.max(np.abs(dense.eigenvalues))

    def test_target_on_an_eigenvalue_takes_pivot_guard(self, z2):
        # q = 0 and t = (0, 1/4): the diagonal is exact in binary, and a target on
        # one of its entries leaves the shift-invert factor exactly singular
        q0 = FourierPotential(z2, {})
        index_set = pb.build_index_set(z2, np.array([5.0, 0.25]), [z2.vector((0, 1))],
                                       b_radius=2.0, a_radius=2.0)
        dense = pb.assemble_block(index_set, 1, q0)
        for target in (dense.eigenvalues[2], dense.shift):
            value, diag = nearest_eigenvalue(index_set, 1, q0, target)
            assert diag == {"eigensolver": "dense", "dense_fallback_reason": "pivot", "inertia_count": None,
                            "block_size": index_set.size, "real_symmetric": True}
            assert value == target

    def test_nonzero_count_takes_count_guard(self, z2, monkeypatch):
        # a Lanczos solve that returns the second-nearest pair: the inertia count
        # finds the nearer one, and the dense block answers
        import scipy.sparse.linalg

        q, index_set, dense = self.generic_block(z2)
        H = dense.matrix - dense.shift * np.eye(index_set.size)
        mu, W = np.linalg.eigh(H)
        target = dense.shift + 0.5 * (mu[10] + mu[11]) - 1e-3
        second = 11
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lambda A, k, **kw: (mu[[second]], W[:, [second]]))
        value, diag = nearest_eigenvalue(index_set, 1, q, target)
        assert diag == {"eigensolver": "dense", "dense_fallback_reason": "count", "inertia_count": 1,
                        "block_size": index_set.size, "real_symmetric": False}
        assert value == dense_nearest(dense, target)
        assert abs(value - dense.shift - mu[10]) < abs(value - dense.shift - mu[second])

    def test_inaccurate_pair_takes_count_guard(self, z2, monkeypatch):
        # a Lanczos vector mixed 1e-3 with its neighbour fails the residual certificate
        import scipy.sparse.linalg

        q, index_set, dense = self.generic_block(z2)
        mu, W = np.linalg.eigh(dense.matrix - dense.shift * np.eye(index_set.size))
        x = W[:, [10]] + 1e-3 * W[:, [11]]
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lambda A, k, **kw: (mu[[10]], x / np.linalg.norm(x)))
        value, diag = nearest_eigenvalue(index_set, 1, q, dense.shift + mu[10])
        assert diag == {"eigensolver": "dense", "dense_fallback_reason": "count", "inertia_count": None,
                        "block_size": index_set.size, "real_symmetric": False}
        assert value == dense_nearest(dense, dense.shift + mu[10])

    def test_arpack_no_convergence_takes_count_guard(self, z2, monkeypatch):
        import scipy.sparse.linalg

        def no_convergence(A, k, **kw):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((A.shape[0], 0)))

        q, index_set, dense = self.generic_block(z2)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        value, diag = nearest_eigenvalue(index_set, 1, q, dense.shift)
        assert diag == {"eigensolver": "dense", "dense_fallback_reason": "count", "inertia_count": None,
                        "block_size": index_set.size, "real_symmetric": False}
        assert value == dense_nearest(dense, dense.shift)
