import itertools

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import polybloch as pb
import reference_enumeration as ref
from conftest import scaled_cascade
from polybloch import block, oracle
from polybloch.block import nearest_eigenvalue
from polybloch.errors import EmptyDirections, PreconditionError, SmallDenominator
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
        n_a = len(z2.ball_coords(a_r, exclude_zero=False))
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


TRANSLATE_LATTICES = {"Z2": LATTICES["Z2"], "Z3": LATTICES["Z3"],
                      "oblique": pb.LatticeModel(2 * np.pi * np.array([[1.0, 0.0, 0.0], [0.31, 1.13, 0.0],
                                                                       [0.17, -0.29, 0.91]]))}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(TRANSLATE_LATTICES)), span=st.booleans())
def test_blocks_are_translates_with_the_former_rows(data, name, span):
    # two centers of one shape: each block has the former enumeration's rows, order
    # and embeddings bit for bit, and the second searches the first one's offset set.
    # Without span, b_radius is at most the directions' least singular value, so b = {0}
    lattice = TRANSLATE_LATTICES[name]
    d = lattice.dimension
    k = data.draw(st.integers(1, d - 1))
    coords = data.draw(st.lists(st.tuples(*([st.integers(-2, 2)] * d)).filter(any), min_size=k, max_size=k,
                                unique=True))
    assume(integer_rank(coords) == k)
    directions = [lattice.vector(g) for g in coords]
    mat = np.array([g.embedding for g in directions])
    if span:
        b_radius = data.draw(st.floats(1.01, 2.5)) * float(np.linalg.norm(mat, axis=1).min())
    else:
        b_radius = data.draw(st.floats(0.05, 1.0)) * float(np.linalg.svd(mat, compute_uv=False).min())
    if data.draw(st.booleans()):
        a_radius = data.draw(st.floats(0.3, 2.5))
    else:  # an exact shell radius
        a_radius = float(np.linalg.norm(lattice.embed(data.draw(st.tuples(*([st.integers(-2, 2)] * d)).filter(any)))))
    ball = lattice.ball_coords(a_radius, exclude_zero=False)
    steps = np.concatenate((np.eye(d, dtype=np.int64), -np.eye(d, dtype=np.int64)))
    blocks = []
    for _ in range(2):
        v = np.array(data.draw(st.tuples(*([st.floats(-20, 20)] * d))))
        iset = pb.build_index_set(lattice, v, directions, b_radius=b_radius, a_radius=a_radius)
        want = ref.former_index_set(lattice, iset.gamma0.coords, directions, b_radius, a_radius)
        assert iset.coords.shape == want.shape and iset.coords.dtype == want.dtype
        assert iset.coords.tobytes() == want.tobytes()
        assert iset.embeddings.tobytes() == lattice.embed(want).tobytes()
        assert (len(iset) > len(ball)) == span
        targets = (iset.coords[:, None, :] + steps[None]).reshape(-1, d)
        rows = {tuple(h): i for i, h in enumerate(want.tolist())}
        assert iset.positions(targets).tolist() == [rows.get(tuple(h), -1) for h in targets.tolist()]
        blocks.append(iset)
    assert blocks[1].root[0] is blocks[0].root[0]
    for iset in blocks:
        assert iset.root[1].tolist() == list(iset.gamma0.coords)


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
            q = pb.random_potential(seed, lattice, support, 0.0, amplitude)
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
        event(f"dense fallback: {diag['dense_fallback_reason']}")
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
        q = pb.random_potential(3, z2, 1.5, 0.0, 0.5)
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
        assert 1 <= diag["track_steps"] < oracle._TRACK_STEPS
        assert diag == {"eigensolver": "sparse", "dense_fallback_reason": None, "inertia_count": 0,
                        "block_size": index_set.size, "real_symmetric": False, "track_steps": diag["track_steps"]}
        assert abs(value - lam) <= 1e-12 * np.max(np.abs(dense.eigenvalues))

    def test_target_on_an_eigenvalue_takes_pivot_guard(self, z2, monkeypatch):
        # q = 0 and t = (0, 1/4): the diagonal is exact in binary.  A target on one
        # of its entries starts the tracked solve on its own eigenvector, which it
        # returns after one step with d = 0: no count, no factorization.  A target
        # between two entries needs a count, and an untrusted one answers densely
        q0 = FourierPotential(z2, {})
        index_set = pb.build_index_set(z2, np.array([5.0, 0.25]), [z2.vector((0, 1))],
                                       b_radius=2.0, a_radius=2.0)
        dense = pb.assemble_block(index_set, 1, q0)
        for target in (dense.eigenvalues[2], dense.shift):
            value, diag = nearest_eigenvalue(index_set, 1, q0, target)
            assert diag == {"eigensolver": "sparse", "dense_fallback_reason": None, "inertia_count": 0,
                            "block_size": index_set.size, "real_symmetric": True, "track_steps": 1}
            assert value == target
        monkeypatch.setattr(block, "_inertia", lambda ordered, s, floor: None)
        lam = np.unique(dense.eigenvalues)
        for target in (0.7 * lam[2] + 0.3 * lam[3], dense.shift + 0.3):
            value, diag = nearest_eigenvalue(index_set, 1, q0, target)
            assert diag == {"eigensolver": "dense", "dense_fallback_reason": "pivot", "inertia_count": None,
                            "block_size": index_set.size, "real_symmetric": True, "track_steps": 1}
            assert value == dense_nearest(dense, target)

    def test_nonzero_count_takes_count_guard(self, z2, monkeypatch):
        # a tracked solve that returns the second-nearest pair: the inertia count
        # finds the nearer one, and the dense block answers
        q, index_set, dense = self.generic_block(z2)
        H = dense.matrix - dense.shift * np.eye(index_set.size)
        mu, W = np.linalg.eigh(H)
        target = dense.shift + 0.5 * (mu[10] + mu[11]) - 1e-3
        second = 11
        pair = (mu[second], W[:, second], H @ W[:, second])
        monkeypatch.setattr(oracle, "_track_pair", lambda H_, basis, coords, sigma, start, stop: (None, 7, pair))
        value, diag = nearest_eigenvalue(index_set, 1, q, target)
        assert diag == {"eigensolver": "dense", "dense_fallback_reason": "count", "inertia_count": 1,
                        "block_size": index_set.size, "real_symmetric": False, "track_steps": 7}
        assert value == dense_nearest(dense, target)
        assert abs(value - dense.shift - mu[10]) < abs(value - dense.shift - mu[second])

    def test_inaccurate_pair_takes_count_guard(self, z2, monkeypatch):
        # a tracked vector mixed 1e-3 with its neighbour fails the residual certificate
        q, index_set, dense = self.generic_block(z2)
        H = dense.matrix - dense.shift * np.eye(index_set.size)
        mu, W = np.linalg.eigh(H)
        x = W[:, 10] + 1e-3 * W[:, 11]
        x /= np.linalg.norm(x)
        pair = (float(np.real(np.vdot(x, H @ x))), x, H @ x)
        monkeypatch.setattr(oracle, "_track_pair", lambda H_, basis, coords, sigma, start, stop: (None, 7, pair))
        value, diag = nearest_eigenvalue(index_set, 1, q, dense.shift + mu[10])
        assert diag == {"eigensolver": "dense", "dense_fallback_reason": "count", "inertia_count": None,
                        "block_size": index_set.size, "real_symmetric": False, "track_steps": 7}
        assert value == dense_nearest(dense, dense.shift + mu[10])

    def test_arpack_no_convergence_takes_count_guard(self, z2, monkeypatch):
        # a tracked solve that does not converge within the step cap
        q, index_set, dense = self.generic_block(z2)
        monkeypatch.setattr(oracle, "_track_pair",
                            lambda H, basis, coords, sigma, start, stop: ("convergence", oracle._TRACK_STEPS, None))
        value, diag = nearest_eigenvalue(index_set, 1, q, dense.shift)
        assert diag == {"eigensolver": "dense", "dense_fallback_reason": "count", "inertia_count": None,
                        "block_size": index_set.size, "real_symmetric": False, "track_steps": oracle._TRACK_STEPS}
        assert value == dense_nearest(dense, dense.shift)


def test_one_coupling_table_and_one_ordering_per_table_and_shape(z2, monkeypatch):
    # two blocks of one shape on one table build one coupling table (over the shape's
    # offset set, the blocks' root) and order one pattern; a new table, or a new shape,
    # builds its own.  Each block's value is the one it has on a slot another table and
    # shape have since taken
    import scipy.sparse.linalg

    q = pb.random_potential(3, z2, 1.5, 0.0, 0.5)
    other = q.scaled(0.5)
    cases = [(table, pb.build_index_set(z2, np.array(v), [z2.vector((0, 1))], b_radius=3.0, a_radius=a_radius))
             for table, v, a_radius in ((q, [0.5, 10.2], 3.0), (q, [-4.3, 7.9], 3.0),
                                        (other, [-4.3, 7.9], 3.0), (other, [0.5, 10.2], 2.0))]
    targets = []
    for table, index_set in cases:
        dense = pb.assemble_block(index_set, 1, table)
        targets.append(dense.eigenvalues[np.argmin(np.abs(dense.eigenvalues - dense.shift))] + 1e-3)
    tables, specs = [], []
    coupling_table, splu = FourierPotential._coupling_table, scipy.sparse.linalg.splu
    monkeypatch.setattr(FourierPotential, "_coupling_table",
                        lambda self, index_set: (tables.append(index_set), coupling_table(self, index_set))[1])
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda A, permc_spec=None, **kw: (specs.append(permc_spec), splu(A, permc_spec, **kw))[1])
    built, values = [], []
    for (table, index_set), target in zip(cases, targets):
        value, diag = nearest_eigenvalue(index_set, 1, table, target)
        assert diag["eigensolver"] == "sparse"
        values.append(value)
        built.append((len(tables), sum(spec != "NATURAL" for spec in specs)))
    assert built == [(1, 1), (1, 1), (2, 2), (3, 3)]
    assert all(root is case[1].root[0] for root, case in zip(tables, (cases[0], cases[2], cases[3])))
    for (table, index_set), target, value in zip(cases, targets, values):
        assert nearest_eigenvalue(index_set, 1, table, target)[0] == value


def test_block_solve_factors_only_for_its_count(z2, monkeypatch):
    # the tracked solve finds the pair with no factorization and no eigsh: per block at
    # most the two inertia counts factor ("NATURAL"), none when the target is within
    # tau of the pair, and the shape's pattern is ordered on its first block only
    import scipy.sparse.linalg

    q = pb.random_potential(3, z2, 1.5, 0.0, 0.5)
    blocks = [pb.build_index_set(z2, np.array(v), [z2.vector((0, 1))], b_radius=3.0, a_radius=3.0)
              for v in ([0.5, 10.2], [-4.3, 7.9], [3.1, -9.6])]
    cases = []
    for index_set in blocks:
        dense = pb.assemble_block(index_set, 1, q)
        lam = dense.eigenvalues[np.argmin(np.abs(dense.eigenvalues - dense.shift))]
        cases += [(index_set, dense, lam + 1e-3, 2), (index_set, dense, lam, 0)]
    specs, eigsh = [], []
    splu = scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda A, permc_spec=None, **kw: (specs.append(permc_spec), splu(A, permc_spec, **kw))[1])
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lambda *args, **kw: eigsh.append(args))
    monkeypatch.setattr(block, "_PATTERN", None)
    orderings = []
    for index_set, dense, target, factors in cases:
        specs.clear()
        value, diag = nearest_eigenvalue(index_set, 1, q, target)
        assert (diag["eigensolver"], diag["inertia_count"]) == ("sparse", 0)
        assert value == pytest.approx(dense_nearest(dense, target), abs=1e-12 * np.max(np.abs(dense.eigenvalues)))
        assert specs.count("NATURAL") == factors
        orderings.append(len(specs) - factors)
    assert orderings == [1] + [0] * (len(cases) - 1) and not eigsh


def workload_table(seed, z2):
    """A radius-1 table of amplitude about 0.1 with random phases, as the benchmark draws them."""
    rng = np.random.default_rng(seed)
    table = {}
    for g in ((1, 0), (0, 1)):
        z = 0.1 * rng.uniform(0.75, 1.25) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        table[g], table[(-g[0], -g[1])] = z, np.conj(z)
    return FourierPotential(z2, table, 45.0)


@pytest.mark.parametrize("seed", [0, 1])
def test_workload_shaped_blocks_are_answered_sparse(z2, seed, monkeypatch):
    # rho = 20 and the default a-radius (1,117-row blocks): the tracked solve, in
    # float64 on the even translate, and its count answer every block of the first
    # centers' competitors, at the dense value
    dtypes = []
    track_pair = oracle._track_pair
    monkeypatch.setattr(oracle, "_track_pair",
                        lambda H, *args, **kw: (dtypes.append(H.dtype), track_pair(H, *args, **kw))[1])
    q = workload_table(seed, z2)
    cascade = scaled_cascade(20.0, known_order=2)
    pool = pb.direction_pool(z2, cascade)
    blocks = []
    for angle in 0.1 + np.pi / 2 * np.arange(200) / 200:
        v = 20.0 * np.array([np.cos(angle), np.sin(angle)])
        if pb.classify(z2, v, cascade, pool=pool).is_resonant:
            continue
        gamma0, t = z2.split(v)
        try:
            f_value = pb.known_part(v, 1, q, cascade).value
        except SmallDenominator:
            continue
        blocks += [(g.embedding + t, cls.directions, t, f_value)
                   for g, cls in pb.k_set(z2, v, t, cascade, 1, q, f_value=f_value, pool=pool)
                   if cls.is_resonant and g.coords != gamma0.coords]
        if len(blocks) >= 4:
            break
    assert len(blocks) >= 4
    for x, directions, t, f_value in blocks:
        index_set = pb.build_index_set(z2, x, directions, cascade, t=t)
        value, diag = nearest_eigenvalue(index_set, 1, q, f_value)
        dense = pb.assemble_block(index_set, 1, q)
        assert diag["eigensolver"] == "sparse" and diag["real_symmetric"] and dtypes[-1] == np.float64
        assert abs(value - dense_nearest(dense, f_value)) <= 1e-12 * np.max(np.abs(dense.eigenvalues))
