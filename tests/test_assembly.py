"""Property tests of the shared operator builder against pairwise reference loops.

The references below fill the matrix the way the builder replaced: one
coefficient lookup per pair i < j and one scalar power difference per row.
The sparse operator is checked against the CSC array the builder made
before it: the scatter of reference_triplets.
"""

import numpy as np
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polybloch as pb
from polybloch import oracle
from polybloch.errors import WindowNotConverged
from polybloch.block import ResonantIndexSet, assemble_block
from polybloch.lattice import CoordinateIndex
from polybloch.numerics import integer_rank, power_difference, relative_energies
from polybloch.oracle import PlanewaveBasis
from polybloch.potential import FourierPotential

EPS = np.finfo(float).eps

OBLIQUE = {
    2: [[1.0, 0.0], [0.37, 1.21]],
    3: [[1.0, 0.0, 0.0], [0.31, 1.13, 0.0], [0.17, -0.29, 0.91]],
}


def pairwise_couplings(q, vectors):
    n = len(vectors)
    H = np.zeros((n, n), dtype=complex)
    for i, vi in enumerate(vectors):
        for j in range(i + 1, n):
            val = q.coefficient(tuple(a - b for a, b in zip(vi.coords, vectors[j].coords)))
            if val != 0:
                H[i, j] = val
                H[j, i] = val.conjugate()
    return H


def pairwise_diagonal(vectors, t, l, v):
    if v is None:
        return np.array([float((h.embedding + t) @ (h.embedding + t)) ** l for h in vectors])
    v_sq = float(v @ v)
    out = []
    for h in vectors:
        delta = h.embedding + t - v
        first = 2.0 * float(v @ delta) + float(delta @ delta)
        out.append(power_difference(first, v_sq + first, v_sq, l))
    return np.array(out)


def reference_triplets(q, coords):
    """Off-diagonal (i, j, q_{c_i - c_j}): one lookup per support vector, pairs i < j, (j, i) conjugated."""
    coords = np.asarray(coords, dtype=np.int64)
    index = CoordinateIndex(coords)
    members = np.arange(len(coords))
    empty = np.zeros(0, dtype=np.int64)
    rows, cols, values = [empty], [empty], [np.zeros(0, dtype=complex)]
    for g in q.support:
        j = index.find(coords - np.asarray(g, dtype=np.int64))
        i = np.flatnonzero(members < j)  # absent targets have j = -1
        j = j[i]
        value = np.full(len(i), q.coefficient(g))
        rows += [i, j]
        cols += [j, i]
        values += [value, value.conj()]
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


def reference_csc(l, q, t, basis, v, dense=False):
    """The relative-frame operator scattered from reference_triplets: a CSC array, or with dense set an array."""
    n = len(basis)
    energies = relative_energies(np.zeros_like(t) if v is None else v, basis.embeddings + t, l)
    i, j, values = reference_triplets(q, basis.coords)
    if dense:  # assigned, not summed as in toarray(), so an entry's -0.0 stays
        H = np.zeros((n, n), dtype=complex)
        H[i, j] = values
        H[np.diag_indices(n)] = energies
        return H
    diag = np.arange(n)
    return scipy.sparse.csc_array((np.concatenate((values, energies)),
                                   (np.concatenate((i, diag)), np.concatenate((j, diag)))), shape=(n, n))


def csc_bytes(A):
    return [(getattr(A, name).dtype, getattr(A, name).tobytes()) for name in ("indptr", "indices", "data")]


@st.composite
def instances(draw):
    d = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        lattice = pb.LatticeModel.cubic(d)
    else:
        lattice = pb.LatticeModel(2 * np.pi * np.array(OBLIQUE[d]))
    box = st.integers(-2, 2)
    point = st.tuples(*([box] * d))
    table = {}
    if draw(st.integers(0, 4)):  # one draw in five keeps q empty
        support = draw(st.lists(point.filter(any), min_size=1, max_size=6, unique=True))
        for g in support:
            value = complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
            if value == 0:
                continue
            # Hermitian to the loader's 1e-12, not necessarily exactly
            skew = draw(st.sampled_from([0.0, 0.0, 5e-13, -7e-13]))
            table[g] = value
            table[tuple(-c for c in g)] = value.conjugate() * (1.0 + skew)
    q = FourierPotential(lattice, table)
    offset = draw(st.tuples(*([st.integers(-30, 30)] * d)))
    rows = draw(st.lists(st.tuples(*([st.integers(-3, 3)] * d)), min_size=1, max_size=40, unique=True))
    vectors = tuple(lattice.vector(np.add(r, offset)) for r in rows)
    t = np.array(draw(st.tuples(*([st.floats(0.0, 1.0)] * d)))) @ lattice.dual_basis
    l = draw(st.sampled_from([1, 2, 3]))
    if draw(st.booleans()):
        jitter = np.array(draw(st.tuples(*([st.floats(-0.5, 0.5)] * d))))
        v = vectors[0].embedding + t + jitter
    else:
        v = None
    return lattice, q, vectors, t, l, v


@settings(max_examples=150, deadline=None)
@given(instances())
def test_builder_matches_pairwise_reference(case):
    lattice, q, vectors, t, l, v = case
    basis = PlanewaveBasis(lattice, [h.coords for h in vectors])
    reference = pairwise_couplings(q, vectors)

    H = pb.assemble(l, q, t, basis, shift_center=v)
    n = len(vectors)
    off = ~np.eye(n, dtype=bool)
    assert np.array_equal(H[off], reference[off])
    assert np.array_equal(H, H.conj().T)
    diag = np.diag(H)
    assert np.all(diag.imag == 0)
    want = pairwise_diagonal(vectors, t, l, v)
    x_sq = np.sum((basis.embeddings + t) ** 2, axis=1)
    v_sq = 0.0 if v is None else float(v @ v)
    assert np.all(np.abs(diag.real - want) <= 16 * EPS * (v_sq + x_sq) ** l)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_block_and_oracle_assemble_the_same_matrix(case):
    lattice, q, vectors, t, l, v = case
    if v is None:
        v = vectors[0].embedding + t
    coords = [h.coords for h in vectors]
    index_set = ResonantIndexSet(lattice=lattice, center=np.array(v), t=np.array(t), gamma0=vectors[0],
                                 directions=(), coords=coords, b_radius=0.0, a_radius=0.0)
    block = assemble_block(index_set, l, q)
    basis = PlanewaveBasis(lattice, coords)
    H = pb.assemble(l, q, t, basis, shift_center=v)
    n = len(vectors)
    off = ~np.eye(n, dtype=bool)
    assert np.array_equal(block.matrix[off], H[off])
    assert np.array_equal(np.diag(block.matrix).real, block.shift + np.diag(H).real)
    assert np.array_equal(block.eigenvalues_rel, np.linalg.eigvalsh(H))


WINDOW_LATTICES = {
    "Z2": np.eye(2),
    "Z3": np.eye(3),
    "hexagonal": np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]),
    "oblique": np.array(OBLIQUE[2]),
}


def hermitian_table(draw, lattice) -> dict:
    """A Hermitian table on up to 4 +- pairs of offsets in {-1, 0, 1}^d."""
    point = st.tuples(*([st.integers(-1, 1)] * lattice.dimension))
    table = {}
    for g in draw(st.lists(point.filter(any), min_size=1, max_size=4, unique=True)):
        value = complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
        if value != 0:
            table[g] = value
            table[tuple(-c for c in g)] = value.conjugate()
    return table


@st.composite
def nested_windows(draw):
    """A lattice, a Hermitian q on a short support, l, a center and an inner radius reaching supp q."""
    lattice = pb.LatticeModel(2 * np.pi * WINDOW_LATTICES[draw(st.sampled_from(sorted(WINDOW_LATTICES)))])
    d = lattice.dimension
    q = FourierPotential(lattice, hermitian_table(draw, lattice))
    v = np.array(draw(st.tuples(*([st.floats(-20.0, 20.0)] * d))))
    radius = q.support_radius + draw(st.floats(0.0, 2.0))
    return lattice, q, draw(st.sampled_from([1, 2])), v, radius


@st.composite
def translated_windows(draw, reach: float = 2.0):
    """A lattice, a Hermitian table, a center v and an inner radius reaching supp q.

    v is a random point or a half-lattice point (n + h / 2) @ dual_basis,
    h in {0, 1}^d.  The radius is supp q's radius plus up to reach, or a
    norm shell's radius, of the inner window or of its 1.5x refinement.
    """
    lattice = pb.LatticeModel(2 * np.pi * WINDOW_LATTICES[draw(st.sampled_from(sorted(WINDOW_LATTICES)))])
    d = lattice.dimension
    table = hermitian_table(draw, lattice)
    support_radius = FourierPotential(lattice, table).support_radius
    if draw(st.booleans()):
        v = np.array(draw(st.tuples(*([st.floats(-20.0, 20.0)] * d))))
    else:
        n = np.array(draw(st.tuples(*([st.integers(-12, 12)] * d))))
        v = (n + 0.5 * np.array(draw(st.tuples(*([st.integers(0, 1)] * d))))) @ lattice.dual_basis
    scale = draw(st.sampled_from([None, 1.0, 1.5]))
    if scale is None:
        radius = support_radius + draw(st.floats(0.0, reach))
    else:
        emb = lattice.embed(lattice.ball_coords(scale * (support_radius + reach)))
        shells = np.sqrt(np.vecdot(emb, emb)) / scale
        shells = sorted(set(shells[shells >= support_radius].tolist()))
        # a lattice may have no shell radius in [support radius, support radius + reach)
        radius = draw(st.sampled_from(shells)) if shells else support_radius + draw(st.floats(0.0, reach))
    return lattice, table, v, radius


@settings(max_examples=40, deadline=None)
@given(nested_windows())
def test_inner_window_is_the_leading_block_of_its_refinement(case):
    # the reference builds the inner window on its own: its own enumeration and assembly.
    # Off Z^d, rows of one norm shell may take other places there (its distances to v
    # carry rounding), so it is taken in the window's order once its rows are the same
    lattice, q, l, v, radius = case
    gamma0, t = lattice.split(v)
    inner, outer = oracle._windows(q, gamma0.coords, radius, refine=True)
    reference = PlanewaveBasis.window(lattice, t, v, radius)
    if not lattice.is_integral:
        assert sorted(map(tuple, reference.coords.tolist())) == sorted(map(tuple, inner.coords.tolist()))
        reference = PlanewaveBasis(lattice, inner.coords)
    k = len(reference)
    assert len(inner) == k
    for basis in (inner, outer):
        assert basis.coords[:k].tobytes() == reference.coords.tobytes()
        assert basis.embeddings[:k].tobytes() == reference.embeddings.tobytes()
    # the inner window searches the outer window's index: rows from k on, and points outside, are absent
    rng = np.random.default_rng(len(outer))
    beyond = rng.integers(1, 4, (6, lattice.dimension))
    outer_only = outer.coords[k + rng.permutation(len(outer) - k)[:8]]
    targets = np.concatenate([inner.coords[rng.integers(0, k, 8)], outer_only,
                              outer.coords.max(axis=0) + beyond, outer.coords.min(axis=0) - beyond])
    assert np.array_equal(inner.positions(targets), reference.positions(targets))

    dense = pb.assemble(l, q, t, outer, shift_center=v)
    want = pb.assemble(l, q, t, reference, shift_center=v)
    assert np.ascontiguousarray(dense[:k, :k]).tobytes() == want.tobytes()
    sparse = pb.assemble(l, q, t, outer, shift_center=v, sparse=True)
    assert np.array_equal(sparse.toarray(), dense)
    block = pb.assemble(l, q, t, inner, shift_center=v, sparse=True)
    want = pb.assemble(l, q, t, reference, shift_center=v, sparse=True)
    assert csc_bytes(block.tocsc()) == csc_bytes(want.tocsc())


def as_rows(coords) -> list:
    return sorted(map(tuple, coords.tolist()))


@settings(max_examples=60, deadline=None)
@given(translated_windows())
def test_windows_are_translates_of_one_origin_window(case):
    # each window holds the rows PlanewaveBasis.window enumerates around v (in its order on
    # Z^d, where the distances carry no rounding), searches them, and couples them as its own
    lattice, table, v, radius = case
    q = FourierPotential(lattice, table)
    gamma0, t = lattice.split(v)
    inner, outer = oracle._windows(q, gamma0.coords, radius, refine=True)
    k = len(inner)
    assert inner.coords.tobytes() == outer.coords[:k].tobytes()
    rng = np.random.default_rng(len(outer))
    beyond = rng.integers(1, 4, (6, lattice.dimension))
    targets = np.concatenate([inner.coords[rng.integers(0, k, 8)], outer.coords[k + rng.permutation(len(outer) - k)[:8]],
                              outer.coords.max(axis=0) + beyond, outer.coords.min(axis=0) - beyond])
    for basis, r in ((inner, radius), (outer, 1.5 * radius)):
        reference = PlanewaveBasis.window(lattice, t, v, r)
        assert basis.embeddings.tobytes() == lattice.embed(basis.coords).tobytes()
        if lattice.is_integral:
            assert basis.coords.tobytes() == reference.coords.tobytes()
            assert basis.embeddings.tobytes() == reference.embeddings.tobytes()
        else:
            assert as_rows(basis.coords) == as_rows(reference.coords)
        rows = basis.positions(targets)
        found = rows >= 0
        assert np.array_equal(found, reference.positions(targets) >= 0)
        assert np.array_equal(basis.coords[rows[found]], targets[found])
    # both windows derive from the origin window, whose couplings q keeps read-only
    root = q.origin_window(1.5 * radius)
    assert inner.root[0] is root and outer.root[0] is root
    assert inner.root[1].tolist() == outer.root[1].tolist() == list(gamma0.coords)
    columns, values = q.coupling_table(root)
    assert not columns.flags.writeable and not values.flags.writeable
    want = q._coupling_table(PlanewaveBasis(lattice, outer.coords))
    assert columns.tobytes() == want[0].tobytes() and values.tobytes() == want[1].tobytes()


def first_order_shift(q, v, l: int) -> float:
    """The first-order level shift of gamma0's plane wave, relative to |v|^{2l}."""
    shift = float(v @ v) ** l
    terms = [(abs(q.coefficient(g)) ** 2, shift - float(np.sum((v + e) ** 2)) ** l)
             for g, e in zip(q.support, q.support_embeddings)]
    return sum(weight / gap for weight, gap in terms if gap)  # a wave as free as gamma0's has no finite term


def tracked_outcome(q, v, radius, l, preds, hw, refine):
    """track_dominant's spectrum as bytes and diagnostics, or the WindowNotConverged message."""
    try:
        s = pb.track_dominant(q.lattice, l, q, v, radius, preds, hw, refine=refine)
    except WindowNotConverged as exc:
        return str(exc)
    return s.basis.coords.tobytes(), s.eigenvalues_rel.tobytes(), s.coefficients.tobytes(), s.diagnostics


@settings(max_examples=40, deadline=None)
@given(case=translated_windows(reach=1.0), l=st.sampled_from([1, 2]), refine=st.booleans(),
       step=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       grow=st.floats(0.1, 1.0), offset=st.floats(-1.0, 1.0), hw=st.floats(0.01, 1.0))
def test_tracked_pair_does_not_depend_on_call_history(case, l, refine, step, grow, offset, hw):
    # the same pair, bit for bit, on a cold cache and on one warmed by another center
    # at this radius or by another radius; likewise the dense solve
    lattice, table, v, radius = case
    w = v + np.array(step[:lattice.dimension])
    preds = [first_order_shift(FourierPotential(lattice, table), v, l) + offset * hw]
    cold = tracked_outcome(FourierPotential(lattice, table), v, radius, l, preds, hw, refine)
    for warm_center, warm_radius in ((w, radius), (v, radius + grow), (w, radius + grow)):
        q = FourierPotential(lattice, table)
        tracked_outcome(q, warm_center, warm_radius, l, preds, hw, refine)
        assert tracked_outcome(q, v, radius, l, preds, hw, refine) == cold
    try:
        want = pb.bloch_solve(lattice, l, FourierPotential(lattice, table), v, radius).eigenvalues.tobytes()
    except WindowNotConverged:
        return
    q = FourierPotential(lattice, table)
    tracked_outcome(q, w, radius, l, preds, hw, refine)
    assert pb.bloch_solve(lattice, l, q, v, radius).eigenvalues.tobytes() == want


@settings(max_examples=30, deadline=None)
@given(case=translated_windows(), factor=st.floats(0.5, 2.0).filter(lambda f: f != 1.0))
def test_tables_on_one_support_keep_their_own_couplings(case, factor):
    lattice, table, v, radius = case
    scaled = {g: factor * value for g, value in table.items()}
    # a subnormal coefficient (say 5e-324j) scaled by 0.5 rounds to 0: another support
    assume(all(value != 0 for value in scaled.values()))
    first = FourierPotential(lattice, table)
    second = FourierPotential(lattice, scaled)
    assert first.support == second.support
    gamma0 = lattice.split(v)[0].coords
    for q in (first, second):
        outer = oracle._windows(q, gamma0, radius, refine=True)[1]
        columns, values = q.coupling_table(outer.root[0])
        want = q._coupling_table(PlanewaveBasis(lattice, outer.coords))
        assert columns.tobytes() == want[0].tobytes() and values.tobytes() == want[1].tobytes()
    if first.support:
        assert not np.array_equal(first.coupling_table(first.origin_window(1.5 * radius))[1],
                                  second.coupling_table(second.origin_window(1.5 * radius))[1])


DERIVED_LATTICES = {"Z2": np.eye(2), "Z3": np.eye(3), "oblique2": np.array(OBLIQUE[2]),
                    "oblique3": np.array(OBLIQUE[3])}


def derived_set(kind, q, v, radius, directions, b_radius, a_radius):
    """(set, t): the inner or outer window around v (refined to 1.5 radius), or the resonant block at v."""
    if kind == "block":
        index_set = pb.build_index_set(q.lattice, v, directions, b_radius=b_radius, a_radius=a_radius)
        return index_set, index_set.t
    gamma0, t = q.lattice.split(v)
    inner, outer = oracle._windows(q, gamma0.coords, radius, refine=True)
    return (inner if kind == "inner" else outer), t


def sparse_bytes(H):
    return H.dtype, H.diagonal().tobytes(), H.columns.tobytes(), H.values.tobytes(), csc_bytes(H.tocsc())


@settings(max_examples=80, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(DERIVED_LATTICES)), even=st.booleans(),
       kind=st.sampled_from(["inner", "outer", "block"]), warm=st.sampled_from(["cold", "table", "grown", "kind"]),
       l=st.sampled_from([1, 2]))
def test_sparse_operator_of_a_derived_set_is_that_of_a_fresh_set(data, name, even, kind, warm, l):
    # a window or a resonant block reads its root's kept couplings: its sparse operator is
    # bit for bit the one over a fresh set of its rows, on a cold memo and on one that
    # another table, a larger window or block shape, or a set of another kind has used first
    lattice = pb.LatticeModel(2 * np.pi * DERIVED_LATTICES[name])
    d = lattice.dimension
    table = hermitian_table(data.draw, lattice)
    q, other = FourierPotential(lattice, table), FourierPotential(lattice, {g: 0.5 * c for g, c in table.items()})
    if even:
        q, other = q.even_translate(), other.even_translate()
        assume(q is not None)
    v = np.array(data.draw(st.tuples(*([st.floats(-20.0, 20.0)] * d))))
    radius = q.support_radius + data.draw(st.floats(0.0, 1.5))
    coords = data.draw(st.lists(st.tuples(*([st.integers(-2, 2)] * d)).filter(any), min_size=1, max_size=d - 1,
                                unique=True))
    assume(integer_rank(coords) == len(coords))
    directions = [lattice.vector(g) for g in coords]
    b_radius = data.draw(st.floats(0.5, 2.5)) * min(float(np.linalg.norm(g.embedding)) for g in directions)
    a_radius = data.draw(st.floats(0.3, 2.0))
    if warm != "cold":
        first, grow = (other, 0.0) if warm == "table" else (q, 0.5 if warm == "grown" else 0.0)
        other_kind = {"block": "outer", "inner": "block", "outer": "block"}[kind] if warm == "kind" else kind
        index_set, t = derived_set(other_kind, first, v, radius + grow, directions, b_radius, a_radius + grow)
        pb.assemble(l, first, t, index_set, shift_center=v, sparse=True)
    index_set, t = derived_set(kind, q, v, radius, directions, b_radius, a_radius)
    assert index_set.root[0] is not index_set
    H = pb.assemble(l, q, t, index_set, shift_center=v, sparse=True)
    cold = FourierPotential(lattice, {g: q.coefficient(g) for g in q.support})  # q's table, nothing kept
    want = pb.assemble(l, cold, t, PlanewaveBasis(lattice, index_set.coords), shift_center=v, sparse=True)
    assert sparse_bytes(H) == sparse_bytes(want)
    if even:
        assert H.real.dtype == np.float64 and H.real.values.flags.c_contiguous
        assert sparse_bytes(H.real) == sparse_bytes(want.real)
        assert np.array_equal(H.real.toarray(), want.toarray().real)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_window_operator_matches_the_reference_csc_in_every_leading_block(case):
    lattice, q, vectors, t, l, v = case
    basis = PlanewaveBasis(lattice, [h.coords for h in vectors])
    op = pb.assemble(l, q, t, basis, shift_center=v, sparse=True)
    n = len(basis)
    assert op.shape == (n, n) and op.columns.shape == op.values.shape
    assert np.array_equal(op.toarray(), pb.assemble(l, q, t, basis, shift_center=v))
    rng = np.random.default_rng(n)
    for k in range(1, n + 1):
        block = pb.assemble(l, q, t, basis.leading(k), shift_center=v, sparse=True)
        leading = PlanewaveBasis(lattice, basis.coords[:k])
        want = reference_csc(l, q, t, leading, v)
        dense = block.toarray()
        # exactly Hermitian, even on tables Hermitian only to the loader's tolerance
        assert np.array_equal(dense, dense.conj().T)
        assert dense.tobytes() == reference_csc(l, q, t, leading, v, dense=True).tobytes()
        assert csc_bytes(block.tocsc()) == csc_bytes(want)
        assert block.column_nonzeros() == int(np.diff(want.indptr).max())
        norm1 = float(abs(want).sum(axis=0).max())
        assert abs(block.one_norm() - norm1) <= 8 * k * EPS * norm1
        x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        y = np.abs(x)
        # each product's rounding is within (m + 2) eps |H| |x| entrywise, m the nonzeros per column
        bound = 2 * (block.column_nonzeros() + 2) * EPS * (abs(want) @ y)
        assert np.all(np.abs(block @ x - want @ x) <= bound)
        assert np.all(np.abs(abs(block) @ y - abs(want) @ y) <= bound)


def test_window_operator_of_an_empty_table_is_its_diagonal(z2):
    basis = PlanewaveBasis.full_ball(z2, 2.5)
    t, v = np.array([0.1, 0.2]), np.array([3.1, 4.2])
    q = FourierPotential(z2, {})
    op = pb.assemble(2, q, t, basis, shift_center=v, sparse=True)
    energies = relative_energies(v, basis.embeddings + t, 2)
    assert op.columns.shape == (0, len(basis))
    assert op.diagonal().tobytes() == energies.tobytes()
    x = np.arange(len(basis)) + 1j
    assert np.array_equal(op @ x, energies * x)
    assert op.one_norm() == np.max(np.abs(energies)) and op.column_nonzeros() == 1
    assert csc_bytes(op.tocsc()) == csc_bytes(reference_csc(2, q, t, basis, v))
    leading = pb.assemble(2, q, t, basis.leading(5), shift_center=v, sparse=True)
    assert csc_bytes(leading.tocsc()) == csc_bytes(reference_csc(2, q, t, PlanewaveBasis(z2, basis.coords[:5]), v))
