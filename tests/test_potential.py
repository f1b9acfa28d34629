import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polybloch as pb
from conftest import to_records
from polybloch import potential
from polybloch.potential import FourierPotential

SUPPORT_LATTICES = {
    "Z2": np.eye(2),
    "Z3": np.eye(3),
    "hexagonal": np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]),
    "oblique": np.array([[1.0, 0.0, 0.0], [0.31, 1.13, 0.0], [0.17, -0.29, 0.91]]),
}


def vector_support(q):
    """(support, support radius) from one LatticeVector per support vector, the form the arrays replaced."""
    vectors = [q.lattice.vector(r["n"]) for r in to_records(q)]
    support = tuple(v.coords for v in sorted(vectors, key=lambda v: (float(v.embedding @ v.embedding), v.coords)))
    return support, max((float(np.sqrt(float(v.embedding @ v.embedding))) for v in vectors), default=0.0)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(SUPPORT_LATTICES)))
def test_support_arrays_match_the_lattice_vector_form(data, name):
    lattice = pb.LatticeModel(2 * np.pi * SUPPORT_LATTICES[name])
    point = st.tuples(*([st.integers(-4, 4)] * lattice.dimension))
    rows = data.draw(st.lists(point, max_size=12, unique=True))
    q = FourierPotential(lattice, {g: complex(i + 1, -i) for i, g in enumerate(rows)})
    support, radius = vector_support(q)
    assert q.support == support and q.support_radius == radius
    assert q.support_embeddings.tobytes() == lattice.embed(np.array(support).reshape(-1, lattice.dimension)).tobytes()


class TestValidate:
    def test_zero_potential_passes(self, z2):
        report = FourierPotential(z2, {}).validate()
        assert report.passed

    def test_cosine_passes(self, cosine):
        assert cosine.validate().passed

    def test_zero_mean_violation(self, z2):
        bad = FourierPotential(z2, {(0, 0): 0.5})
        report = bad.validate()
        assert not report.passed
        assert any("zero-mean" in v for v in report.violations)

    def test_hermitian_violation(self, z2):
        bad = FourierPotential(z2, {(1, 0): 1.0, (-1, 0): 2.0})
        report = bad.validate()
        assert not report.passed
        assert any("Hermitian" in v for v in report.violations)

    def test_complex_pair_passes(self, z2):
        good = FourierPotential(z2, {(1, 1): 0.3 + 0.4j, (-1, -1): 0.3 - 0.4j})
        assert good.validate().passed


class TestTruncate:
    def test_inside_radius_unchanged(self, cosine):
        kept, tail = cosine.truncate(2.0)
        assert tail == 0.0
        assert kept.support == cosine.support

    def test_dropped_tail_hand_sum(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (3, 0)], 1.0)
        kept, tail = q.truncate(2.0)
        assert sorted(kept.support) == [(-1, 0), (1, 0)]
        assert tail == pytest.approx(2.0)  # |q_(3,0)| + |q_(-3,0)|

    def test_zero_potential(self, z2):
        kept, tail = FourierPotential(z2, {}).truncate(5.0)
        assert not kept.support and tail == 0.0

    def test_tail_monotone_to_zero(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (2, 1), (0, 3)], 0.5)
        tails = [q.truncate(r)[1] for r in (0.5, 1.5, 2.5, 3.5, 4.0)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        assert tails[-1] == 0.0

    def test_one_norm_reported(self, z2):
        q = pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.2)
        assert q.one_norm() == pytest.approx(0.8)


class TestRandomPotential:
    def test_zero_budget(self):
        q = pb.random_potential(seed=1, lattice=pb.LatticeModel.cubic(2), support_radius=3, s=2.0, norm_budget=0.0)
        assert not q.support

    def test_determinism(self):
        a = pb.random_potential(seed=7, lattice=pb.LatticeModel.cubic(2), support_radius=3, s=2.0, norm_budget=1.0)
        b = pb.random_potential(seed=7, lattice=pb.LatticeModel.cubic(2), support_radius=3, s=2.0, norm_budget=1.0)
        assert a.support == b.support
        for c in a.support:
            assert a.coefficient(c) == b.coefficient(c)

    def test_validates_and_respects_budget(self):
        q = pb.random_potential(seed=7, lattice=pb.LatticeModel.cubic(2), support_radius=3, s=2.0, norm_budget=1.0)
        assert q.validate().passed
        assert q.sobolev_weight() <= 1.0
        assert q.support

    def test_support_radius_precondition(self):
        with pytest.raises(ValueError):
            pb.random_potential(seed=1, lattice=pb.LatticeModel.cubic(2), support_radius=0.5, s=2.0, norm_budget=1.0)

    def test_d3(self):
        q = pb.random_potential(seed=5, lattice=pb.LatticeModel.cubic(3), support_radius=2, s=1.0, norm_budget=0.5)
        assert q.validate().passed
        assert q.lattice.dimension == 3


class TestSerialization:
    def test_roundtrip(self, z2, tmp_path):
        q = pb.cosine_sum(z2, [(1, 0), (1, 1)], 0.25)
        path = tmp_path / "pot.json"
        path.write_text(json.dumps(to_records(q)))
        loaded = pb.load_potential(path, z2, smoothness=q.smoothness)
        assert loaded.support == q.support
        for c in q.support:
            assert loaded.coefficient(c) == pytest.approx(q.coefficient(c))

    def test_loader_rejects_invalid(self, z2, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"n": [0, 0], "re": 0.5, "im": 0.0}]')
        with pytest.raises(ValueError, match="zero-mean"):
            pb.load_potential(path, z2, 0.0)

    def test_loader_rejects_non_hermitian(self, z2, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"n": [1, 0], "re": 1.0, "im": 0.0}]')
        with pytest.raises(ValueError, match="Hermitian"):
            pb.load_potential(path, z2, 0.0)

    @pytest.mark.parametrize("plus, minus, match", [
        ([1, 0, 0], [-1, 0, 0], "2 integers"),  # a Z^3 index on Z^2 is not re-embedded
        ([1], [-1], "2 integers"),
        ([1.5, 0], [-1.5, 0], "2 integers"),  # not read as (1, 0)
        ([True, 0], [-1, 0], "2 integers"),
        ("10", [-1, 0], "2 integers"),
        ([1, 0], [1, 0], "appears twice"),  # the later value would replace the earlier
    ])
    def test_loader_rejects_malformed_n(self, z2, tmp_path, plus, minus, match):
        records = [{"n": plus, "re": 0.1, "im": 0.0}, {"n": minus, "re": 0.1, "im": 0.0}]
        with pytest.raises(ValueError, match=match):
            FourierPotential.from_records(z2, records, 0.0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(records))
        with pytest.raises(ValueError, match=match):
            pb.load_potential(path, z2, 0.0)

    def test_loader_reads_numpy_integers(self, z2):
        records = [{"n": list(np.array(g)), "re": 0.1, "im": 0.0} for g in ((1, 0), (-1, 0))]
        assert FourierPotential.from_records(z2, records, 0.0).support == ((-1, 0), (1, 0))


def test_scaling_homogeneity(z2):
    q = pb.cosine_pair(z2, (1, 0), 1.0)
    assert q.scaled(0.25).coefficient((1, 0)) == pytest.approx(0.25)
    assert q.scaled(0.25).one_norm() == pytest.approx(0.5)


def translated(table, lattice, a):
    """The table of q(x + x0), (g, x0) = a . g on integer coordinates g."""
    return FourierPotential(lattice, {g: z * np.exp(1j * np.dot(g, a)) for g, z in table.items()})


def even(pairs):
    """A real even table from {g: q_g} on one g of each pair."""
    table = dict(pairs)
    table.update({tuple(-c for c in g): z for g, z in pairs.items()})
    return table


class TestEvenTranslate:
    @pytest.mark.parametrize("make", [lambda z2: pb.cosine_pair(z2, (1, 0), 0.1),
                                      lambda z2: pb.cosine_sum(z2, [(1, 0), (0, 1)], 0.2)])
    def test_real_table_is_its_own_translate(self, z2, make):
        q = make(z2)
        assert to_records(q.even_translate()) == to_records(q)  # x0 = 0

    def test_zero_table(self, z2):
        assert not FourierPotential(z2, {}).even_translate().support

    @pytest.mark.parametrize("pairs, a", [
        # (1, 0) is half the sum of the other two, whose phases fix its own only
        # up to sign: with q_(1,1) negative, making both positive leaves q_(1,0) imaginary
        ({(1, 1): -0.3, (1, -1): 0.2, (1, 0): 0.25}, (0.7, -1.3)),
        # (1, 3) is a third of (3, 0) plus three times (0, 1): only a basis of the
        # lattice all three generate fixes the phases, no choice of signs on the two shortest
        ({(3, 0): 0.3, (0, 1): -0.2, (1, 3): 0.25}, (2.0, 0.0)),
    ])
    def test_translate_of_a_real_table_with_dependent_pairs(self, z2, pairs, a):
        q = translated(even(pairs), z2, a)
        assert max(abs(q.coefficient(g).imag) for g in q.support) > 0.05
        found = q.even_translate()
        assert found is not None and found.is_invariant(-np.eye(2, dtype=int))
        assert all(r["im"] == 0.0 for r in to_records(found))
        assert found.support == q.support
        assert [abs(found.coefficient(g)) for g in q.support] == pytest.approx([abs(q.coefficient(g)) for g in q.support])

    def test_eigenvalue_table_is_computed_once(self, z2, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(rows)
            return integer_row_basis(rows)

        integer_row_basis = potential.integer_row_basis
        monkeypatch.setattr(potential, "integer_row_basis", counted)
        q = translated(even({(1, 0): 0.3, (0, 1): -0.2}), z2, (0.7, -1.3))
        first = q.eigenvalue_table()
        assert first.is_real and q.eigenvalue_table() is first and len(calls) == 1

    def test_three_generic_pairs_have_none(self, z2):
        pairs = {(1, 0): np.exp(1.0j), (0, 1): 0.5 * np.exp(2.0j), (1, 1): 0.7 * np.exp(0.3j)}
        table = {**pairs, **{tuple(-c for c in g): np.conj(z) for g, z in pairs.items()}}
        assert FourierPotential(z2, table).even_translate() is None
