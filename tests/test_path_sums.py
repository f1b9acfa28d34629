"""The one path-sum walk of polybloch.series against the tuple walkers it replaced.

The references (reference_path_sums) walk each series order on its own and
run the itertools chains of the coefficient predictions.  The walk keeps
their arithmetic: S_j, counts and floors are bitwise equal on every
lattice, and so are coefficient predictions, whose walk embeds each
partial sum afresh, as the chains do (the S_j walk accumulates it along
the path, as its reference does).
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import polybloch as pb
from polybloch import series
from polybloch.errors import SmallDenominator
from polybloch.numerics import power_difference
from polybloch.potential import FourierPotential
from polybloch.series import _assert_real, _path_sums, _series_pool
from polybloch.simple import _reachable_offsets
from reference_path_sums import coefficient_prediction, reference_coefficient, reference_series

TWO_PI = 2 * np.pi


def bits(values):
    """Exact bit patterns of floats or complex numbers (-0.0 and 0.0 differ)."""
    return [(complex(c).real.hex(), complex(c).imag.hex()) for c in values]


@st.composite
def tables(draw):
    """(q, v, l, a_rel): a random Hermitian table on a square or oblique lattice, d = 2 or 3."""
    d = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        lattice = pb.LatticeModel.cubic(d)
    else:
        basis = np.eye(d)
        for i in range(d):
            basis[i, i] = draw(st.floats(0.7, 1.4))
            for j in range(i):
                basis[i, j] = draw(st.floats(-0.4, 0.4))
        lattice = pb.LatticeModel(TWO_PI * basis)
    table = {}
    for _ in range(draw(st.integers(1, 4 if d == 2 else 3))):
        g = tuple(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)))
        if not any(g):
            continue
        value = complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
        table[g] = value
        table[tuple(-c for c in g)] = value.conjugate()
    q = FourierPotential(lattice, table)
    direction = np.array(draw(st.lists(st.floats(-1, 1), min_size=d, max_size=d)))
    if not np.linalg.norm(direction) > 0.1:
        direction = np.ones(d)
    v = draw(st.floats(3.0, 30.0)) * direction / np.linalg.norm(direction)
    return q, v, draw(st.sampled_from([1, 2])), draw(st.floats(-1.0, 1.0))


def outcome(fn):
    try:
        return fn()
    except SmallDenominator:
        return "SmallDenominator"


@settings(max_examples=120, deadline=None)
@given(tables(), st.integers(1, 4), st.sampled_from([None, 0.0, 0.5, 1.0, 2.0]))
def test_walk_matches_the_per_order_walks(case, k, floor_share):
    """S_1..S_k, counts and floor bitwise; SmallDenominator exactly when the reference raises it.

    floor_share sets the walks' min_denominator to that share of the
    reference floor (share 1.0 puts it exactly on the floor), or to
    evaluate_series' floor, at which evaluate_series is checked in every case.
    """
    q, v, l, a_rel = case
    q_eff, pool = _series_pool(q, None)
    default = 1e-12 * (1.0 + abs(a_rel))
    if floor_share is None:
        min_denominator = default
    else:
        floor = outcome(lambda: reference_series(a_rel, v, l, q_eff, k, pool, 0.0)[1])
        min_denominator = floor_share * floor if floor != "SmallDenominator" and np.isfinite(floor) else 0.0

    def walk():
        sums, floor, contributing, admissible = _path_sums(a_rel, v, l, q_eff, pool, k, min_denominator)
        assert sums[0] == 0j and contributing[0] == admissible[0] == 0  # the origin is no node
        return tuple(sums[1:]), floor, tuple(contributing[1:]), tuple(admissible[1:])

    got = outcome(walk)
    want = outcome(lambda: reference_series(a_rel, v, l, q_eff, k, pool, min_denominator))
    event(f"reference raises: {want == 'SmallDenominator'}")
    if want == "SmallDenominator":
        assert got == want
    else:
        assert got != "SmallDenominator"
        assert bits(got[0]) == bits(want[0])
        assert got[1:] == want[1:] and bits([got[1]]) == bits([want[1]])
        for j in range(1, k + 1):
            total, floor, contributing, admissible = series._sum_order(a_rel, v, l, q_eff, j, pool, min_denominator)
            reference = reference_series(a_rel, v, l, q_eff, j, pool, min_denominator)
            assert bits([total]) == bits([reference[0][-1]])
            assert (floor, contributing, admissible) == (reference[1], reference[2][-1], reference[3][-1])
    at_default = want if min_denominator == default else outcome(
        lambda: reference_series(a_rel, v, l, q_eff, k, pool, default))
    if at_default == "SmallDenominator":
        with pytest.raises(SmallDenominator):
            pb.evaluate_series(a_rel, v, l, q, k)
        return
    try:
        reals = [_assert_real(s, "S") for s in at_default[0]]
    except ValueError:
        with pytest.raises(ValueError):
            pb.evaluate_series(a_rel, v, l, q, k)
        return
    ev = pb.evaluate_series(a_rel, v, l, q, k)
    assert bits(ev.values) == bits(reals)
    assert (ev.denominator_floor, ev.term_counts, ev.admissible_counts) == at_default[1:]


@settings(max_examples=120, deadline=None)
@given(tables(), st.integers(1, 4), st.floats(-0.5, 0.5), st.data())
def test_coefficient_predictions_match_the_chains(case, k, known_rel, data):
    """Bitwise on every lattice."""
    q, v, l, _ = case
    if not q.support:
        return
    offset = data.draw(st.sampled_from(q.support))
    if data.draw(st.booleans()):  # a two-step offset, often outside the support
        second = data.draw(st.sampled_from(q.support))
        offset = tuple(a + b for a, b in zip(offset, second))
        if not any(offset):
            return
    try:
        want, _ = reference_coefficient(v, l, q, offset, k, known_rel)
    except ZeroDivisionError:
        want = None
    try:
        got = coefficient_prediction(v, l, q, offset, k, known_rel)
    except SmallDenominator as err:
        assert err.floor == 0.0  # the guard trips on an exactly zero denominator only
        return
    assert want is not None
    cubic = np.array_equal(q.lattice.dual_basis, np.eye(q.lattice.dimension))
    event(f"{'cubic' if cubic else 'oblique'}, d = {q.lattice.dimension}")
    assert bits([got]) == bits([want])


def test_coefficient_prediction_over_a_small_denominator_on_an_oblique_lattice():
    # the node (1, 0)'s denominator is 0.0018 (known part 0.453 against a free shift
    # of 0.451), so the ulps of an embedding accumulated along the path moved A_2 by
    # 2.5e-11 (3e-13 relative); embedded afresh it is the chains' value
    lattice = pb.LatticeModel(TWO_PI * np.array([[1.25, 0.0], [-0.3984375, 1.36328125]]))
    q = FourierPotential(lattice, {(1, 0): 1j, (-1, 0): -1j, (1, 1): 1j, (-1, -1): -1j})
    v = np.array([0.9807192344984071, -2.8351701506408498])
    want, scale = reference_coefficient(v, 1, q, (-2, -1), 2, 0.453125)
    got = coefficient_prediction(v, 1, q, (-2, -1), 2, 0.453125)
    assert bits([got]) == bits([want]) and abs(got - want) <= 1e-13 * scale


def test_each_node_denominator_is_computed_once(z2, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return power_difference(*args)

    monkeypatch.setattr(series, "power_difference", counted)
    q = pb.cosine_sum(z2, [(1, 0), (0, 1), (1, 1)], 0.2)
    for k in (1, 3, 4):
        calls.clear()
        ev = pb.evaluate_series(0.0, np.array([5.3, 4.2]), 1, q, k)
        assert len(calls) == sum(ev.admissible_counts)


def test_zero_free_denominator_is_a_small_denominator(z2):
    # v = (0.5, 10) lies on the bisector of (-1, 0): |v|^2 = |v - (1, 0)|^2 exactly
    q = pb.cosine_pair(z2, (1, 0), 0.2)
    with pytest.raises(SmallDenominator) as err:
        coefficient_prediction(np.array([0.5, 10.0]), 1, q, (-1, 0), 1, 0.0)
    assert err.value.floor == 0.0


@pytest.mark.parametrize("order", [2, 3, 4])
def test_bloch_verify_predictions_match_the_chains(z2, order):
    """Each row's A_1 and total, and the predicted normalization, from the chains, bitwise on Z^2."""
    q = FourierPotential(z2, {(1, 0): 0.08 + 0.03j, (-1, 0): 0.08 - 0.03j,
                              (1, 1): -0.05 + 0.02j, (-1, -1): -0.05 - 0.02j})
    v = np.array([5.3, 4.2])
    spec = pb.bloch_solve(z2, 1, q, v, 6.0)
    gamma0, _ = z2.reduce(v)
    known_rel = 0.01
    report = pb.bloch_verify(spec, spec.dominant_index(gamma0.coords), gamma0.coords, order, q, known_rel)
    v = z2.embed(gamma0.coords) + spec.t

    def chain(offset, k):
        return reference_coefficient(v, 1, q, offset, k, known_rel)[0]

    for row in report.rows:
        assert bits([row.predicted_first_order]) == bits([chain(row.offset, 1)])
        assert bits([row.predicted_total]) == bits([sum(chain(row.offset, k) for k in range(1, max(order, 2)))])
    acc = 0.0
    offsets = _reachable_offsets(q, order - 1)
    for k in range(1, order):
        for off in offsets:
            acc += abs(chain(off, k)) ** 2
    assert bits([report.normalization_predicted]) == bits([float(1.0 / np.sqrt(1.0 + acc))])
