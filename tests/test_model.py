"""Spaces, models, generators, and instance serialization."""

import json
from dataclasses import fields
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doptdesign import model as M


# ---------------------------------------------------------------------------
# ExperimentSpace
# ---------------------------------------------------------------------------


def brute_enumerate(space):
    """Independent oracle: test every grid point with exact membership."""
    ranges = [range(space.L)] * space.d
    return [x for x in product(*ranges) if space.contains(x)]


def test_contains_box_only():
    space = M.ExperimentSpace(d=3, L=2)
    assert space.contains((0, 0, 0))
    assert space.contains((1, 1, 1))
    assert not space.contains((2, 0, 0))
    assert not space.contains((0, -1, 0))
    assert not space.contains((0, 0))
    assert not space.contains("000")


def test_contains_fixed_first():
    space = M.ExperimentSpace(d=3, L=2, fixed_first=True)
    assert space.contains((1, 0, 1))
    assert not space.contains((0, 0, 1))


def test_contains_is_exact_on_rationals():
    # 1/3 x1 + 1/3 x2 <= 2/3: (1,1) feasible only with exact arithmetic
    row = (Fraction(1, 3), Fraction(1, 3))
    space = M.ExperimentSpace(d=2, L=2, constraints=((row, Fraction(2, 3)),))
    assert space.contains((1, 1))
    assert space.contains((0, 1))


def test_constraint_row_length_checked():
    with pytest.raises(ValueError):
        M.ExperimentSpace(d=3, L=2, constraints=(((1, 1), 1),))


@given(
    d=st.integers(1, 4),
    L=st.integers(2, 3),
    rhs=st.integers(0, 6),
    seed=st.integers(0, 10),
)
@settings(max_examples=40, deadline=None)
def test_enumerate_matches_bruteforce_oracle(d, L, rhs, seed):
    rng = M.make_rng(seed)
    row = tuple(Fraction(int(c)) for c in rng.integers(0, 4, size=d))
    space = M.ExperimentSpace(d=d, L=L, constraints=((row, Fraction(rhs)),))
    got = [tuple(x) for x in M.enumerate_space(space)]
    assert got == brute_enumerate(space)


def fraction_member(space, x):
    """Independent oracle: the box, the pin and each row in Fraction arithmetic."""
    if any(v < 0 or v >= space.L for v in x):
        return False
    if space.fixed_first and x[0] != 1:
        return False
    return all(
        sum(c * int(v) for c, v in zip(row, x)) <= rhs for row, rhs in space.constraints
    )


rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7))


@given(
    d=st.integers(1, 4),
    L=st.integers(2, 3),
    fixed_first=st.booleans(),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_contains_feasible_and_enumerate_agree_on_rational_rows(d, L, fixed_first, data):
    n_rows = data.draw(st.integers(0, 2))
    constraints = tuple(
        (
            tuple(data.draw(rationals) for _ in range(d)),
            data.draw(st.builds(Fraction, st.integers(-4, 20), st.integers(1, 7))),
        )
        for _ in range(n_rows)
    )
    space = M.ExperimentSpace(d=d, L=L, constraints=constraints, fixed_first=fixed_first)
    grid = list(product(range(L), repeat=d))
    member = [fraction_member(space, x) for x in grid]
    assert [space.contains(x) for x in grid] == member
    assert space.feasible(np.array(grid)).tolist() == member
    for block in (1, 3, 7, M.SAMPLE_BLOCK):  # enumeration streams the box in blocks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(M, "SAMPLE_BLOCK", block)
            X = M.enumerate_space(space)
        assert X.dtype == np.int64 and X.shape == (member.count(True), d)
        assert [tuple(x) for x in X] == [x for x, ok in zip(grid, member) if ok]


def test_enumerate_agrees_with_contains_just_below_integer_rhs():
    # x1 + x2 <= 0.999999999999: only the origin; a float slack of 1e-9 let
    # (0, 1) and (1, 0) into the enumeration while contains rejected them
    space = M.ExperimentSpace(
        d=2, L=2, constraints=(((1, 1), Fraction(999999999999, 10**12)),)
    )
    assert not space.contains((1, 0)) and not space.contains((0, 1))
    assert M.enumerate_space(space).tolist() == [[0, 0]]


def test_feasible_matches_contains_off_the_grid():
    space = M.ExperimentSpace(
        d=2, L=3, constraints=(((Fraction(1, 2), Fraction(1, 3)), Fraction(1)),),
        fixed_first=True,
    )
    X = [(1, 0), (1, 1), (1, 2), (0, 0), (1, 3), (1, -1), (2, 2), (1.5, 0), (1.0, 1.0)]
    assert space.feasible(np.array(X, dtype=float)).tolist() == [
        space.contains(x) for x in X
    ]
    assert space.feasible(np.array(X[:7])).tolist() == [space.contains(x) for x in X[:7]]
    with pytest.raises(ValueError):
        space.feasible(np.zeros((2, 3)))


@pytest.mark.parametrize("constraints", [(), (((1, 1), 2),)])
def test_coordinates_beyond_int64_are_outside(constraints):
    space = M.ExperimentSpace(d=2, L=3, constraints=constraints)
    X = [(2**70, 0), (0, -(2**70)), (1, 1)]
    assert [space.contains(x) for x in X] == [False, False, True]
    assert space.feasible(np.array(X, dtype=object)).tolist() == [False, False, True]


def test_integer_rows_scale_each_row_by_its_denominator_lcm():
    space = M.ExperimentSpace(
        d=3,
        L=2,
        constraints=(
            ((Fraction(1, 2), Fraction(1, 3), 1), Fraction(5, 4)),
            ((2, 0, 1), 3),
        ),
    )
    assert space._A_int.tolist() == [[6, 4, 12], [2, 0, 1]]
    assert space._b_int.tolist() == [15, 3]


def test_huge_rows_stay_exact():
    # row sums past int64 switch the kernel to Python integers
    tiny = Fraction(1, 10**18)
    space = M.ExperimentSpace(
        d=2, L=3, constraints=(((tiny, Fraction(3, 7)), Fraction(1, 2 * 10**18)),)
    )
    grid = list(product(range(3), repeat=2))
    assert space._A_int.dtype == object
    member = [fraction_member(space, x) for x in grid]
    assert member.count(True) == 1
    assert [space.contains(x) for x in grid] == member
    assert space.feasible(np.array(grid)).tolist() == member


def test_integer_rows_are_not_fields():
    # equality, hashing and serialization see only the rational constraints
    inst = M.generate_knapsack_instance(7, seed=1)
    again = M.instance_from_json(M.instance_to_json(inst))
    assert again == inst and hash(again.space) == hash(inst.space)
    assert [f.name for f in fields(M.ExperimentSpace)] == [
        "d", "L", "constraints", "fixed_first"
    ]
    assert M.instance_hash(again) == M.instance_hash(inst)


def test_enumerate_is_lexicographic():
    space = M.ExperimentSpace(d=3, L=2)
    X = M.enumerate_space(space)
    as_tuples = [tuple(x) for x in X]
    assert as_tuples == sorted(as_tuples)
    assert len(as_tuples) == 8


def test_enumerate_cap():
    space = M.ExperimentSpace(d=30, L=2)
    with pytest.raises(ValueError):
        M.enumerate_space(space)


# ---------------------------------------------------------------------------
# MonomialModel
# ---------------------------------------------------------------------------


def test_full_first_order_counts():
    m = M.build_full_first_order(5)
    assert m.p == 6 and m.d == 5 and m.order == 1
    assert m.exponents[0] == (0, 0, 0, 0, 0)


def test_second_order_pairs_counts():
    # pairs over 0-based factors 1..d//2
    m6 = M.build_second_order_pairs(6)
    assert m6.p == 1 + 6 + 3
    m11 = M.build_second_order_pairs(11)
    assert m11.p == 1 + 11 + 10


def test_eval_design_point_constant_is_one():
    m = M.build_full_first_order(4)
    v = M.eval_design_point(m, (0, 0, 0, 0))
    assert v[0] == 1 and np.all(v[1:] == 0)


def test_eval_second_order_products():
    m = M.build_second_order_pairs(4)
    x = (1, 1, 1, 0)
    v = m.evaluate(x)
    # constant, x1..x4, then x2*x3 (0-based factors 1 and 2)
    assert list(v) == [1, 1, 1, 1, 0, 1]


@given(seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_evaluate_many_matches_single(seed):
    rng = M.make_rng(seed)
    m = M.build_second_order_pairs(5)
    X = rng.integers(0, 2, size=(7, 5))
    V = m.evaluate_many(X)
    for i in range(7):
        assert np.array_equal(V[i], m.evaluate(X[i]))


def test_duplicate_monomials_rejected():
    with pytest.raises(ValueError):
        M.MonomialModel(((1, 0), (1, 0)))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def test_cardinality_instance_shape():
    inst = M.generate_cardinality_instance(6)
    assert inst.p == 7 and inst.k == 14
    (row, rhs), = inst.space.constraints
    assert all(c == 1 for c in row) and rhs == 2


def test_cardinality_rank_reachable():
    inst = M.generate_cardinality_instance(11)
    X = M.enumerate_space(inst.space)
    P = inst.model.evaluate_many(X)
    assert np.linalg.matrix_rank(P.astype(float)) == inst.p == 12


def test_knapsack_rows_structure():
    inst = M.generate_knapsack_instance(11, seed=7)
    assert len(inst.space.constraints) == 2
    for row, rhs in inst.space.constraints:
        assert row[0] == 0
        vals = [int(c) for c in row[1:]]
        low = [v for v in vals if v <= 5]
        high = [v for v in vals if v >= 20]
        assert len(low) == 8 and len(high) == 2  # ceil(0.8 * 10) = 8
        assert all(v <= 30 for v in high)
        assert rhs == Fraction(sum(vals), 2)


def test_knapsack_deterministic_in_seed():
    a = M.generate_knapsack_instance(9, seed=3)
    b = M.generate_knapsack_instance(9, seed=3)
    c = M.generate_knapsack_instance(9, seed=4)
    assert M.instance_hash(a) == M.instance_hash(b)
    assert M.instance_hash(a) != M.instance_hash(c)


def test_second_order_generator_model():
    inst = M.generate_second_order_knapsack_instance(11, seed=0)
    assert inst.p == 22 and inst.model.order == 2


def test_budget_below_p_rejected():
    with pytest.raises(ValueError):
        M.generate_knapsack_instance(5, k=3, seed=0)


def test_generator_registry_agrees():
    via_registry = M.GENERATORS["knapsack"](7, None, 2)
    direct = M.generate_knapsack_instance(7, seed=2)
    assert M.instance_hash(via_registry) == M.instance_hash(direct)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: M.generate_cardinality_instance(6),
        lambda: M.generate_knapsack_instance(16, seed=5),
        lambda: M.generate_second_order_knapsack_instance(8, seed=1),
    ],
)
def test_json_roundtrip(make):
    inst = make()
    again = M.instance_from_json(M.instance_to_json(inst))
    assert M.instance_hash(again) == M.instance_hash(inst)
    assert again.space.constraints == inst.space.constraints
    assert again.model.exponents == inst.model.exponents


def test_json_schema_fields():
    inst = M.generate_knapsack_instance(5, seed=0)
    data = json.loads(M.instance_to_json(inst))
    assert set(data) == {
        "d", "L", "k", "model", "constraints", "fixed_first",
        "seed", "generator", "rng",
    }
    assert data["rng"] == "pcg64"
    assert data["fixed_first"] is False


def test_fractional_rhs_serializes_as_pair():
    inst = M.generate_knapsack_instance(4, seed=0)
    data = json.loads(M.instance_to_json(inst))
    for entry in data["constraints"]:
        rhs = entry["rhs"]
        assert isinstance(rhs, int) or (isinstance(rhs, list) and len(rhs) == 2)
