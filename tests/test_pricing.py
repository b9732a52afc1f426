"""Pricing problem: heuristic ascent, enumeration, exact branch-and-bound, and
the rank completion that local search and column generation start from."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doptdesign import local_search as LS
from doptdesign import model as M
from doptdesign import pricing
from doptdesign import relaxation as R


def first_order_setting(d, L=2, constraints=(), fixed_first=False):
    space = M.ExperimentSpace(d=d, L=L, constraints=constraints, fixed_first=fixed_first)
    return space, M.build_full_first_order(d)


def random_sym(rng, p):
    A = rng.normal(size=(p, p))
    return 0.5 * (A + A.T)


# ---------------------------------------------------------------------------
# Heuristic
# ---------------------------------------------------------------------------


def test_heuristic_finds_identity_optimum():
    space, mono = first_order_setting(4)
    G = np.eye(mono.p)
    res = pricing.heuristic_search(G, space, mono, np.zeros(4, dtype=int))
    assert np.all(res.x == 1)  # all-ones maximizes 1 + sum(x)
    assert np.isclose(res.value, float(mono.p))
    assert not res.exact


def test_heuristic_respects_constraints():
    row = (1, 1, 1)
    space = M.ExperimentSpace(d=3, L=2, constraints=((row, 1),))
    mono = M.build_full_first_order(3)
    res = pricing.heuristic_search(np.eye(4), space, mono, np.zeros(3, dtype=int))
    assert space.contains(res.x)
    assert int(np.sum(res.x)) <= 1


def test_heuristic_rejects_infeasible_start():
    space = M.ExperimentSpace(d=2, L=2, fixed_first=True)
    mono = M.build_full_first_order(2)
    with pytest.raises(ValueError):
        pricing.heuristic_search(np.eye(3), space, mono, np.zeros(2, dtype=int))


@given(seed=st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_heuristic_is_local_optimum_and_below_exact(seed):
    rng = M.make_rng(seed)
    space, mono = first_order_setting(4)
    G = random_sym(rng, mono.p)
    res = pricing.heuristic_search(G, space, mono, np.zeros(4, dtype=int))
    exact = pricing.solve_enum(G, space, mono)
    assert res.value <= exact.value + 1e-12
    # no single-coordinate move improves
    for i in range(4):
        for delta in (1, -1):
            y = res.x.copy()
            y[i] += delta
            if space.contains(y):
                assert pricing.quad_value(G, mono.evaluate(y)) <= res.value + 1e-12


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enum_matches_dense_scan():
    rng = M.make_rng(7)
    space, mono = first_order_setting(3)
    G = random_sym(rng, mono.p)
    res = pricing.solve_enum(G, space, mono)
    X = M.enumerate_space(space)
    vals = [pricing.quad_value(G, mono.evaluate(x)) for x in X]
    assert np.isclose(res.value, max(vals))


def test_enum_tie_break_lexicographic():
    space, mono = first_order_setting(2)
    G = np.zeros((3, 3))  # every point ties at value 0
    res = pricing.solve_enum(G, space, mono)
    assert list(res.x) == [0, 0]


def test_enum_cap_raises():
    space, mono = first_order_setting(8)
    with pytest.raises(pricing.EnumerationCapError):
        pricing.solve_enum(np.eye(9), space, mono, cap=100)


# ---------------------------------------------------------------------------
# Linearization
# ---------------------------------------------------------------------------


def test_linearization_objective_matches_quadratic_first_order():
    rng = M.make_rng(11)
    space, mono = first_order_setting(4)
    G = random_sym(rng, mono.p)
    lin = pricing.build_linearization(G, space, mono)
    assert lin.bits_per_factor == 1
    for x in M.enumerate_space(space):
        z = lin.encode(x)
        direct = pricing.quad_value(G, mono.evaluate(x))
        assert np.isclose(lin.objective_at_bits(z), direct, rtol=1e-10, atol=1e-10)


def test_linearization_objective_matches_quadratic_second_order():
    rng = M.make_rng(12)
    mono = M.build_second_order_pairs(5)
    space = M.ExperimentSpace(d=5, L=2)
    G = random_sym(rng, mono.p)
    lin = pricing.build_linearization(G, space, mono)
    for x in M.enumerate_space(space):
        z = lin.encode(x)
        direct = pricing.quad_value(G, mono.evaluate(x))
        assert np.isclose(lin.objective_at_bits(z), direct, rtol=1e-9, atol=1e-9)


def test_linearization_three_levels_uses_two_bits():
    space = M.ExperimentSpace(d=2, L=3)
    mono = M.build_full_first_order(2)
    G = np.eye(3)
    lin = pricing.build_linearization(G, space, mono)
    assert lin.bits_per_factor == 2
    # the bit range {0..3} overshoots L-1 = 2, so level-exclusion rows exist
    assert lin.A_ub.shape[0] >= 2
    for x in M.enumerate_space(space):
        z = lin.encode(x)
        assert np.array_equal(lin.decode_bits(z), np.asarray(x))


def test_linearization_rejects_higher_order():
    mono = M.MonomialModel(((3, 0),))
    space = M.ExperimentSpace(d=2, L=2)
    with pytest.raises(ValueError):
        pricing.build_linearization(np.eye(1), space, mono)


def test_mccormick_rows_valid_at_integer_points():
    rng = M.make_rng(13)
    mono = M.build_second_order_pairs(4)
    space = M.ExperimentSpace(d=4, L=2)
    lin = pricing.build_linearization(random_sym(rng, mono.p), space, mono)
    for x in M.enumerate_space(space):
        z = lin.encode(x)
        full = np.zeros(lin.n_vars)
        full[: lin.n_bits] = z
        for F, col in lin.aux_index.items():
            full[col] = np.prod([z[b] for b in F])
        assert np.all(lin.A_ub @ full <= lin.b_ub + 1e-9)


# ---------------------------------------------------------------------------
# Branch and bound vs enumeration oracle
# ---------------------------------------------------------------------------


@given(seed=st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_bb_matches_enum_first_order(seed):
    rng = M.make_rng(seed)
    space, mono = first_order_setting(4)
    G = random_sym(rng, mono.p)
    enum = pricing.solve_enum(G, space, mono)
    bb = pricing.solve_bb(G, space, mono)
    assert bb.exact
    assert np.isclose(bb.value, enum.value, rtol=1e-9, atol=1e-9)


def test_bb_matches_enum_with_knapsack_constraints():
    inst = M.generate_knapsack_instance(5, seed=2)
    rng = M.make_rng(0)
    G = random_sym(rng, inst.p)
    enum = pricing.solve_enum(G, inst.space, inst.model)
    bb = pricing.solve_bb(G, inst.space, inst.model)
    assert np.isclose(bb.value, enum.value, rtol=1e-9)


def test_bb_matches_enum_three_levels():
    rng = M.make_rng(21)
    space = M.ExperimentSpace(d=3, L=3, constraints=(((1, 1, 1), 4),))
    mono = M.build_full_first_order(3)
    G = random_sym(rng, mono.p)
    enum = pricing.solve_enum(G, space, mono)
    bb = pricing.solve_bb(G, space, mono)
    assert np.isclose(bb.value, enum.value, rtol=1e-9)


def test_bb_early_exit_on_target():
    space, mono = first_order_setting(5)
    G = np.eye(mono.p)
    res = pricing.solve_bb(G, space, mono, target=2.5)
    assert not res.exact
    assert res.value > 2.5


def test_bb_target_minus_inf_returns_incumbent():
    space, mono = first_order_setting(3)
    G = np.eye(mono.p)
    inc = pricing.PricingResult(
        x=np.zeros(3, dtype=np.int64), value=1.0, exact=False, nodes=0
    )
    res = pricing.solve_bb(G, space, mono, incumbent=inc, target=-np.inf)
    assert not res.exact
    assert list(res.x) == [0, 0, 0]


def test_bb_node_limit_flags_soft_failure():
    # seed chosen so the root LP is fractional and branching is required
    rng = M.make_rng(3)
    space, mono = first_order_setting(6)
    G = random_sym(rng, mono.p)
    x0 = np.zeros(6, dtype=np.int64)
    inc = pricing.PricingResult(
        x=x0, value=pricing.quad_value(G, mono.evaluate(x0)), exact=False, nodes=0
    )
    res = pricing.solve_bb(G, space, mono, incumbent=inc, node_limit=1)
    assert res.hit_node_limit and not res.exact
    assert res.value >= inc.value


def test_bb_empty_feasible_set():
    space = M.ExperimentSpace(d=2, L=2, constraints=(((1, 1), -1),))
    mono = M.build_full_first_order(2)
    with pytest.raises(ValueError):
        pricing.solve_bb(np.eye(3), space, mono)


# ---------------------------------------------------------------------------
# Pricer dispatcher
# ---------------------------------------------------------------------------


def test_pricer_dispatches_to_enum_when_small():
    space, mono = first_order_setting(4)
    pr = pricing.Pricer(space, mono)
    res = pr.exact(np.eye(mono.p))
    assert res.exact and res.nodes == 16  # enumeration visits every point


def test_pricer_dispatches_to_bb_when_large(monkeypatch):
    monkeypatch.setattr(pricing, "ENUM_THRESHOLD", 1)
    space, mono = first_order_setting(4)
    pr = pricing.Pricer(space, mono)
    res = pr.exact(np.eye(mono.p))
    assert res.exact
    assert np.isclose(res.value, float(mono.p))


# ---------------------------------------------------------------------------
# Rank completion
# ---------------------------------------------------------------------------


@st.composite
def small_instances(draw):
    d = draw(st.integers(2, 5))
    L = draw(st.integers(2, 3))
    coef = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    rows = draw(
        st.lists(st.tuples(st.lists(coef, min_size=d, max_size=d), coef), max_size=2)
    )
    fixed_first = draw(st.booleans())
    space = M.ExperimentSpace(
        d=d, L=L, constraints=tuple((tuple(r), b) for r, b in rows), fixed_first=fixed_first
    )
    exps = list(M.build_full_first_order(d).exponents)
    if draw(st.booleans()):  # second order: some products x_a x_b, squares included
        pairs = [(a, b) for a in range(d) for b in range(a, d)]
        for a, b in draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)):
            row = [0] * d
            row[a] += 1
            row[b] += 1
            exps.append(tuple(row))
    if fixed_first and draw(st.booleans()):
        # x1 is pinned to 1 and duplicates the constant; drop it to allow rank p
        exps = [e for e in exps if e[0] == 0]
    model = M.MonomialModel(tuple(exps))
    return M.Instance(space=space, model=model, k=model.p + draw(st.integers(0, 3)))


@given(
    inst=small_instances(),
    seed=st.integers(0, 2**16),
    stall=st.sampled_from([1, 64, pricing.RANK_STALL]),
)
@settings(max_examples=60, deadline=None)
def test_rank_completion_raises_exactly_when_the_space_spans_less_than_p(inst, seed, stall):
    X = M.enumerate_space(inst.space)
    full = X.shape[0] > 0 and np.linalg.matrix_rank(inst.model.evaluate_many(X)) == inst.p
    pricer = pricing.Pricer(inst.space, inst.model)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pricing, "RANK_STALL", stall)
        if not full:
            with pytest.raises(pricing.DegenerateInstanceError):
                LS.initial_design(inst, seed=seed, pricer=pricer)
            if X.shape[0]:  # CG would first spend 10^5 draws on an empty space
                with pytest.raises(pricing.DegenerateInstanceError):
                    R._initial_points(inst, M.make_rng(seed), pricer)
            return
        design = LS.initial_design(inst, seed=seed, pricer=pricer)
        xs = R._initial_points(inst, M.make_rng(seed), pricer)
    assert sum(design.support.values()) == inst.k
    assert design.info.rank == inst.p
    assert len(set(xs)) == len(xs)
    for points in (list(design.support), xs):
        assert all(inst.space.contains(x) for x in points)
        V = inst.model.evaluate_many(np.array(points))
        assert np.linalg.matrix_rank(V) == inst.p


class CountingPricer(pricing.Pricer):
    exact_calls = 0

    def exact(self, G, incumbent=None, target=None):
        self.exact_calls += 1
        return super().exact(G, incumbent=incumbent, target=target)


@pytest.mark.parametrize("enum_threshold", [2**16, 0])
def test_priced_rank_completion_after_one_stalled_draw(monkeypatch, enum_threshold):
    monkeypatch.setattr(pricing, "RANK_STALL", 1)
    monkeypatch.setattr(pricing, "ENUM_THRESHOLD", enum_threshold)
    # CG seeds whose 2p random points span less than rank p
    for inst, cg_seed in (
        (M.generate_cardinality_instance(6), 26),
        (M.generate_knapsack_instance(10, seed=4), 0),
    ):
        pricer = CountingPricer(inst.space, inst.model)
        design = LS.initial_design(inst, seed=0, pricer=pricer)
        assert pricer.exact_calls > 0
        assert design.info.rank == inst.p and sum(design.support.values()) == inst.k
        assert all(inst.space.contains(x) for x in design.support)
        pricer.exact_calls = 0
        xs = R._initial_points(inst, M.make_rng(cg_seed), pricer)
        assert pricer.exact_calls > 0
        assert all(inst.space.contains(x) for x in xs)
        assert np.linalg.matrix_rank(inst.model.evaluate_many(np.array(xs))) == inst.p


@pytest.mark.parametrize("enum_threshold", [2**16, 0])
def test_degeneracy_proof_states_the_span_rank(monkeypatch, enum_threshold):
    monkeypatch.setattr(pricing, "ENUM_THRESHOLD", enum_threshold)
    for d, seed in ((5, 0), (6, 3)):  # a heavy coefficient pins a factor to 0
        inst = M.generate_knapsack_instance(d, seed=seed)
        span = np.linalg.matrix_rank(inst.model.evaluate_many(M.enumerate_space(inst.space)))
        assert span < inst.p
        pricer = pricing.Pricer(inst.space, inst.model)
        for solve in (
            lambda: LS.initial_design(inst, seed=0, pricer=pricer),
            lambda: R._initial_points(inst, M.make_rng(0), pricer),
        ):
            with pytest.raises(pricing.DegenerateInstanceError, match=f"span rank {span} <"):
                solve()
    assert LS.DegenerateInstanceError is pricing.DegenerateInstanceError


def test_empty_space_is_degenerate():
    space = M.ExperimentSpace(d=2, L=2, constraints=(((1, 1), -1),))
    inst = M.Instance(space=space, model=M.build_full_first_order(2), k=3)
    with pytest.raises(pricing.EmptySpaceError) as exc:
        LS.initial_design(inst, seed=0)
    assert isinstance(exc.value, pricing.DegenerateInstanceError)
    assert exc.value.exit_code == 2


def test_node_limit_without_incumbent_is_a_typed_soft_failure():
    space, mono = first_order_setting(6)
    with pytest.raises(pricing.NodeLimitError) as exc:
        pricing.solve_bb(np.eye(mono.p) - 0.1, space, mono, node_limit=1)
    assert isinstance(exc.value, RuntimeError) and exc.value.exit_code == 3


def test_inexact_pricing_without_rank_gain_is_a_soft_failure(monkeypatch):
    class InexactPricer(pricing.Pricer):
        def exact(self, G, incumbent=None, target=None):
            return replace(super().exact(G), exact=False)

    monkeypatch.setattr(pricing, "RANK_STALL", 1)
    inst = M.generate_knapsack_instance(5, seed=0)  # spans rank 5 < p = 6
    with pytest.raises(pricing.NodeLimitError) as exc:
        LS.initial_design(inst, seed=0, pricer=InexactPricer(inst.space, inst.model))
    assert not isinstance(exc.value, pricing.DegenerateInstanceError)
    assert exc.value.exit_code == 3


# ---------------------------------------------------------------------------
# One enumeration per Pricer
# ---------------------------------------------------------------------------


@given(inst=small_instances(), seed=st.integers(0, 2**16), n_prices=st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_pricer_enumerates_once_and_matches_solve_enum(inst, seed, n_prices):
    rng = M.make_rng(seed)
    pricer = pricing.Pricer(inst.space, inst.model)
    calls = {"enumerate_space": 0, "evaluate_many": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for owner, name in ((pricing, "enumerate_space"), (M.MonomialModel, "evaluate_many")):
            mp.setattr(owner, name, counted(name, getattr(owner, name)))
        pricer_calls = dict.fromkeys(calls, 0)
        for _ in range(n_prices):
            G = random_sym(rng, inst.p)
            try:
                want = pricing.solve_enum(G, inst.space, inst.model)
            except pricing.EmptySpaceError:
                want = None
            before = dict(calls)
            if want is None:
                with pytest.raises(pricing.EmptySpaceError):
                    pricer.exact(G)
            else:
                got = pricer.exact(G)
                assert got.exact
                assert got.x.tolist() == want.x.tolist()
                assert got.value == want.value  # bit-equal
                assert got.nodes == want.nodes
            for name in calls:
                pricer_calls[name] += calls[name] - before[name]
    assert pricer_calls == {"enumerate_space": 1, "evaluate_many": 1}
