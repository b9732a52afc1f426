"""Batched integer-side kernels against one-at-a-time reference copies.

The references below are the scalar loops that the batched heuristic, the
block-sampled initial design, the shared rank completion and the chunked
brute force replaced, with membership in Fraction arithmetic.  The new code
must reproduce their results exactly: the same points, values and visit
counts.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doptdesign import bench, local_search as LS, model as M, pricing
from doptdesign import relaxation as R


def fraction_member(space, x):
    if len(x) != space.d or any(v < 0 or v >= space.L for v in x):
        return False
    if space.fixed_first and x[0] != 1:
        return False
    return all(
        sum(c * int(v) for c, v in zip(row, x)) <= rhs for row, rhs in space.constraints
    )


def reference_heuristic(G, space, model, start):
    x = np.asarray(start, dtype=np.int64).copy()
    value = pricing.quad_value(G, model.evaluate(x))
    evals = 1
    improved = True
    while improved:
        improved = False
        for i in range(space.d):
            for delta in (1, -1):
                x[i] += delta
                if fraction_member(space, x):
                    cand = pricing.quad_value(G, model.evaluate(x))
                    evals += 1
                    if cand > value:
                        value = cand
                        improved = True
                        break
                x[i] -= delta
            if improved:
                break
        if improved:
            continue
        for i in range(space.d):
            for j in range(space.d):
                if i == j:
                    continue
                x[i] += 1
                x[j] -= 1
                if fraction_member(space, x):
                    cand = pricing.quad_value(G, model.evaluate(x))
                    evals += 1
                    if cand > value:
                        value = cand
                        improved = True
                        break
                x[i] -= 1
                x[j] += 1
            if improved:
                break
    return x, value, evals


def reference_initial_design(instance, seed, retry_cap):
    """Returns (support, samples drawn); raises DegenerateInstanceError."""
    space, model, k = instance.space, instance.model, instance.k
    rng = M.make_rng(seed)
    kept = []
    Q = np.zeros((model.p, 0))
    rank = 0
    attempts = 0
    while rank < model.p or len(kept) < k:
        if attempts >= retry_cap:
            raise LS.DegenerateInstanceError(
                f"no rank-{model.p} design of size {k} found in {retry_cap} samples; "
                "the space may be too small or span-deficient"
            )
        attempts += 1
        x = rng.integers(0, space.L, size=space.d)
        if space.fixed_first:
            x[0] = 1
        if not fraction_member(space, x):
            continue
        if rank < model.p:
            v = model.evaluate(x).astype(float)
            resid = v - Q @ (Q.T @ v)
            norm = np.linalg.norm(resid)
            if norm > 1e-8 * max(1.0, np.linalg.norm(v)):
                Q = np.concatenate([Q, (resid / norm)[:, None]], axis=1)
                rank += 1
                kept.append(tuple(int(t) for t in x))
        else:
            kept.append(tuple(int(t) for t in x))
    support = {}
    for x in kept[:k]:
        support[x] = support.get(x, 0) + 1
    return support, attempts


def reference_initial_points(instance, rng):
    """2p random points, then one feasible draw at a time while rank grows."""
    space, model = instance.space, instance.model

    def feasible_draws(count):
        out = []
        while len(out) < count:
            x = rng.integers(0, space.L, size=space.d)
            if space.fixed_first:
                x[0] = 1
            if fraction_member(space, x):
                out.append(tuple(int(t) for t in x))
        return out

    xs = list(dict.fromkeys(feasible_draws(2 * model.p)))
    rank = np.linalg.matrix_rank(model.evaluate_many(np.array(xs)))
    while rank < model.p:
        (x,) = feasible_draws(1)
        if x in xs:
            continue
        r2 = np.linalg.matrix_rank(model.evaluate_many(np.array(xs + [x])))
        if r2 > rank:
            xs.append(x)
            rank = r2
    return xs


def reference_brute(instance):
    X = M.enumerate_space(instance.space)
    P = instance.model.evaluate_many(X).astype(float)
    outers = np.einsum("ni,nj->nij", P, P)
    best, best_combo, examined = -np.inf, None, 0
    for combo in combinations_with_replacement(range(X.shape[0]), instance.k):
        examined += 1
        sign, ld = np.linalg.slogdet(outers[list(combo)].sum(axis=0))
        if sign > 0 and ld > best:
            best, best_combo = ld, combo
    support = {}
    for i in best_combo or ():
        x = tuple(int(t) for t in X[i])
        support[x] = support.get(x, 0) + 1
    return best, support, examined


# ---------------------------------------------------------------------------
# Heuristic pricing
# ---------------------------------------------------------------------------


@given(
    d=st.integers(2, 6),
    L=st.integers(2, 3),
    second_order=st.booleans(),
    integer_G=st.booleans(),
    fixed_first=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_heuristic_matches_scalar_scan(d, L, second_order, integer_G, fixed_first, seed):
    rng = np.random.default_rng(seed)
    row = tuple(int(c) for c in rng.integers(0, 6, size=d))
    rhs = Fraction(int(rng.integers(0, 3 * d * (L - 1) + 1)), int(rng.integers(1, 4)))
    space = M.ExperimentSpace(d=d, L=L, constraints=((row, rhs),), fixed_first=fixed_first)
    X = M.enumerate_space(space)
    if not X.shape[0]:
        return
    model = (
        M.build_second_order_pairs(d)
        if second_order and d >= 4
        else M.build_full_first_order(d)
    )
    # integer G makes exact ties between neighbor values common
    if integer_G:
        B = rng.integers(-2, 3, size=(model.p, int(rng.integers(1, model.p + 1))))
        G = (B @ B.T).astype(float)
    else:
        B = rng.normal(size=(model.p, model.p))
        G = B @ B.T
    start = X[rng.integers(X.shape[0])]
    got = pricing.heuristic_search(G, space, model, start)
    x, value, nodes = reference_heuristic(G, space, model, start)
    assert got.x.tolist() == x.tolist()
    assert got.value == value
    assert got.nodes == nodes


def test_heuristic_matches_scalar_scan_on_pricing_matrices():
    # the pricing matrices local search produces, on knapsack and second order
    for inst in (
        M.generate_knapsack_instance(10, seed=4),
        M.generate_second_order_knapsack_instance(10, seed=4),
    ):
        design = LS.initial_design(inst, seed=0)
        G = np.linalg.inv(design.info.S)
        for x in design.support:
            got = pricing.heuristic_search(G, inst.space, inst.model, np.array(x))
            ref = reference_heuristic(G, inst.space, inst.model, np.array(x))
            assert (got.x.tolist(), got.value, got.nodes) == (ref[0].tolist(), ref[1], ref[2])


# ---------------------------------------------------------------------------
# Initial design
# ---------------------------------------------------------------------------


def _start_instances():
    ff = M.ExperimentSpace(
        d=4, L=3, constraints=(((0, 1, 2, 1), Fraction(7, 2)),), fixed_first=True
    )
    # the constant column duplicates the pinned x1, so drop x1 from the model
    ff_model = M.MonomialModel(((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    return [
        M.generate_cardinality_instance(6),
        M.generate_knapsack_instance(10, seed=4),
        M.generate_second_order_knapsack_instance(10, seed=4),
        M.Instance(space=ff, model=ff_model, k=7),
    ]


@pytest.mark.parametrize("block", [None, 1, 3, 64])
def test_initial_design_matches_one_draw_per_sample(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(M, "SAMPLE_BLOCK", block)
    for inst in _start_instances():
        for seed in range(4):
            support, _ = reference_initial_design(inst, seed, 100_000)
            assert LS.initial_design(inst, seed=seed).support == support


def test_initial_points_match_one_rank_test_per_draw():
    # the block stream reads the same samples as one generator call per draw,
    # and leaves off where the reference does, so CG's random columns follow on
    for inst in _start_instances() + [M.generate_knapsack_instance(8, seed=82)]:
        space = inst.space
        for seed in range(6):
            draws, ref_rng = space.draws(M.make_rng(seed)), M.make_rng(seed)
            pricer = pricing.Pricer(space, inst.model)
            assert R._initial_points(inst, draws, pricer) == reference_initial_points(inst, ref_rng)
            for _ in range(3):
                x = ref_rng.integers(0, space.L, size=space.d)
                if space.fixed_first:
                    x[0] = 1
                assert next(draws) == (tuple(int(t) for t in x) if fraction_member(space, x) else None)


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize(
    "inst",
    [M.generate_cardinality_instance(4), M.generate_knapsack_instance(5, k=6, seed=2)],
    ids=["cardinality-d4", "knapsack-d5"],
)
def test_brute_force_matches_one_multiset_at_a_time(monkeypatch, chunk, inst):
    if chunk is not None:
        monkeypatch.setattr(bench, "BRUTE_CHUNK", chunk)
    got = bench.brute_force_dopt(inst)
    best, support, examined = reference_brute(inst)
    assert got.optimum_logdet == best
    assert got.optimal_design.support == support
    assert got.multisets_examined == examined
