"""Pricing-based local search on integer designs."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doptdesign import bench, local_search as LS, model as M, pricing
from doptdesign import psd_linalg as K
from doptdesign.pricing import Pricer
from doptdesign.psd_linalg import RankError


def unconstrained_instance(d, k):
    space = M.ExperimentSpace(d=d, L=2)
    return M.Instance(space=space, model=M.build_full_first_order(d), k=k)


def int_det(A) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination."""
    A = [[int(a) for a in row] for row in A]
    n, sign, prev = len(A), 1, 1
    for i in range(n - 1):
        if A[i][i] == 0:
            pivot = next((r for r in range(i + 1, n) if A[r][i] != 0), None)
            if pivot is None:
                return 0
            A[i], A[pivot], sign = A[pivot], A[i], -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                A[r][c] = (A[r][c] * A[i][i] - A[r][i] * A[i][c]) // prev
        prev = A[i][i]
    return sign * A[-1][-1]


def int_moment(model, support) -> np.ndarray:
    """Integer information matrix sum m p(x) p(x)^T of a support dict."""
    return sum(m * np.outer(model.evaluate(x), model.evaluate(x)) for x, m in support.items())


# ---------------------------------------------------------------------------
# Design container
# ---------------------------------------------------------------------------


def test_design_from_support_builds_moment():
    mono = M.build_full_first_order(2)
    design = LS.Design.from_support(mono, {(0, 0): 1, (1, 0): 1, (0, 1): 1}, 3)
    direct = sum(
        np.outer(mono.evaluate(x), mono.evaluate(x))
        for x in [(0, 0), (1, 0), (0, 1)]
    )
    assert np.allclose(design.info.S, direct)
    assert design.logdet == pytest.approx(np.linalg.slogdet(direct.astype(float))[1])


def test_design_multiplicity_validation():
    mono = M.build_full_first_order(2)
    with pytest.raises(ValueError):
        LS.Design.from_support(mono, {(0, 0): 2}, 3)
    with pytest.raises(ValueError):
        LS.Design.from_support(mono, {(0, 0): 0, (1, 1): 3}, 3)


def test_design_dict_roundtrip():
    mono = M.build_full_first_order(3)
    design = LS.Design.from_support(
        mono, {(0, 0, 0): 2, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}, 5
    )
    again = LS.Design.from_dict(mono, design.to_dict())
    assert again.support == design.support and again.k == design.k


# ---------------------------------------------------------------------------
# Initial design
# ---------------------------------------------------------------------------


@given(seed=st.integers(0, 30))
@settings(max_examples=15, deadline=None)
def test_initial_design_reaches_rank_p(seed):
    inst = unconstrained_instance(4, 8)
    design = LS.initial_design(inst, seed=seed)
    assert design.info.rank == inst.p
    assert sum(design.support.values()) == inst.k


def test_initial_design_degenerate_raises():
    # pinning x1 alongside the constant monomial makes rank p unreachable
    space = M.ExperimentSpace(d=3, L=2, fixed_first=True)
    inst = M.Instance(space=space, model=M.build_full_first_order(3), k=6)
    with pytest.raises(LS.DegenerateInstanceError):
        LS.initial_design(inst, seed=0)


def test_initial_design_fill_reads_at_most_the_draw_cap(monkeypatch):
    # 9 feasible points in a box of 256: each of the k - p = 9 fill slots needs
    # about 28 samples, far more than the cap allows in all
    monkeypatch.setattr(M, "RANDOM_DRAW_CAP", 16)
    space = M.ExperimentSpace(d=8, L=2, constraints=(((1,) * 8, 1),))
    inst = M.Instance(space=space, model=M.build_full_first_order(8), k=18)
    draws, complete_rank = M.ExperimentSpace.draws, LS.complete_rank
    reads = {"all": 0}

    def counted_draws(self, rng):
        for x in draws(self, rng):
            reads["all"] += 1
            yield x

    def counted_rank(*args):
        basis = complete_rank(*args)
        reads["at_rank"] = reads["all"]
        return basis

    monkeypatch.setattr(M.ExperimentSpace, "draws", counted_draws)
    monkeypatch.setattr(LS, "complete_rank", counted_rank)
    design = LS.initial_design(inst, seed=0)
    assert reads["all"] - reads["at_rank"] <= 16
    assert design.info.rank == inst.p and sum(design.support.values()) == inst.k


# ---------------------------------------------------------------------------
# Exchange steps
# ---------------------------------------------------------------------------


def test_exchange_step_improves_or_proves():
    inst = unconstrained_instance(3, 6)
    pricer = Pricer(inst.space, inst.model)
    design = LS.initial_design(inst, seed=1)
    outcome = LS.exchange_step(design, pricer)
    if outcome.move is not None:
        assert outcome.design.logdet > design.logdet
    else:
        assert outcome.proved


def test_exchange_step_requires_full_rank():
    mono = M.build_full_first_order(2)
    design = LS.Design.from_support(mono, {(0, 0): 2, (1, 0): 1}, 3)
    pricer = Pricer(M.ExperimentSpace(d=2, L=2), mono)
    with pytest.raises(RankError):
        LS.exchange_step(design, pricer)


def test_run_trace_strictly_increases():
    inst = M.generate_cardinality_instance(7)
    design, report = LS.run(inst, seed=0)
    lds = [ld for _, ld, _ in report.trace]
    assert all(b > a for a, b in zip(lds, lds[1:]))
    assert report.final_logdet == pytest.approx(design.logdet)
    assert report.proved_local_optimum


def test_run_from_warm_start_never_worse():
    inst = unconstrained_instance(4, 9)
    start = LS.initial_design(inst, seed=3)
    design, report = LS.run(inst, warm_start=start)
    assert design.logdet >= start.logdet - 1e-12
    assert report.iterations >= 1


def test_run_counts_moves():
    inst = M.generate_knapsack_instance(5, seed=2)
    design, report = LS.run(inst, seed=0)
    assert report.heuristic_moves + len(
        [1 for _, _, kind in report.trace if kind == "ip"]
    ) == len(report.trace)
    assert report.ip_calls >= 1  # the final certification pass prices exactly


def test_local_optimum_matches_bruteforce_on_tiny_instance():
    inst = M.generate_cardinality_instance(4, k=6)
    design, report = LS.run(inst, seed=0)
    brute = bench.brute_force_dopt(inst)
    assert design.logdet <= brute.optimum_logdet + 1e-9
    guarantee = LS.guarantee_factor(inst.k, inst.p, 1.0)
    assert design.logdet >= brute.optimum_logdet + math.log(guarantee) - 1e-9


def second_order(d, L):
    """The package's second-order model for d >= 4; all pairs (and squares at L = 3) below."""
    if d >= 4:
        return M.build_second_order_pairs(d)
    eye = np.eye(d, dtype=int)
    exps = [tuple(r) for r in M.build_full_first_order(d).exponents]
    exps += [tuple(eye[a] + eye[b]) for a, b in combinations(range(d), 2)]
    exps += [tuple(2 * eye[a]) for a in range(d)] if L == 3 else []
    return M.MonomialModel(tuple(exps))


@given(
    seed=st.integers(0, 10**6),
    d=st.integers(1, 5),
    L=st.integers(2, 3),
    order=st.sampled_from((1, 2)),
    k_is_p=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_exchange_pricing_matches_exact_determinant_ratio(seed, d, L, order, k_is_p):
    # Fedorov's identity: keep + p(x)^T G p(x) = det(S - vv^T + xx^T) / det S
    mono = M.build_full_first_order(d) if order == 1 or d == 1 else second_order(d, L)
    X = M.enumerate_space(M.ExperimentSpace(d=d, L=L))
    P = mono.evaluate_many(X)
    rng = np.random.default_rng(seed)
    support = []
    for i in rng.permutation(X.shape[0]):
        if np.linalg.matrix_rank(P[support + [i]]) > len(support):
            support.append(int(i))
    assert len(support) == mono.p  # these models span rank p on the box
    if not k_is_p:
        support += [int(i) for i in rng.choice(X.shape[0], rng.integers(0, 4))]
    mult = {tuple(X[i]): 1 if k_is_p else int(rng.integers(1, 4)) for i in support}
    S = int_moment(mono, mult)
    det_S = int_det(S)
    Sinv = K.pricing_matrix(K.InfoMatrix.from_matrix(S))
    for x_out in mult:
        v = mono.evaluate(x_out)
        keep, G = LS.exchange_pricing(Sinv, v.astype(float))
        if k_is_p:
            assert abs(keep) <= 1e-8  # every removal drops the rank
        for x, px in zip(X, P):
            ratio = Fraction(int_det(S - np.outer(v, v) + np.outer(px, px)), det_S)
            predicted = keep + pricing.quad_value(G, px)
            assert abs(predicted - ratio) <= 1e-8 * max(1, ratio), (x_out, tuple(x))


# cardinality d=4-6, and the acceptance suite's full-rank knapsack d=4 seeds
EXACT_LS_CASES = [("cardinality", d, None, 0) for d in (4, 5, 6)] + [
    ("knapsack", 4, k, gen) for gen in (7, 12, 21) for k in range(5, 9)
]


@pytest.mark.parametrize("variant,d,k,gen", EXACT_LS_CASES)
def test_ls_decisions_hold_in_exact_arithmetic(variant, d, k, gen, monkeypatch):
    inst = M.GENERATORS[variant](d, k, gen)
    raw = K.InfoMatrix.__dict__["from_matrix"].__func__
    factorizations = []

    def counted(cls, S):
        factorizations.append(1)
        return raw(cls, S)

    monkeypatch.setattr(K.InfoMatrix, "from_matrix", classmethod(counted))
    pricer = Pricer(inst.space, inst.model)
    design = LS.initial_design(inst, seed=0, pricer=pricer)
    while True:
        factorizations.clear()
        outcome = LS.exchange_step(design, pricer)
        if outcome.move is None:
            break
        assert len(factorizations) <= 2
        new = outcome.design
        # every accepted move raises the exact determinant
        assert int_det(int_moment(inst.model, new.support)) > int_det(
            int_moment(inst.model, design.support)
        )
        fresh = LS.Design.from_support(inst.model, new.support, inst.k)
        assert np.array_equal(new.info.S, fresh.info.S) and new.logdet == fresh.logdet
        design = new
    assert outcome.proved and not factorizations
    # no single exchange from the proved design raises det by more than 1e-9
    S = int_moment(inst.model, design.support)
    det_S = int_det(S)
    P = inst.model.evaluate_many(M.enumerate_space(inst.space))
    for x_out in design.support:
        v = inst.model.evaluate(x_out)
        for px in P:
            swapped = int_det(S - np.outer(v, v) + np.outer(px, px))
            assert swapped * 10**9 <= det_S * (10**9 + 1)


def test_node_limit_marks_inconclusive(monkeypatch):
    monkeypatch.setattr(pricing, "ENUM_THRESHOLD", 1)
    monkeypatch.setattr(LS, "LS_ITER_CAP", 3)
    inst = M.generate_knapsack_instance(17, seed=1)
    pricer = Pricer(inst.space, inst.model, node_limit=1)
    design, report = LS.run(inst, seed=0, pricer=pricer)
    assert report.inconclusive
    assert not report.proved_local_optimum


# ---------------------------------------------------------------------------
# Guarantee factor
# ---------------------------------------------------------------------------


def test_guarantee_factor_reference_values():
    # rho = 1: ((k-p+1)/k * p/p)^p
    assert LS.guarantee_factor(8, 4, 1.0) == pytest.approx((5 / 8) ** 4)
    assert LS.guarantee_factor(4, 4, 1.0) == pytest.approx((1 / 4) ** 4)


def test_guarantee_factor_monotone_in_rho():
    assert LS.guarantee_factor(10, 5, 1.0) > LS.guarantee_factor(10, 5, 1.5)


def test_guarantee_factor_validates():
    with pytest.raises(ValueError):
        LS.guarantee_factor(3, 4, 1.0)
    with pytest.raises(ValueError):
        LS.guarantee_factor(8, 4, 0.5)
