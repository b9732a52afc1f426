"""Pricing-based local search on integer designs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doptdesign import bench, local_search as LS, model as M
from doptdesign.pricing import Pricer
from doptdesign.psd_linalg import RankError


def unconstrained_instance(d, k):
    space = M.ExperimentSpace(d=d, L=2)
    return M.Instance(space=space, model=M.build_full_first_order(d), k=k)


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


def test_node_limit_marks_inconclusive():
    inst = M.generate_knapsack_instance(17, seed=1)
    pricer = Pricer(inst.space, inst.model, enum_threshold=1, node_limit=1)
    design, report = LS.run(inst, seed=0, pricer=pricer, max_iters=3)
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
