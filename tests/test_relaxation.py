"""Restricted master, dual certificates, sparsification, column generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doptdesign import model as M, relaxation as R
from doptdesign.pricing import Pricer


def projected_gradient_oracle(V, k, iters=40_000, lr=0.05):
    """Independent first-order solver for max log det sum w_i v_i v_i^T, sum w = k."""
    n, p = V.shape
    w = np.full(n, k / n)
    for _ in range(iters):
        Minv = np.linalg.inv((V * w[:, None]).T @ V)
        grad = np.einsum("ij,jk,ik->i", V, Minv, V)
        w = w * np.exp(lr * (grad - grad @ w / k))
        w *= k / w.sum()
    return float(np.linalg.slogdet((V * w[:, None]).T @ V)[1])


def enumerate_points(inst):
    X = M.enumerate_space(inst.space)
    return [tuple(int(t) for t in x) for x in X], inst.model.evaluate_many(X).astype(float)


# ---------------------------------------------------------------------------
# Restricted master
# ---------------------------------------------------------------------------


def test_master_orthogonal_points_symmetric_optimum():
    p, k = 4, 8
    V = 2.0 * np.eye(p)
    xs = [tuple(row) for row in np.eye(p, dtype=int)]
    cd = R.solve_restricted_master(xs, V, k)
    assert np.allclose(cd.weights, k / p, atol=1e-5)
    assert cd.objective == pytest.approx(p * math.log(4.0 * k / p), abs=1e-5)


def test_master_unconstrained_first_order_closed_form():
    inst = M.Instance(
        space=M.ExperimentSpace(d=3, L=2), model=M.build_full_first_order(3), k=8
    )
    xs, V = enumerate_points(inst)
    cd = R.solve_restricted_master(xs, V, inst.k)
    target = math.log(8.0**4 / 2.0 ** (2 * 3))
    assert cd.objective == pytest.approx(target, abs=1e-6)


@given(seed=st.integers(0, 20))
@settings(max_examples=6, deadline=None)
def test_master_matches_projected_gradient_oracle(seed):
    rng = M.make_rng(seed)
    inst = M.generate_knapsack_instance(5, seed=2)
    xs, V = enumerate_points(inst)
    pick = rng.choice(len(xs), size=min(9, len(xs)), replace=False)
    sub = V[pick]
    if np.linalg.matrix_rank(sub) < inst.p:
        return
    cd = R.solve_restricted_master([xs[i] for i in pick], sub, inst.k)
    oracle = projected_gradient_oracle(sub, inst.k)
    assert cd.objective == pytest.approx(oracle, abs=1e-5)


def test_master_warm_start_is_monotone():
    inst = M.generate_cardinality_instance(6)
    xs, V = enumerate_points(inst)
    cd = R.solve_restricted_master(xs, V, inst.k)
    warm = R.solve_restricted_master(xs, V, inst.k, weights0=cd.weights)
    assert warm.objective >= cd.objective - 1e-9


def test_master_rejects_rank_deficient_points():
    V = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        R.solve_restricted_master([(0,), (1,)], V, 4)


def test_master_iteration_cap():
    inst = M.generate_knapsack_instance(5, seed=2)
    xs, V = enumerate_points(inst)
    with pytest.raises(R.MasterConvergenceError):
        R.solve_restricted_master(xs, V, inst.k, max_iters=1)


# ---------------------------------------------------------------------------
# Duals and upper bounds
# ---------------------------------------------------------------------------


def test_dual_from_primal_leverage_bound():
    inst = M.generate_cardinality_instance(6)
    xs, V = enumerate_points(inst)
    cd = R.solve_restricted_master(xs, V, inst.k)
    cert = R.dual_from_primal(cd)
    lev = np.einsum("ij,jk,ik->i", V, cert.Lambda, V)
    assert cert.nu == pytest.approx(lev.max())
    assert cert.nu <= (1 + 2 * R.TOL_MASTER) * inst.p / inst.k
    # strong duality at the restricted optimum: dual objective = primal objective
    assert cert.objective == pytest.approx(cd.objective, abs=1e-4)


def test_upper_bound_dominates_integer_optimum():
    from doptdesign import bench

    inst = M.generate_knapsack_instance(4, seed=7)
    pricer = Pricer(inst.space, inst.model)
    cd, cert, _ = R.column_generation(inst, pricer, R.CGParams(seed=0))
    _, alpha, exact = R.check_dual_feasibility(cert, pricer)
    assert exact
    ub = R.upper_bound_from_alpha(cert, alpha)
    brute = bench.brute_force_dopt(inst)
    assert ub >= brute.optimum_logdet - 1e-9
    assert ub >= cd.objective - 1e-9


def test_upper_bound_rejects_singular_certificate():
    cert = R.DualCertificate(Lambda=np.zeros((2, 2)), nu=1.0, k=4)
    with pytest.raises(ValueError):
        R.upper_bound_from_alpha(cert, 1.0)


# ---------------------------------------------------------------------------
# Sparsification
# ---------------------------------------------------------------------------


def test_support_bound_values():
    assert R.support_bound(4) == 6 + 4 + 1
    assert R.support_bound(8) == 28 + 8 + 1


def make_uniform_design(d):
    space = M.ExperimentSpace(d=d, L=2)
    mono = M.build_full_first_order(d)
    X = M.enumerate_space(space)
    V = mono.evaluate_many(X).astype(float)
    n = X.shape[0]
    k = 2 * mono.p
    xs = [tuple(int(t) for t in x) for x in X]
    return R.ContinuousDesign(xs=xs, points=V, weights=np.full(n, k / n), k=k)


def test_sparsify_reduces_support_and_preserves_moment():
    cd = make_uniform_design(7)  # 128 points > bound C(8,2)+8+1 = 37
    out = R.sparsify(cd)
    assert len(out.xs) <= R.support_bound(8) < len(cd.xs)
    assert out.weights.sum() == pytest.approx(cd.k)
    rel = np.linalg.norm(out.moment - cd.moment) / np.linalg.norm(cd.moment)
    assert rel <= 1e-8
    assert out.objective == pytest.approx(cd.objective, abs=1e-8)


def test_sparsify_noop_when_within_bound():
    cd = make_uniform_design(4)  # 16 points <= bound 16
    out = R.sparsify(cd)
    assert len(out.xs) == len(cd.xs)


def test_sparsify_without_kernel_direction_is_a_typed_soft_failure(monkeypatch):
    monkeypatch.setattr(R, "null_space", lambda B, rcond: np.zeros((B.shape[1], 0)))
    with pytest.raises(R.ColumnGenerationError, match="no kernel direction") as exc:
        R.sparsify(make_uniform_design(7))
    assert isinstance(exc.value, RuntimeError) and exc.value.exit_code == 3


# ---------------------------------------------------------------------------
# Column generation
# ---------------------------------------------------------------------------


def test_cg_closed_form_unconstrained():
    inst = M.Instance(
        space=M.ExperimentSpace(d=4, L=2), model=M.build_full_first_order(4), k=10
    )
    cd, cert, trace = R.column_generation(inst, Pricer(inst.space, inst.model))
    target = 5 * math.log(10) - 8 * math.log(2)  # p ln k - 2(p-1) ln 2, p = 5
    assert cd.objective == pytest.approx(target, abs=1e-3)
    assert cert.feasible_for == "full"


def test_cg_terminates_immediately_on_full_point_set(monkeypatch):
    inst = M.generate_cardinality_instance(5)
    xs, _ = enumerate_points(inst)
    monkeypatch.setattr(R, "_initial_points", lambda *a, **k: xs)
    cd, cert, trace = R.column_generation(inst, Pricer(inst.space, inst.model))
    assert trace[-1]["iter"] == 1 and trace[-1]["ip_solved"]


def test_cg_trace_schema_and_monotonicity():
    inst = M.generate_knapsack_instance(8, seed=82)
    cd, cert, trace = R.column_generation(inst, Pricer(inst.space, inst.model))
    keys = {
        "iter", "master_obj", "nu", "alpha", "mode",
        "n_points", "sparsified", "ip_solved",
    }
    assert all(set(entry) == keys for entry in trace)
    objs = [entry["master_obj"] for entry in trace]
    assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))


def test_cg_certificate_bounds_restricted_primal():
    inst = M.generate_knapsack_instance(8, seed=82)
    cd, cert, _ = R.column_generation(inst, Pricer(inst.space, inst.model))
    # nu is the exact pricing value, so the dual objective bounds the relaxation
    assert cert.objective >= cd.objective - 1e-9


def test_cg_dual_mode_switch_with_large_gamma():
    inst = M.generate_knapsack_instance(8, seed=82)
    params = R.CGParams(seed=0, gamma=1e6)  # force the stall test to fire
    cd, cert, trace = R.column_generation(inst, Pricer(inst.space, inst.model), params)
    modes = [entry["mode"] for entry in trace]
    assert "dual" in modes
    switch = modes.index("dual")
    assert all(m == "dual" for m in modes[switch:])  # switch is permanent


def test_cg_iteration_cap_raises():
    inst = M.generate_knapsack_instance(8, seed=82)
    params = R.CGParams(seed=0, max_iters=0)
    with pytest.raises(R.ColumnGenerationError):
        R.column_generation(inst, Pricer(inst.space, inst.model), params)
