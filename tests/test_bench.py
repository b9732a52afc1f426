"""Brute-force oracle and suite reporting."""

import csv
import io
import json
from itertools import combinations_with_replacement

import numpy as np
import pytest

from doptdesign import bench, local_search, model as M


def reference_brute(inst):
    """Second, independently written exhaustive pass (no precomputed outers)."""
    X = M.enumerate_space(inst.space)
    best = -np.inf
    for combo in combinations_with_replacement(range(X.shape[0]), inst.k):
        S = np.zeros((inst.p, inst.p))
        for i in combo:
            v = inst.model.evaluate(X[i]).astype(float)
            S += np.outer(v, v)
        sign, ld = np.linalg.slogdet(S)
        if sign > 0 and ld > best:
            best = ld
    return best


def test_brute_force_matches_reference_oracle():
    inst = M.generate_cardinality_instance(4, k=6)
    result = bench.brute_force_dopt(inst)
    assert result.optimum_logdet == pytest.approx(reference_brute(inst), abs=1e-10)
    assert result.optimal_design is not None
    assert result.optimal_design.logdet == pytest.approx(result.optimum_logdet)


def test_brute_force_counts_multisets():
    inst = M.generate_cardinality_instance(4, k=6)
    n = M.enumerate_space(inst.space).shape[0]
    result = bench.brute_force_dopt(inst)
    import math

    assert result.multisets_examined == math.comb(n + inst.k - 1, inst.k)


def test_brute_force_degenerate_space_returns_none():
    # constant + pinned x1 duplicate a column: no positive determinant exists
    space = M.ExperimentSpace(d=3, L=2, fixed_first=True)
    inst = M.Instance(space=space, model=M.build_full_first_order(3), k=4)
    result = bench.brute_force_dopt(inst)
    assert result.optimal_design is None
    assert result.optimum_logdet == -np.inf


def test_brute_force_cap():
    inst = M.generate_cardinality_instance(9)
    with pytest.raises(bench.BruteForceCapError):
        bench.brute_force_dopt(inst, cap=10)


def test_run_suite_rows_and_gap():
    report = bench.run_suite("cardinality", range(4, 6), seeds=(0,))
    assert len(report.rows) == 2
    for row in report.rows:
        assert "error" not in row
        assert row["k"] == 2 * (row["d"] + 1)
        assert row["gap"] == pytest.approx(row["relax_value"] - row["ls_value"])
        assert row["gap"] >= -1e-9


def test_run_suite_records_errors_without_aborting():
    # most knapsack seeds at d=6 are rank-deficient by construction
    report = bench.run_suite("knapsack", range(6, 7), seeds=(3,))
    (row,) = report.rows
    assert "error" in row and "Degenerate" in row["error"]


def test_run_suite_k_rule():
    report = bench.run_suite("cardinality", range(5, 6), k_rule=lambda p: p + 2)
    assert report.rows[0]["k"] == 8


def test_run_suite_generates_each_instance_once(monkeypatch):
    calls = []
    real = M.GENERATORS["cardinality"]

    def counting(d, k, seed):
        calls.append((d, k, seed))
        return real(d, k, seed)

    monkeypatch.setitem(bench.GENERATORS, "cardinality", counting)
    report = bench.run_suite("cardinality", range(4, 6), k_rule=lambda p: p + 2)
    assert calls == [(4, None, 0), (5, None, 0)]
    assert [row["k"] for row in report.rows] == [7, 8]
    # the budget-replaced instance solves like one generated with that budget
    _, ls_report = local_search.run(real(5, 8, 0), seed=0)
    assert report.rows[1]["ls_value"] == ls_report.final_logdet


def test_suite_report_serialization():
    report = bench.run_suite("cardinality", range(4, 5), seeds=(0, 1))
    data = json.loads(report.to_json())
    assert data["columns"] == bench.SUITE_COLUMNS
    assert len(data["rows"]) == 2
    parsed = list(csv.DictReader(io.StringIO(report.to_csv())))
    assert len(parsed) == 2
    assert parsed[0]["d"] == "4"


def test_run_suite_unknown_variant():
    with pytest.raises(ValueError):
        bench.run_suite("nope", range(4, 5))
