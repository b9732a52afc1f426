"""CLI subcommands, exit codes, and emitted artifacts."""

import json

import pytest

from doptdesign import cli, model as M, pricing


def run(argv):
    return cli.main(argv)


@pytest.fixture
def inst_path(tmp_path):
    path = tmp_path / "inst.json"
    assert run(["gen", "--variant", "knapsack", "--d", "5", "--seed", "2",
                "-o", str(path)]) == cli.EXIT_OK
    return path


def test_gen_writes_instance_and_manifest(tmp_path):
    out = tmp_path / "i.json"
    assert run(["gen", "--variant", "cardinality", "--d", "6", "-o", str(out)]) == 0
    inst = M.instance_from_json(out.read_text())
    assert inst.generator == "cardinality" and inst.space.d == 6
    manifest = json.loads((tmp_path / "i.json.manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["rng"] == "pcg64"
    assert manifest["instance_hash"] == M.instance_hash(inst)


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["gen", "--variant", "knapsack", "--d", "11", "--seed", "7", "-o", str(a)])
    run(["gen", "--variant", "knapsack", "--d", "11", "--seed", "7", "-o", str(b)])
    assert a.read_text() == b.read_text()


def test_gen_second_order_alias(tmp_path):
    out = tmp_path / "s.json"
    assert run(["gen", "--variant", "second_order", "--d", "8", "-o", str(out)]) == 0
    inst = M.instance_from_json(out.read_text())
    assert inst.generator == "second_order_knapsack"


def test_usage_error_exit_code(capsys):
    assert run(["gen", "--variant", "bogus", "--d", "5"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "UsageError"


def test_missing_subcommand_is_usage_error():
    assert run([]) == cli.EXIT_USAGE


def test_bad_instance_path_is_usage_error(tmp_path):
    assert run(["ls", "--instance", str(tmp_path / "nope.json")]) == cli.EXIT_USAGE


def test_ls_writes_design_and_report(inst_path, tmp_path):
    out = tmp_path / "ls.json"
    assert run(["ls", "--instance", str(inst_path), "-o", str(out)]) == cli.EXIT_OK
    payload = json.loads(out.read_text())
    assert {"design", "report"} <= set(payload)
    assert payload["report"]["proved_local_optimum"]
    assert sum(pt["lambda"] for pt in payload["design"]["points"]) == 12
    manifest = json.loads((tmp_path / "ls.json.manifest.json").read_text())
    assert "tol_improve" in manifest["tolerances"]


def test_ls_degenerate_exit_code(tmp_path):
    # d=6 knapsack seed=3 cannot span rank p (pinned heavy coefficient)
    inst = tmp_path / "deg.json"
    run(["gen", "--variant", "knapsack", "--d", "6", "--seed", "3", "-o", str(inst)])
    assert run(["ls", "--instance", str(inst)]) == cli.EXIT_DEGENERATE


def test_ls_soft_failure_exit_code(inst_path, monkeypatch):
    # B&B forced on a small space: a one-node budget cannot certify the optimum
    monkeypatch.setattr(pricing, "ENUM_THRESHOLD", 0)
    code = run(["ls", "--instance", str(inst_path), "--bb-nodes", "1"])
    assert code == cli.EXIT_SOFT_FAILURE


@pytest.mark.parametrize(
    "points,k,message",
    [
        # cardinality d=4 has k = 10 and the five points with at most one 1
        ([("0000", 3), ("1000", 1), ("0100", 1), ("0010", 1), ("0001", 1)], 7,
         "warm start has k = 7, the instance has k = 10"),
        ([("0000", 4), ("1000", 2), ("0100", 2), ("0010", 2)], 10,
         "warm start has rank 4 < p = 5"),
        ([("0000", 5), ("1100", 2), ("0010", 1), ("0001", 1), ("1000", 1)], 10,
         "warm start point [1, 1, 0, 0] is not in the experiment space"),
        # coordinates are tested before any point is evaluated or truncated
        ([("0000", 5), ("0100", 1), ("0010", 1), ("0001", 1), ([1, 0.5, 0, 0], 2)], 10,
         "warm start point [1, 0.5, 0, 0] is not in the experiment space"),
        ([("0000", 5), ("0100", 1), ("0010", 1), ("0001", 1), ([2**70, 0, 0, 0], 2)], 10,
         f"warm start point [{2**70}, 0, 0, 0] is not in the experiment space"),
    ],
    ids=["wrong-k", "rank-deficient", "infeasible-point", "fractional-coordinate",
         "coordinate-beyond-int64"],
)
def test_ls_rejects_invalid_warm_start(tmp_path, capsys, points, k, message):
    inst = tmp_path / "card.json"
    run(["gen", "--variant", "cardinality", "--d", "4", "-o", str(inst)])
    warm = tmp_path / "warm.json"
    warm.write_text(json.dumps({
        "points": [
            {"x": [int(c) for c in x] if isinstance(x, str) else x, "lambda": m}
            for x, m in points
        ],
        "k": k,
    }))
    capsys.readouterr()
    code = run(["ls", "--instance", str(inst), "--warm-start", str(warm)])
    assert code == cli.EXIT_USAGE
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("bad", ["instance-list", "instance-exponents", "warm-start-list"])
def test_ls_input_of_the_wrong_shape_is_a_usage_error(inst_path, tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    if bad == "instance-exponents":
        data = json.loads(inst_path.read_text())
        data["model"] = {"exponents": 5}
        path.write_text(json.dumps(data))
    else:
        path.write_text("[1, 2]")
    argv = ["ls", "--instance", str(path)]
    if bad == "warm-start-list":
        argv = ["ls", "--instance", str(inst_path), "--warm-start", str(path)]
    capsys.readouterr()
    assert run(argv) == cli.EXIT_USAGE
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError" and err["message"].startswith(str(path))


def test_brute_over_cap_is_usage_error(inst_path, capsys):
    assert run(["brute", "--instance", str(inst_path), "--cap", "10"]) == cli.EXIT_USAGE
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "BruteForceCapError"
    assert err["message"].endswith("multisets exceed cap 10")


def test_relax_certificate_payload(inst_path, tmp_path):
    out = tmp_path / "rx.json"
    assert run(["relax", "--instance", str(inst_path), "-o", str(out)]) == cli.EXIT_OK
    payload = json.loads(out.read_text())
    cert = payload["certificate"]
    assert cert["feasible_for"] == "full"
    assert cert["objective"] >= payload["trace"][-1]["master_obj"] - 1e-9
    weights = [pt["lambda"] for pt in payload["continuous_design"]["points"]]
    assert sum(weights) == pytest.approx(12.0)


def test_brute_payload_and_degenerate_exit(inst_path, tmp_path, capsys):
    out = tmp_path / "bf.json"
    assert run(["brute", "--instance", str(inst_path), "-o", str(out)]) == cli.EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["optimum_logdet"] > 0

    # pinned x1 next to the constant monomial: no positive determinant exists
    deg_inst = M.Instance(
        space=M.ExperimentSpace(d=3, L=2, fixed_first=True),
        model=M.build_full_first_order(3),
        k=4,
    )
    deg = tmp_path / "deg.json"
    deg.write_text(M.instance_to_json(deg_inst))
    capsys.readouterr()
    assert run(["brute", "--instance", str(deg)]) == cli.EXIT_DEGENERATE
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {
        "error": "DegenerateInstanceError",
        "message": "no rank-p design of size k exists in this space",
    }


def test_suite_csv_output(tmp_path):
    out = tmp_path / "suite.csv"
    assert run([
        "suite", "--variant", "cardinality", "--d-min", "4", "--d-max", "5",
        "--seeds", "0,1", "-o", str(out),
    ]) == cli.EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 4  # header + 2 dims x 2 seeds


@pytest.mark.parametrize("flag, value", [("--tol-master", "1e-3"), ("--master-iters", "5")])
def test_relax_master_knobs_are_usage_errors(inst_path, flag, value, capsys):
    assert run(["relax", "--instance", str(inst_path), flag, value]) == cli.EXIT_USAGE
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "UsageError"


def test_relax_manifest_names_epsilon_as_the_only_accuracy(inst_path, tmp_path):
    out = tmp_path / "rx.json"
    assert run(["relax", "--instance", str(inst_path), "-o", str(out)]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "rx.json.manifest.json").read_text())
    assert set(manifest["tolerances"]) == {"delta", "epsilon", "gamma"}
    assert set(manifest["caps"]) == {"bb_nodes"}


def test_relax_certifies_knapsack_8_seed_10(tmp_path):
    # exited 3 (MasterConvergenceError) while the master had its own 1e-7 tolerance
    inst = tmp_path / "k8.json"
    run(["gen", "--variant", "knapsack", "--d", "8", "--seed", "82", "-o", str(inst)])
    out = tmp_path / "rx.json"
    code = run(["relax", "--instance", str(inst), "--seed", "10", "-o", str(out)])
    assert code == cli.EXIT_OK
    assert json.loads(out.read_text())["certificate"]["feasible_for"] == "full"


def test_relax_degenerate_exit_code(tmp_path, capsys):
    inst = tmp_path / "deg.json"
    run(["gen", "--variant", "knapsack", "--d", "5", "--seed", "0", "-o", str(inst)])
    assert run(["relax", "--instance", str(inst)]) == cli.EXIT_DEGENERATE
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DegenerateInstanceError"
    assert "span rank 5 < p = 6" in err["message"]


def test_relax_node_limit_without_incumbent_is_soft_failure(inst_path, monkeypatch, capsys):
    # B&B forced on a small space, stopped before it finds any feasible point
    monkeypatch.setattr(pricing, "ENUM_THRESHOLD", 0)
    code = run(["relax", "--instance", str(inst_path), "--bb-nodes", "1"])
    assert code == cli.EXIT_SOFT_FAILURE
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "NodeLimitError"
