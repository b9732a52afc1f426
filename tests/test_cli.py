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
