"""Benchmark for doptdesign: two closed-loop workloads, ls and relax.

Run from the root of a doptdesign checkout:

    python3 perfbench/run.py --workload ls --seed 0 --seconds 55 --trace 0

``--trace 0`` solves the workload's instances one at a time for ``--seconds``
seconds of summed solve time and reports the end-to-end metrics.  ``--trace 1``
spends half of that time solving untraced, then solves the same operations
again with a span around every public function of each layer, and reports the
per-layer metrics, including the tracing overhead (traced minus untraced wall
time of the same operations).  Every operation is checked by code independent
of the package (``checks.py``); a wrong answer, an exception or an overrun of
the operation's own budget is a failed operation and is listed.

The time is shared by WORKERS fresh interpreters that run one after another,
never at the same time, so a process's memory layout is averaged over, and
each process's start-up is one sample of the set-up time.  ``wall_s`` is, per
instance, the median solve time over its solves, summed over the workload's
instances: the solve time of the whole instance list, taken from as many
solver seeds as the run has time for.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS thread for the whole run; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()  # set-up time of a worker is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKERS = 3  # prime to the length of every workload's round (14 and 1)
WORKER_SLACK_S = 60  # start-up, checks and a last long solve, beyond a worker's share

MODULES = ("model", "psd_linalg", "pricing", "local_search", "relaxation", "bench")
LAYER_SPANS = {
    "model.contains": ("calls", "self_s"),
    "model.enumerate_space": ("calls", "self_s"),
    "model.eval_design_point": ("calls", "self_s"),
    "model.evaluate_many": ("self_s",),
    "psd_linalg.InfoMatrix.from_matrix": ("calls", "self_s"),
    "psd_linalg.pricing_matrix": ("self_s",),
    "psd_linalg.rank_one_downdate": ("calls",),
    "pricing.heuristic_search": ("calls", "self_s"),
    "pricing.solve_enum": ("calls", "self_s"),
    "pricing.solve_bb": ("calls", "self_s"),
    "pricing.linprog": ("calls", "self_s"),
    "pricing.build_linearization": ("self_s",),
    "local_search.initial_design": ("self_s",),
    "local_search.exchange_step": ("calls", "self_s"),
    "relaxation.solve_restricted_master": ("calls", "self_s"),
    "relaxation.sparsify": ("calls", "self_s"),
    "bench.brute_force_dopt": ("self_s",),
}
RESULT_COUNTERS = (
    "pricing.heuristic_search.evals",
    "pricing.solve_enum.points",
    "pricing.solve_bb.nodes",
)


class BudgetExceeded(BaseException):
    """Raised by the alarm when an operation runs past its budget.

    A BaseException, so that no ``except Exception`` inside the package can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise BudgetExceeded


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("ls", "relax"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="summed solve time of the run; the last solve "
                         "started within it runs to its end")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, choices=range(WORKERS),
                    help="internal: solve this worker's operations for "
                         "--seconds and print the rows as JSON")
    return ap.parse_args(argv)


def call(op):
    from doptdesign import bench, local_search, pricing, relaxation

    if op.kind == "ls":
        return local_search.run(op.inst, seed=op.seed)
    if op.kind == "relax":
        pricer = pricing.Pricer(op.inst.space, op.inst.model)
        return relaxation.column_generation(op.inst, pricer, relaxation.CGParams(seed=op.seed))
    if op.kind == "brute":
        return bench.brute_force_dopt(op.inst)
    return pricing.Pricer(op.inst.space, op.inst.model).exact(op.G)


def solve(op, tracer=None):
    """Solve one operation under its budget; returns its row and result."""
    row = {"op": op.label, "gseed": op.gseed, "seed": op.seed, "kind": op.kind,
           "time_s": 0.0, "status": "ok", "reason": ""}
    result = None
    before = tracer.snapshot() if tracer else {}
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, op.budget_s)
        try:
            result = call(op)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        row.update(status="failed", reason=f"budget of {op.budget_s:.1f} s exceeded")
    except Exception as exc:  # noqa: BLE001 - every failure becomes a row
        result = exc
    row["time_s"] = time.perf_counter() - t0
    if tracer:
        after = tracer.snapshot()
        row["trace"] = {k: v - before.get(k, 0) for k, v in after.items()}
    return row, result


def run_ops(schedule, seconds: float):
    """Solve operations in order until their summed time reaches ``seconds``.

    The first operation always runs.  Returns the operations, rows and results.
    """
    ops, rows, results = [], [], []
    spent = 0.0
    for op in schedule:
        if ops and spent >= seconds:
            break
        row, result = solve(op)
        spent += row["time_s"]
        ops.append(op)
        rows.append(row)
        results.append(result)
    return ops, rows, results


def check_rows(ops, rows, results):
    """Fill status and reason of every row from the independent checks."""
    import checks
    from doptdesign.local_search import DegenerateInstanceError

    spaces = {}
    for op, row, res in zip(ops, rows, results):
        if row["status"] != "ok":
            continue
        key = (op.label, op.gseed)
        if key not in spaces:
            space = checks.Space(op.inst.space)
            spaces[key] = (space, space.enumerate(), {})
        space, X, memo = spaces[key]
        if isinstance(res, Exception) and not isinstance(res, DegenerateInstanceError):
            row.update(status="failed", reason=f"{type(res).__name__}: {res}")
            continue
        try:
            wrong = _check(checks, op, row, res, space, X, memo)
        except Exception as exc:  # noqa: BLE001 - a malformed result is a wrong answer
            wrong = f"result could not be checked: {type(exc).__name__}: {exc}"
        if wrong:
            row.update(status="wrong", reason=wrong)


def _check(checks, op, row, res, space, X, memo):
    """Run the check for one operation; returns None or the reason it is wrong.

    ``memo`` keeps the benchmark's own exhaustive optimum of the instance, so
    that repeated brute-force solves are checked against one search.
    """
    from doptdesign.local_search import DegenerateInstanceError

    if isinstance(res, DegenerateInstanceError):
        return checks.check_degenerate(op.inst, X)
    if op.kind == "ls":
        design, report = res
        row["iterations"], row["ip_calls"] = report.iterations, report.ip_calls
        row["heuristic_moves"] = report.heuristic_moves
        row["ip_moves"] = sum(kind == "ip" for _, _, kind in report.trace)
        wrong, row["logdet"] = checks.check_local_search(op.inst, space, X, design, report)
        return wrong
    if op.kind == "relax":
        cd, cert, _ = res
        wrong, row["cert_gap"] = checks.check_relaxation(op.inst, space, X, cd, cert)
        return wrong
    if op.kind == "brute":
        row["multisets"] = res.multisets_examined
        if "optimum" not in memo:
            memo["optimum"] = checks.brute_force_optimum(op.inst, X)
        return checks.check_brute_force(op.inst, space, X, res, memo["optimum"])
    return checks.check_exact_pricing(op.inst, space, X, op.G, res)


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _git_sha() -> str:
    """HEAD of the checkout read from .git, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown (no .git or packed ref)"


def wall_seconds(rows) -> float:
    """Per instance, the median solve time over its repetitions; summed.

    An instance is a workload row with one generator seed, so every instance
    counts once, the heavy ones included.
    """
    times = {}
    for r in rows:
        times.setdefault((r["op"], r["gseed"]), []).append(r["time_s"])
    return sum(statistics.median(t) for t in times.values())


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def summary(rows) -> dict:
    """Quality figures over the workload: failures, mean LS logdet, worst gap."""
    logdets = [r["logdet"] for r in rows if r["status"] == "ok" and r.get("logdet") is not None]
    gaps = [r["cert_gap"] for r in rows if r["status"] == "ok" and r.get("cert_gap") is not None]
    failed = sum(r["status"] != "ok" for r in rows)
    return {
        "fail_frac": _ratio(failed, len(rows)),
        "ls_logdet_mean": statistics.fmean(logdets) if logdets else 0.0,
        "cert_gap_max": max(gaps) if gaps else 0.0,
    }


def per_layer(tracer, rows, untraced_wall: float) -> dict:
    """Per-layer metrics from the spans and the returned counts."""
    wall = sum(r["time_s"] for r in rows)
    m = {}
    for name, fields in LAYER_SPANS.items():
        for f in fields:
            src = tracer.calls if f == "calls" else tracer.self_s
            m[f"{name}.{f}"] = (src.get(name, 0), "count" if f == "calls" else "s")
    for name in RESULT_COUNTERS:
        m[name] = (tracer.counts.get(name, 0), "count")

    def total(kind, key):
        return sum(r.get("trace", {}).get(key, 0) for r in rows if r["kind"] == kind)

    def field(kind, key):
        return sum(r.get(key, 0) for r in rows if r["kind"] == kind)

    ls_heur = total("ls", "pricing.heuristic_search.calls")
    m["local_search.iterations"] = (field("ls", "iterations"), "count")
    m["local_search.ip_calls"] = (field("ls", "ip_calls"), "count")
    m["local_search.heuristic_hit_rate"] = (_ratio(field("ls", "heuristic_moves"), ls_heur), "ratio")
    m["local_search.ip_hit_rate"] = (_ratio(field("ls", "ip_moves"), field("ls", "ip_calls")), "ratio")
    # one heuristic pricing per CG iteration; an exact one only when it misses
    cg_iters = total("relax", "pricing.heuristic_search.calls")
    exact = total("relax", "pricing.Pricer.exact.calls")
    m["relaxation.cg_iters"] = (cg_iters, "count")
    m["relaxation.exact_pricings"] = (exact, "count")
    m["relaxation.heuristic_hit_rate"] = (_ratio(cg_iters - exact, cg_iters), "ratio")
    multisets = field("brute", "multisets")
    m["bench.multisets"] = (multisets, "count")
    m["bench.multisets_per_s"] = (_ratio(multisets, tracer.total_s.get("bench.brute_force_dopt", 0.0)), "1/s")

    layer_self = {mod: 0.0 for mod in MODULES}
    for name, s in tracer.self_s.items():
        layer_self[name.split(".")[0]] += s
    for mod, s in layer_self.items():
        m[f"layer.{mod}.self_s"] = (s, "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_s"] = (wall - untraced_wall, "s")
    m["trace.unattributed_s"] = (wall - sum(layer_self.values()), "s")
    m["share.contains_and_heuristic"] = (
        _ratio(tracer.self_s.get("model.contains", 0.0) + tracer.self_s.get("pricing.heuristic_search", 0.0), wall), "ratio")
    m["share.solve_restricted_master"] = (
        _ratio(tracer.total_s.get("relaxation.solve_restricted_master", 0.0), wall), "ratio")
    m["share.brute_force_dopt"] = (_ratio(tracer.total_s.get("bench.brute_force_dopt", 0.0), wall), "ratio")
    m["share.solve_bb"] = (_ratio(tracer.total_s.get("pricing.solve_bb", 0.0), wall), "ratio")
    quality = summary(rows)
    m["fail_frac"] = (quality["fail_frac"], "ratio")
    m["ls_logdet_mean"] = (quality["ls_logdet_mean"], "nat")
    m["cert_gap_max"] = (quality["cert_gap_max"], "nat")
    return m


def worker(args) -> int:
    """Set up the workload, solve and check this worker's share, print JSON."""
    sys.path.insert(0, str(SRC))
    import doptdesign.bench  # noqa: F401  (imports every layer)
    import workloads

    instances = workloads.build(args.workload)
    schedule = workloads.schedule(instances, args.seed, args.worker, WORKERS)
    setup_s = time.perf_counter() - T_START
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = untraced_s = None
    if args.trace:
        from tracing import Tracer

        ops, rows, _ = run_ops(schedule, args.seconds / 2)
        untraced_s = sum(r["time_s"] for r in rows)
        tracer = Tracer()
        tracer.install()
        try:
            rows, results = map(list, zip(*(solve(op, tracer) for op in ops)))
        finally:
            tracer.uninstall()
        spent_s = untraced_s + sum(r["time_s"] for r in rows)
    else:
        ops, rows, results = run_ops(schedule, args.seconds)
        spent_s = sum(r["time_s"] for r in rows)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_rows(ops, rows, results)
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(),
        "instances": [[i.label, i.gseed, i.kind, i.budget_s] for i in instances],
        "rows": rows,
        "spent_s": spent_s,
        "untraced_s": untraced_s,
        "spans": tracer.stats() if tracer else None,
    }))
    return 0


def failed_row(label: str, gseed: int, kind: str, time_s: float, reason: str) -> dict:
    """A failed operation charged ``time_s``, so that it never looks fast."""
    return {"op": label, "gseed": gseed, "seed": -1, "kind": kind, "time_s": time_s,
            "status": "failed", "reason": reason}


def lost_worker(w: int, share_s: float, exc: Exception) -> dict:
    """Result of a worker that crashed or overran: one failed row, charged its share."""
    if isinstance(exc, subprocess.TimeoutExpired):
        detail = f"timed out after {exc.timeout:.1f} s"
    else:
        detail = ((getattr(exc, "stderr", None) or "").strip().splitlines() or [str(exc)])[-1]
    row = failed_row(f"worker {w}", -1, "lost", share_s,
                     f"worker {w} lost: {type(exc).__name__}: {detail}")
    return {"setup_s": None, "peak_rss_mb": 0.0, "environment": None, "instances": [],
            "rows": [row], "spent_s": share_s, "untraced_s": None, "spans": None}


def run_workers(args) -> dict:
    """Run the workload in WORKERS fresh interpreters, one after another.

    Each worker gets an equal share of the time left, so a worker whose last
    solve ran long leaves less to the ones after it.
    """
    from tracing import Tracer

    out = {"setup_s": [], "peak_rss_mb": 0.0, "environment": None, "instances": set(),
           "rows": [], "untraced_s": 0.0, "spans": Tracer()}
    spent = 0.0
    for w in range(WORKERS):
        share = max(args.seconds - spent, 0.0) / (WORKERS - w)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", f"{share:.3f}",
               "--trace", str(args.trace), "--worker", str(w)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                                  timeout=share + WORKER_SLACK_S)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            res = lost_worker(w, share, exc)
        if res["setup_s"] is not None:
            out["setup_s"].append(res["setup_s"])
            out["environment"] = res["environment"]
        out["peak_rss_mb"] = max(out["peak_rss_mb"], res["peak_rss_mb"])
        out["instances"].update(map(tuple, res["instances"]))
        out["rows"] += res["rows"]
        out["untraced_s"] += res["untraced_s"] or 0.0
        if res["spans"]:
            out["spans"].merge(res["spans"])
        spent += res["spent_s"]
    return out


def unsolved(instances, rows) -> list:
    """A failed row for every instance that was never solved, charged its budget."""
    seen = {(r["op"], r["gseed"]) for r in rows}
    return [failed_row(label, gseed, kind, budget, "never solved: the run was too short")
            for label, gseed, kind, budget in sorted(instances) if (label, gseed) not in seen]


def print_rows(rows):
    print(f"{'operation':40s} {'gseed':>5s} {'seed':>9s} {'time_s':>9s}  status")
    for r in rows:
        print(f"{r['op']:40s} {r['gseed']:5d} {r['seed']:9d} {r['time_s']:9.3f}  "
              f"{r['status']}  {r['reason']}")
    for r in rows:
        if r["status"] != "ok":
            print(f"FAILED {r['op']} g{r['gseed']} seed {r['seed']}: {r['reason']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "doptdesign" / "__init__.py").is_file():
        print(f"error: no doptdesign package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.worker is not None:
        return worker(args)
    run = run_workers(args)
    rows = run["rows"]
    if args.trace:
        # per-layer figures cover the solves made; a traced run solves for
        # half its time, so a long instance late in the round can be missed
        for r in unsolved(run["instances"], rows):
            print(f"not traced: {r['op']} g{r['gseed']} (not reached in the untraced half)")
    else:
        rows += unsolved(run["instances"], rows)
    if not run["setup_s"]:
        print_rows(rows)
        print("error: every worker was lost; nothing was measured", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {len(rows)} operations in {WORKERS} processes")
    print("environment " + json.dumps(run["environment"]))
    print_rows(rows)
    quality = summary(rows)
    if args.trace:
        metrics = per_layer(run["spans"], rows, run["untraced_s"])
        for name, (value, unit) in metrics.items():
            print(f"  {name:42s} {value:14.6g} {unit}")
        print(f"layer self times sum to {metrics['trace.wall_s'][0] - metrics['trace.unattributed_s'][0]:.4f} s "
              f"of {metrics['trace.wall_s'][0]:.4f} s traced wall time; the remainder is the "
              "benchmark's own call overhead outside the outermost span")
        import workloads

        print("dominant layer shares of traced wall time (measured vs predicted):")
        for name, predicted in workloads.PREDICTIONS[args.workload].items():
            print(f"  {name:42s} measured {metrics[name][0]:.3f}  predicted {predicted:.3f}")
    else:
        metrics = {
            "wall_s": (wall_seconds(rows), "s"),
            "setup_s": (statistics.median(run["setup_s"]), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
        shown = dict(metrics)
        shown.update({
            "fail_frac": (quality["fail_frac"], "ratio"),
            "ls_logdet_mean": (quality["ls_logdet_mean"], "nat"),
            "cert_gap_max": (quality["cert_gap_max"], "nat"),
        })
        for name, (value, unit) in shown.items():
            print(f"  {name:14s} {value:14.6g} {unit}")
    print("detail " + json.dumps({"environment": run["environment"], "operations": [
        {k: v for k, v in r.items() if k != "trace"} for r in rows]}))
    failed = sum(r["status"] != "ok" for r in rows)
    print(json.dumps({
        "correct": not any(r["status"] == "wrong" for r in rows),
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
