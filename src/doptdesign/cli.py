"""Command-line entry point: generate instances, run solvers, emit reports.

Exit codes: 0 success, 1 usage error, 2 infeasible/degenerate instance,
3 solver soft failure (inconclusive).  Errors are emitted as JSON lines on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, bench, local_search, model, relaxation
from .pricing import DegenerateInstanceError, DoptError, Pricer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_SOFT_FAILURE = 3

VARIANTS = {
    "cardinality": "cardinality",
    "knapsack": "knapsack",
    "second_order": "second_order_knapsack",
    "second_order_knapsack": "second_order_knapsack",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        print(text)
    else:
        Path(path).write_text(text)


def _write_manifest(path: str | None, command: str, inst, args: dict) -> None:
    if path is None or path == "-":
        return
    manifest = {
        "version": __version__,
        "command": command,
        "seed": args.get("seed"),
        "tolerances": {
            k: args[k]
            for k in ("delta", "epsilon", "gamma", "tol_master", "tol_improve")
            if k in args
        },
        "caps": {
            k: args[k]
            for k in ("bb_nodes", "master_iters")
            if k in args
        },
        "instance_hash": model.instance_hash(inst) if inst is not None else None,
        "rng": model.RNG_ALGORITHM,
    }
    Path(str(path) + ".manifest.json").write_text(json.dumps(manifest, indent=2))


def _load_instance(path: str) -> model.Instance:
    return model.instance_from_json(Path(path).read_text())


def _cmd_gen(args) -> int:
    gen_name = VARIANTS[args.variant]
    inst = model.GENERATORS[gen_name](args.d, args.k, args.seed)
    _write(args.output, model.instance_to_json(inst))
    _write_manifest(args.output, "gen", inst, {"seed": args.seed})
    return EXIT_OK


def _cmd_ls(args) -> int:
    inst = _load_instance(args.instance)
    pricer = Pricer(inst.space, inst.model, node_limit=args.bb_nodes)
    warm = None
    if args.warm_start:
        warm = local_search.Design.from_dict(
            inst.model, json.loads(Path(args.warm_start).read_text())
        )
    design, report = local_search.run(
        inst,
        seed=args.seed,
        warm_start=warm,
        pricer=pricer,
        tol_improve=args.tol_improve,
    )
    payload = {"design": design.to_dict(), "report": report.to_dict()}
    _write(args.output, json.dumps(payload, indent=2))
    _write_manifest(
        args.output,
        "ls",
        inst,
        {
            "seed": args.seed,
            "tol_improve": args.tol_improve,
            "bb_nodes": args.bb_nodes,
        },
    )
    return EXIT_SOFT_FAILURE if report.inconclusive else EXIT_OK


def _cmd_relax(args) -> int:
    inst = _load_instance(args.instance)
    pricer = Pricer(inst.space, inst.model, node_limit=args.bb_nodes)
    params = relaxation.CGParams(
        delta=args.delta,
        epsilon=args.epsilon,
        gamma=args.gamma,
        seed=args.seed,
        tol_master=args.tol_master,
        master_iters=args.master_iters,
    )
    cd, cert, trace = relaxation.column_generation(inst, pricer, params)
    payload = {
        "continuous_design": cd.to_dict(),
        "certificate": {
            "Lambda": cert.Lambda.tolist(),
            "nu": cert.nu,
            "objective": cert.objective,
            "feasible_for": cert.feasible_for,
        },
        "trace": trace,
    }
    _write(args.output, json.dumps(payload, indent=2))
    _write_manifest(
        args.output,
        "relax",
        inst,
        {
            "seed": args.seed,
            "delta": args.delta,
            "epsilon": args.epsilon,
            "gamma": args.gamma,
            "tol_master": args.tol_master,
            "master_iters": args.master_iters,
            "bb_nodes": args.bb_nodes,
        },
    )
    return EXIT_OK


def _cmd_suite(args) -> int:
    seeds = tuple(int(s) for s in args.seeds.split(","))
    gen_name = VARIANTS[args.variant]
    k_rule = None
    if args.k is not None:
        k_rule = lambda p: args.k
    report = bench.run_suite(
        gen_name,
        range(args.d_min, args.d_max + 1),
        k_rule=k_rule,
        seeds=seeds,
    )
    if args.output and args.output.endswith(".csv"):
        _write(args.output, report.to_csv())
    else:
        _write(args.output, report.to_json())
    _write_manifest(args.output, "suite", None, {"seed": args.seeds})
    return EXIT_OK


def _cmd_brute(args) -> int:
    inst = _load_instance(args.instance)
    result = bench.brute_force_dopt(inst, cap=args.cap)
    if result.optimal_design is None:
        raise DegenerateInstanceError("no rank-p design of size k exists in this space")
    payload = {
        "optimum_logdet": result.optimum_logdet,
        "optimal_design": result.optimal_design.to_dict(),
        "multisets_examined": result.multisets_examined,
    }
    _write(args.output, json.dumps(payload, indent=2))
    _write_manifest(args.output, "brute", inst, {"seed": None})
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="doptdesign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", "-o", default=None)
        p.add_argument("--bb-nodes", type=int, default=10**6)

    p = sub.add_parser("gen", help="generate an instance JSON")
    p.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("ls", help="run the pricing-based local search")
    p.add_argument("--instance", required=True)
    p.add_argument("--warm-start", default=None, help="design JSON to start from")
    p.add_argument("--tol-improve", type=float, default=local_search.TOL_IMPROVE)
    common(p)
    p.set_defaults(func=_cmd_ls)

    p = sub.add_parser("relax", help="solve the continuous relaxation")
    p.add_argument("--instance", required=True)
    p.add_argument("--delta", type=float, default=relaxation.DELTA)
    p.add_argument("--epsilon", type=float, default=relaxation.EPSILON)
    p.add_argument("--gamma", type=float, default=relaxation.GAMMA)
    p.add_argument("--tol-master", type=float, default=relaxation.TOL_MASTER)
    p.add_argument("--master-iters", type=int, default=relaxation.MASTER_ITER_CAP)
    common(p)
    p.set_defaults(func=_cmd_relax)

    p = sub.add_parser("suite", help="run a benchmark suite")
    p.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    p.add_argument("--d-min", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="fixed budget; default 2p")
    p.add_argument("--seeds", default="0")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("brute", help="exhaustive integer optimum (small instances)")
    p.add_argument("--instance", required=True)
    p.add_argument("--cap", type=int, default=bench.BRUTE_CAP)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_brute)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _emit_error("UsageError", str(exc))
        return EXIT_USAGE
    try:
        return args.func(args)
    except (DoptError, ValueError, OSError, KeyError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return getattr(exc, "exit_code", EXIT_USAGE)  # solver errors carry their own


if __name__ == "__main__":
    sys.exit(main())
