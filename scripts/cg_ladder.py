#!/usr/bin/env python3
"""Column-generation ladder: does every row certify within its time budget?

Runs the continuous relaxation, CG seed 0, on knapsack d = 11-13 x
generator seeds 0-2 (60 s each) and on second-order knapsack d = 12,
generator seed 1 (120 s).  Rows run one at a time, each in its own
subprocess, and the budget covers the whole subprocess.  For each row it
prints the status, the column-generation time, the certified gap
(certificate objective minus relaxation objective) and its bound
p((1 + eps)^2 - 1).  Exits 1 if any row does not certify within its budget,
or certifies a gap above the bound.

Example:
    python3 scripts/cg_ladder.py   # about 3 min
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
LADDER = [("knapsack", d, gen, 60.0) for d in (11, 12, 13) for gen in (0, 1, 2)]
LADDER.append(("second_order_knapsack", 12, 1, 120.0))


def solve_row(variant: str, d: int, gen_seed: int) -> dict:
    """One column-generation solve, in this process."""
    from doptdesign import model, relaxation
    from doptdesign.pricing import DoptError

    inst = model.GENERATORS[variant](d, None, gen_seed)
    params = relaxation.CGParams(seed=0)
    t0 = time.perf_counter()
    try:
        cd, cert, _ = relaxation.column_generation(inst, params=params)
    except DoptError as exc:  # a solver failure is the row's status
        return {"status": type(exc).__name__, "cg_s": time.perf_counter() - t0}
    gap = cert.objective - cd.objective
    bound = inst.p * ((1 + params.epsilon) ** 2 - 1)
    if cert.feasible_for != "full":
        status = "uncertified"
    else:
        status = "certified" if gap <= bound + 1e-9 else "gap above bound"
    return {"status": status, "cg_s": time.perf_counter() - t0, "gap": gap, "bound": bound}


def run_row(variant: str, d: int, gen_seed: int, budget: float) -> dict:
    cmd = [sys.executable, __file__, "--row", variant, str(d), str(gen_seed)]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=budget,
                              env=dict(os.environ, PYTHONPATH=path))
    except subprocess.TimeoutExpired:
        return {"status": f"no result in {budget:.0f} s"}
    if proc.returncode != 0:
        return {"status": "crashed: " + (proc.stderr.strip().splitlines() or ["?"])[-1]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--row", nargs=3, metavar=("VARIANT", "D", "GEN_SEED"),
                        help=argparse.SUPPRESS)  # one row, result as JSON
    args = parser.parse_args()
    if args.row:
        variant, d, gen_seed = args.row
        print(json.dumps(solve_row(variant, int(d), int(gen_seed))))
        return 0

    header = f"{'variant':<22} {'d':>3} {'gen':>3} {'status':<16} {'cg_s':>7} {'gap':>9} {'bound':>9}"
    print(header)
    print("-" * len(header))
    failed = 0
    for variant, d, gen_seed, budget in LADDER:
        res = run_row(variant, d, gen_seed, budget)
        failed += res["status"] != "certified"
        cells = [f"{res[key]:>9.2e}" if key in res else f"{'-':>9}" for key in ("gap", "bound")]
        cg_s = f"{res['cg_s']:>7.1f}" if "cg_s" in res else f"{'-':>7}"
        print(f"{variant:<22} {d:>3} {gen_seed:>3} {res['status']:<16} {cg_s} {' '.join(cells)}",
              flush=True)
    print(f"{len(LADDER) - failed}/{len(LADDER)} rows certified")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
