#!/usr/bin/env python3
"""Capture local search (LS) outputs on a fixed check set, for bit comparison.

For every run of the check set below it writes the final design, the
`LocalSearchReport` and the move trace (iteration, x_out, x_in, move kind,
new logdet), with every float as `float.hex`, to one JSON file.  A run whose
instance spans less than rank p records its error instead.  `doptdesign` is
imported from PYTHONPATH, so two source trees are compared with the same
script and `cmp`:

    PYTHONPATH=old/src python3 scripts/ls_capture.py old.json
    PYTHONPATH=src python3 scripts/ls_capture.py new.json
    cmp old.json new.json

Check set (LS seed in the last column):
    knapsack d=4, generator seeds 7, 12, 21, k = 5..8      LS seed 0
    cardinality d=4..12                                     LS seeds 0-2
    knapsack d=9..14, generator seeds 0-2                   LS seed 0
    knapsack d=11, generator seeds 0-2                      LS seeds 1-2
    second-order knapsack d=10..12, generator seed 1        LS seed 0
Knapsack d=17 (the branch-and-bound route) is left out: it takes minutes.
Per-run times go to stderr only.  About 30 s on a 2-core machine.
"""

import json
import sys
import time

from doptdesign import local_search, model
from doptdesign.pricing import DoptError

RUNS = (
    [("knapsack", 4, gen, k, 0) for gen in (7, 12, 21) for k in range(5, 9)]
    + [("cardinality", d, 0, None, ls) for d in range(4, 13) for ls in range(3)]
    + [("knapsack", d, gen, None, 0) for d in range(9, 15) for gen in range(3)]
    + [("knapsack", 11, gen, None, ls) for gen in range(3) for ls in (1, 2)]
    + [("second_order_knapsack", d, 1, None, 0) for d in range(10, 13)]
)


def _hex(value):
    return float(value).hex()


def capture(variant: str, d: int, gen: int, k, ls_seed: int) -> dict:
    inst = model.GENERATORS[variant](d, k, gen)
    moves = []
    step = local_search.exchange_step

    def recording_step(design, pricer, **kwargs):
        outcome = step(design, pricer, **kwargs)
        if outcome.move is not None:
            mv = outcome.move
            moves.append({"x_out": list(mv.x_out), "x_in": list(mv.x_in),
                          "kind": mv.move_kind, "logdet": _hex(mv.new_logdet)})
        return outcome

    local_search.exchange_step = recording_step
    try:
        design, report = local_search.run(inst, seed=ls_seed)
    except DoptError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    finally:
        local_search.exchange_step = step
    rep = report.to_dict()
    rep["final_logdet"] = _hex(rep["final_logdet"])
    for row in rep["trace"]:
        row["logdet"] = _hex(row["logdet"])
    return {"design": design.to_dict(), "logdet": _hex(design.logdet),
            "report": rep, "moves": moves}


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    out = []
    for variant, d, gen, k, ls_seed in RUNS:
        t0 = time.perf_counter()
        res = capture(variant, d, gen, k, ls_seed)
        name = f"{variant} d={d} gen={gen} k={k} ls={ls_seed}"
        print(f"{name}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
        out.append({"run": name, **res})
    with open(sys.argv[1], "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
