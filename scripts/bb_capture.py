#!/usr/bin/env python3
"""Capture branch-and-bound (B&B) pricing results on a fixed check set, for bit comparison.

For every call of the check set below it writes the returned x, value,
node count and `exact` flag, with every float as `float.hex`, to one JSON
file.  A call that raises records its error instead.  `doptdesign` is
imported from PYTHONPATH, so two source trees are compared with the same
script and `cmp`:

    PYTHONPATH=old/src python3 scripts/bb_capture.py old.json
    PYTHONPATH=src python3 scripts/bb_capture.py new.json
    cmp old.json new.json

Check set:
    the 200 (G, instance) pairs of acceptance criterion 8 (d <= 10, all three variants)
    local-search exchanges from the seed-0 start, for the first 4 support
        points in scan order, with the heuristic's point as incumbent, with and
        without the improvement target: knapsack d=11 gen 0, second-order
        knapsack d=12 gen 1, cardinality d=9
    300 near-tie probes: G = I + 1e-13 diag(0..2 per entry) with G[0, 0] = 0,
        on cardinality or knapsack d=3..6, drawn from default_rng(0)
    inverse information matrices of random k-point designs on knapsack d=17,
        generator seeds 0-2, design seeds 0-2, and on second-order knapsack
        d=17 (products of up to 4 bits), generator seeds 0, 2 and 3, design
        seed 0 (generator seed 1 spans rank 45 < p = 46: no design has an
        inverse information matrix)
Per-part times go to stderr only.
"""

import json
import math
import sys
import time

import numpy as np

from doptdesign import local_search as LS
from doptdesign import model as M
from doptdesign.pricing import DoptError, heuristic_search, solve_bb
from doptdesign.psd_linalg import pricing_matrix


def _record(name, G, inst, **kwargs) -> dict:
    try:
        res = solve_bb(G, inst.space, inst.model, **kwargs)
    except DoptError as exc:
        return {"call": name, "error": type(exc).__name__, "message": str(exc)}
    return {"call": name, "x": [int(t) for t in res.x], "value": float(res.value).hex(),
            "nodes": res.nodes, "exact": res.exact}


def acceptance_pairs():
    """The generator of acceptance criterion 8, draw for draw."""
    rng = np.random.default_rng(2)
    for trial in range(200):
        variant = trial % 3
        if variant == 0:
            d = int(rng.integers(3, 11))
            inst = M.generate_cardinality_instance(d, k=2 * (d + 1))
        elif variant == 1:
            d = int(rng.integers(2, 11))
            inst = M.generate_knapsack_instance(d, seed=int(rng.integers(0, 50)))
        else:
            d = int(rng.integers(4, 9))
            inst = M.generate_second_order_knapsack_instance(d, seed=int(rng.integers(0, 50)))
        A = rng.normal(size=(inst.p, inst.p))
        yield f"acceptance-8 trial {trial}", inst, 0.5 * (A + A.T), {}


def exchange_calls():
    for variant, d, gen in (("knapsack", 11, 0), ("second_order_knapsack", 12, 1),
                            ("cardinality", 9, 0)):
        inst = M.GENERATORS[variant](d, None, gen)
        design = LS.initial_design(inst, seed=0)
        Sinv = pricing_matrix(design.info)
        tol_abs = LS.TOL_IMPROVE * max(1.0, abs(design.logdet))
        scan = sorted(design.support, key=lambda x: (-design.support[x], x))
        for x_out in scan[:4]:
            keep, G = LS.exchange_pricing(Sinv, inst.model.evaluate(x_out).astype(float))
            inc = heuristic_search(G, inst.space, inst.model, np.array(x_out))
            name = f"exchange {variant} d={d} gen={gen} x_out={list(x_out)}"
            yield name + " target", inst, G, {"incumbent": inc, "target": math.exp(tol_abs) - keep}
            yield name, inst, G, {"incumbent": inc}


def near_tie_probes():
    rng = np.random.default_rng(0)
    for probe in range(300):
        d = int(rng.integers(3, 7))
        knapsack = bool(rng.integers(0, 2))
        gen = int(rng.integers(0, 50))
        inst = M.generate_knapsack_instance(d, seed=gen) if knapsack else M.generate_cardinality_instance(d)
        G = np.eye(inst.p) + 1e-13 * np.diag(rng.integers(0, 3, size=inst.p))
        G[0, 0] = 0.0
        yield f"near-tie probe {probe}", inst, G, {}


def inverse_information():
    for variant, gens, seeds in (("knapsack", (0, 1, 2), (0, 1, 2)),
                                 ("second_order_knapsack", (0, 2, 3), (0,))):
        for gen in gens:
            inst = M.GENERATORS[variant](17, None, gen)
            for seed in seeds:
                name = f"inverse information {variant} d=17 gen={gen} seed={seed}"
                yield name, inst, inverse_information_matrix(inst, seed), {}


def inverse_information_matrix(inst, seed):
    """Symmetrized inverse information matrix of a random full-rank k-point design."""
    rng = np.random.default_rng([seed, inst.seed])
    while True:
        X = rng.integers(0, inst.space.L, size=(8 * inst.k, inst.space.d))
        X = X[inst.space.feasible(X)][: inst.k]
        V = inst.model.evaluate_many(X).astype(float)
        if len(X) == inst.k and np.linalg.matrix_rank(V) == inst.p:
            break
    G = np.linalg.inv(V.T @ V)
    return 0.5 * (G + G.T)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    out = []
    for part in (acceptance_pairs, exchange_calls, near_tie_probes, inverse_information):
        t0 = time.perf_counter()
        out += [_record(name, G, inst, **kwargs) for name, inst, G, kwargs in part()]
        print(f"{part.__name__}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    with open(sys.argv[1], "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
