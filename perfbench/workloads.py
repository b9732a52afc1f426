"""Workload definitions: fixed instance lists, solved one at a time.

Every workload is a closed loop with one client: each operation starts after
the previous one has finished.  Generator seeds are part of the definition;
the workload seed only sets the local-search start seeds, the
``CGParams.seed`` values and the random designs whose inverse information
matrices are priced exactly.

Single solves vary a lot with the solver seed (column generation on
cardinality d=9 takes 0.1 to 5 s over 500 seeds, with a median near 0.4 s;
one exact pricing at knapsack d=17 visits 30 to 1100 nodes), so a workload is
not a fixed number of solves: the instances are solved in turn, again and
again, with consecutive solver seeds, until the run's time is used up, and the
run reports the median time per instance.  The brute force and the degenerate
local search do the same work whatever the seed; repeating them too spreads
them over the run, so a burst of host load does not set their time alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from itertools import count

import numpy as np

from checks import Space, features

# kind, generator, d, generator seeds, k (None: 2p), budget of one solve in s,
# and solves per round.  The longest instance comes last, so that the first
# solve of each worker process covers the other instances even when a run is
# short.
#
# ls holds every integer-side solve, the oracles included.  An exact pricing
# at knapsack d=17 takes 0.2 to 9 s depending on the drawn G, so a workload
# where it set most of wall_s spread by more than a quarter between seeds.
# Here it is solved three times per round, for a steadier median, and is
# about a fifth of wall_s, beside solves of steadier cost.
WORKLOADS = {
    "ls": [
        ("ls", "knapsack", 11, (0, 1, 2), None, 20.0, 1),
        ("exact", "knapsack", 17, (0, 1, 2), None, 20.0, 3),
        ("brute", "knapsack", 5, (2,), 8, 30.0, 1),  # 203,490 multisets
        # no rank-p design: DegenerateInstanceError, the CLI's exit-2 path
        ("ls", "knapsack", 5, (0,), None, 30.0, 1),
    ],
    "relax": [
        ("relax", "cardinality", 9, (0,), None, 20.0, 1),
    ],
}

# Predicted share of traced wall time, printed beside the measured share.
PREDICTIONS = {
    "ls": {"share.contains_and_heuristic": 0.3, "share.brute_force_dopt": 0.1,
           "share.solve_bb": 0.55},
    "relax": {"share.solve_restricted_master": 0.9},
}

# Solver seeds of workload seed s are s * SEED_STRIDE + r for r = 0, 1, ...,
# so two workload seeds never share a solve.
SEED_STRIDE = 1_000_000


@dataclass
class Instance:
    """One instance of a workload; with gseed, label names it."""

    label: str
    gseed: int
    kind: str
    inst: object
    space: Space
    budget_s: float


@dataclass
class Op:
    label: str
    gseed: int
    kind: str
    inst: object
    budget_s: float
    seed: int
    G: np.ndarray | None = None


def build(workload: str) -> list[Instance]:
    """Generate the instances of one workload, in the order of one round.

    An instance solved several times per round appears that many times.
    """
    from doptdesign import model

    out = []
    for kind, gen, d, gseeds, k, budget, per_round in WORKLOADS[workload]:
        row = []
        for gseed in gseeds:
            inst = model.GENERATORS[gen](d, k, gseed)
            row.append(Instance(f"{kind} {gen} d={d} k={inst.k}", gseed, kind, inst,
                                Space(inst.space), budget))
        out += row * per_round
    return out


def operation(instance: Instance, seed: int, r: int) -> Op:
    """The r-th solve of an instance under workload seed ``seed``."""
    op = Op(instance.label, instance.gseed, instance.kind, instance.inst,
            instance.budget_s, seed * SEED_STRIDE + r)
    if op.kind == "exact":
        rng = np.random.default_rng([op.seed, op.gseed])
        op.G = _random_inverse_information(op.inst, instance.space, rng)
    return op


def schedule(instances: list[Instance], seed: int, worker: int, workers: int):
    """Operations of one worker process, in order; the stream has no end.

    The solves form one round-robin stream over the instances, and worker w
    takes every ``workers``-th solve of it from position w.  With a worker
    count prime to the length of a round, each worker visits every instance.
    The r-th solve of an instance in the stream has solver seed r.
    """
    solves = Counter()
    for n in count():
        instance = instances[n % len(instances)]
        r = solves[instance.label, instance.gseed]
        solves[instance.label, instance.gseed] += 1
        if n % workers == worker:
            yield operation(instance, seed, r)


def _random_inverse_information(inst, space: Space, rng) -> np.ndarray:
    """Inverse information matrix of a random full-rank k-point design.

    Points are drawn uniformly from the box and kept when feasible.
    """
    while True:
        X = rng.integers(0, space.L, size=(8 * inst.k, space.d))
        X = X[space.feasible(X)][: inst.k]
        if len(X) < inst.k:
            continue
        V = features(inst.model, X)
        S = V.T @ V
        if np.linalg.matrix_rank(S) == inst.p:
            G = np.linalg.inv(S)
            return 0.5 * (G + G.T)
