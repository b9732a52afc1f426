"""Brute-force oracle and benchmark suites with gap reporting."""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from itertools import chain, combinations_with_replacement, islice

import numpy as np

from . import local_search, relaxation
from .model import GENERATORS, Instance, enumerate_space
from .pricing import Pricer

BRUTE_CAP = 10**7
BRUTE_CHUNK = 4096  # multisets per batched slogdet

SUITE_COLUMNS = [
    "d",
    "k",
    "seed",
    "ls_value",
    "relax_value",
    "gap",
    "ls_time",
    "cg_time",
    "ip_calls",
    "iterations",
]


class BruteForceCapError(ValueError):
    pass


@dataclass
class BruteForceResult:
    optimum_logdet: float
    optimal_design: local_search.Design | None
    multisets_examined: int


def brute_force_dopt(instance: Instance, cap: int = BRUTE_CAP) -> BruteForceResult:
    """Exact integer optimum by exhausting all size-k multisets of the space."""
    X = enumerate_space(instance.space)
    n, k = X.shape[0], instance.k
    total = math.comb(n + k - 1, k)
    if total > cap:
        raise BruteForceCapError(f"{total} multisets exceed cap {cap}")
    P = instance.model.evaluate_many(X).astype(float)
    outers = np.einsum("ni,nj->nij", P, P)
    best_logdet = -np.inf
    best_combo = None
    examined = 0
    # lexicographic multisets in chunks; the strict > keeps the first optimum
    combos = chain.from_iterable(combinations_with_replacement(range(n), k))
    while True:
        idx = np.fromiter(islice(combos, BRUTE_CHUNK * k), dtype=np.intp).reshape(-1, k)
        if not idx.shape[0]:
            break
        examined += idx.shape[0]
        S = outers[idx[:, 0]]
        for t in range(1, k):
            S += outers[idx[:, t]]
        sign, ld = np.linalg.slogdet(S)
        ld = np.where(sign > 0, ld, -np.inf)
        i = int(np.argmax(ld))
        if ld[i] > best_logdet:
            best_logdet = ld[i]
            best_combo = idx[i].tolist()
    design = None
    if best_combo is not None:
        support: dict = {}
        for i in best_combo:
            x = tuple(int(t) for t in X[i])
            support[x] = support.get(x, 0) + 1
        design = local_search.Design.from_support(instance.model, support, k)
    return BruteForceResult(
        optimum_logdet=best_logdet,
        optimal_design=design,
        multisets_examined=examined,
    )


@dataclass
class SuiteReport:
    rows: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({"columns": SUITE_COLUMNS, "rows": self.rows}, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=SUITE_COLUMNS + ["error"])
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return buf.getvalue()


def run_suite(
    variant: str,
    d_range,
    k_rule=None,
    seeds=(0,),
) -> SuiteReport:
    """Local search + column generation over a grid of instances.

    Per-row failures are recorded (an ``error`` field) without aborting the
    suite.  ``k_rule`` maps p to the budget; default is k = 2p.
    """
    if variant not in GENERATORS:
        raise ValueError(f"unknown variant {variant!r}; options: {sorted(GENERATORS)}")
    if k_rule is None:
        k_rule = lambda p: 2 * p
    rows = []
    for d in d_range:
        for seed in seeds:
            inst = GENERATORS[variant](d, None, seed)
            k = k_rule(inst.p)
            if k != inst.k:
                inst = replace(inst, k=k)
            row = {"d": d, "k": k, "seed": seed}
            try:
                pricer = Pricer(inst.space, inst.model)
                t0 = time.perf_counter()
                _, ls_report = local_search.run(inst, seed=seed, pricer=pricer)
                row["ls_time"] = time.perf_counter() - t0
                row["ls_value"] = ls_report.final_logdet
                row["ip_calls"] = ls_report.ip_calls
                row["iterations"] = ls_report.iterations
                t0 = time.perf_counter()
                _, cert, _ = relaxation.column_generation(
                    inst, pricer, relaxation.CGParams(seed=seed)
                )
                row["cg_time"] = time.perf_counter() - t0
                row["relax_value"] = cert.objective
                row["gap"] = row["relax_value"] - row["ls_value"]
            except Exception as exc:  # noqa: BLE001 - rows must not abort the suite
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
    rows.sort(key=lambda r: (r["d"], r["seed"]))
    return SuiteReport(rows=rows)
