"""Pricing-based local search: price every exchange, apply the first that improves.

One move removes a copy of a support experiment and adds a feasible
experiment found by the pricing problem; it is accepted when the log
determinant gain clears a relative tolerance.  Every exchange is priced by
Fedorov's identity from one S^{-1} per step (``exchange_pricing``), also
when removing the point drops the rank.  A terminal state is a proved local
optimum when every support point was certified by an exact pricing solve.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import cycle, islice

import numpy as np

from .model import ExperimentSpace, Instance, MonomialModel, make_rng, random_feasible
from .psd_linalg import (
    InfoMatrix,
    RankError,
    pricing_matrix,
    rank_one_downdate,
    rank_one_update,
)
from .pricing import DegenerateInstanceError, Pricer, complete_rank

TOL_IMPROVE = 1e-9
LS_ITER_CAP = 10_000  # exchange steps one run may take


@dataclass
class Design:
    """Integer design: a multiset of experiments with its information matrix."""

    support: dict  # tuple(x) -> multiplicity >= 1
    k: int
    model: MonomialModel
    info: InfoMatrix

    @classmethod
    def from_support(cls, model: MonomialModel, support: dict, k: int) -> "Design":
        support = {tuple(int(v) for v in x): int(m) for x, m in support.items()}
        if any(m < 1 for m in support.values()):
            raise ValueError("multiplicities must be positive")
        if sum(support.values()) != k:
            raise ValueError("multiplicities must sum to k")
        S = np.zeros((model.p, model.p))
        for x, m in support.items():
            v = model.evaluate(x).astype(float)
            S += m * np.outer(v, v)
        return cls(support=support, k=k, model=model, info=InfoMatrix.from_matrix(S))

    @property
    def logdet(self) -> float:
        return self.info.logdet

    def to_dict(self) -> dict:
        points = [
            {"x": list(x), "lambda": m}
            for x, m in sorted(self.support.items())
        ]
        return {"points": points, "k": self.k}

    @classmethod
    def from_dict(cls, model: MonomialModel, data: dict) -> "Design":
        support = {tuple(pt["x"]): int(pt["lambda"]) for pt in data["points"]}
        return cls.from_support(model, support, int(data["k"]))


@dataclass
class LocalSearchReport:
    iterations: int = 0
    heuristic_moves: int = 0
    ip_calls: int = 0
    final_logdet: float = float("nan")
    trace: list = field(default_factory=list)  # (iteration, logdet, move_kind)
    proved_local_optimum: bool = False
    inconclusive: bool = False

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "heuristic_moves": self.heuristic_moves,
            "ip_calls": self.ip_calls,
            "final_logdet": self.final_logdet,
            "trace": [
                {"iteration": it, "logdet": ld, "move_kind": kind}
                for it, ld, kind in self.trace
            ],
            "proved_local_optimum": self.proved_local_optimum,
            "inconclusive": self.inconclusive,
        }


def initial_design(instance: Instance, seed: int = 0, pricer: Pricer | None = None) -> Design:
    """A rank-p design of size k from one sample stream, greedy on rank first.

    ``complete_rank`` keeps the samples that add rank (or proves the space
    spans less than rank p); the next feasible samples fill the design to k.
    Slots still empty after RANDOM_DRAW_CAP samples repeat the rank-completing
    points in order.
    """
    draws = instance.space.draws(make_rng(seed))
    basis = complete_rank(pricer or Pricer(instance.space, instance.model), [], draws)
    kept = basis + random_feasible(draws, instance.k - len(basis))
    kept += islice(cycle(basis), instance.k - len(kept))
    return Design.from_support(instance.model, Counter(kept), instance.k)


@dataclass(frozen=True)
class ExchangeMove:
    x_out: tuple
    x_in: tuple
    new_logdet: float
    move_kind: str  # "heuristic" or "ip"


@dataclass(frozen=True)
class StepOutcome:
    move: ExchangeMove | None
    design: Design
    ip_calls: int
    inconclusive: bool

    @property
    def proved(self) -> bool:
        """No move, and every support point was certified by an exact pricing solve."""
        return self.move is None and not self.inconclusive


def _scan_order(design: Design) -> list[tuple]:
    # remove duplicated points first; ties lexicographic
    return sorted(design.support, key=lambda x: (-design.support[x], x))


def exchange_pricing(Sinv: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray]:
    """Fedorov's identity: det(S - vv^T + xx^T) / det S = keep + x^T G x.

    With d(a, b) = a^T S^{-1} b this is (1 - d(v))(1 + d(x)) + d(v, x)^2, so
    keep = 1 - d(v) = det(S - vv^T) / det S (zero up to rounding when the
    removal drops the rank) and G = keep S^{-1} + S^{-1}vv^TS^{-1}.
    """
    u = Sinv @ v
    keep = 1.0 - float(v @ u)
    return keep, keep * Sinv + np.outer(u, u)


def exchange_step(
    design: Design,
    pricer: Pricer,
    tol_improve: float = TOL_IMPROVE,
) -> StepOutcome:
    """Find and apply the first improving exchange in scan order.

    Returns a no-move outcome with ``proved=True`` when every support point
    was certified by an exact pricing solve, or ``inconclusive=True`` when a
    solver soft failure (node limit) prevented certification.
    """
    model = design.model
    S = design.info
    if S.rank < model.p:
        raise RankError("design is rank deficient; cannot search from it")
    tol_abs = tol_improve * max(1.0, abs(S.logdet))
    Sinv = pricing_matrix(S)
    ip_calls = 0
    inconclusive = False
    for x_out in _scan_order(design):
        keep, G = exchange_pricing(Sinv, model.evaluate(x_out).astype(float))
        # any pricing value above this yields a logdet gain above tol_abs
        target = math.exp(tol_abs) - keep

        res, kind = pricer.heuristic(G, np.array(x_out)), "heuristic"
        if res.value <= target:
            res, kind = pricer.exact(G, incumbent=res, target=target), "ip"
            ip_calls += 1
        if res.value > target:
            x_in = tuple(int(t) for t in res.x)
            new = _apply(design, x_out, x_in)
            move = ExchangeMove(x_out=x_out, x_in=x_in, new_logdet=new.logdet, move_kind=kind)
            return StepOutcome(move, new, ip_calls, inconclusive=False)
        inconclusive |= not res.exact
    return StepOutcome(None, design, ip_calls, inconclusive)


def _apply(design: Design, x_out: tuple, x_in: tuple) -> Design:
    """The design with one copy of x_out exchanged for x_in."""
    support = dict(design.support)
    support[x_out] -= 1
    if support[x_out] == 0:
        del support[x_out]
    support[x_in] = support.get(x_in, 0) + 1
    # S has integer entries, so these sums are exact: they equal a fresh from_support
    p_of = design.model.evaluate
    info = rank_one_update(rank_one_downdate(design.info, p_of(x_out)), p_of(x_in))
    return Design(support=support, k=design.k, model=design.model, info=info)


def check_warm_start_points(space: ExperimentSpace, xs) -> None:
    """Raise ValueError naming the first of the experiments ``xs`` outside ``space``."""
    for x in xs:
        if not space.contains(x):
            raise ValueError(f"warm start point {list(x)} is not in the experiment space")


def run(
    instance: Instance,
    seed: int = 0,
    warm_start: Design | None = None,
    pricer: Pricer | None = None,
    tol_improve: float = TOL_IMPROVE,
) -> tuple[Design, LocalSearchReport]:
    """Iterate exchange steps until a (proved or inconclusive) local optimum.

    A warm start that is not a rank-p design of k feasible points raises ValueError.
    """
    if pricer is None:
        pricer = Pricer(instance.space, instance.model)
    if warm_start is None:
        design = initial_design(instance, seed, pricer)
    else:
        design = warm_start
        if design.k != instance.k:
            raise ValueError(f"warm start has k = {design.k}, the instance has k = {instance.k}")
        check_warm_start_points(instance.space, design.support)
        if design.info.rank < instance.p:
            raise ValueError(f"warm start has rank {design.info.rank} < p = {instance.p}")
    report = LocalSearchReport()
    last_logdet = design.logdet
    for _ in range(LS_ITER_CAP):
        report.iterations += 1
        outcome = exchange_step(design, pricer, tol_improve=tol_improve)
        report.ip_calls += outcome.ip_calls
        if outcome.move is None:
            report.proved_local_optimum = outcome.proved
            report.inconclusive = outcome.inconclusive
            break
        design = outcome.design
        if design.logdet <= last_logdet:
            raise AssertionError("accepted exchange did not increase logdet")
        last_logdet = design.logdet
        report.trace.append(
            (report.iterations, design.logdet, outcome.move.move_kind)
        )
    else:
        report.inconclusive = True
    report.heuristic_moves = sum(kind == "heuristic" for _, _, kind in report.trace)
    report.final_logdet = design.logdet
    return design, report


def guarantee_factor(k: int, p: int, rho: float) -> float:
    """Multiplicative approximation bound ((k-p+1)/k * p/(p + k(rho-1)))^p."""
    if not (k >= p >= 1):
        raise ValueError(f"need k >= p >= 1, got k={k}, p={p}")
    if rho < 1:
        raise ValueError(f"need rho >= 1, got {rho}")
    base = (k - p + 1) / k * p / (p + k * (rho - 1))
    return base**p
