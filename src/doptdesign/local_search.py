"""Pricing-based local search: downdate, price, exchange while improving.

One move removes a copy of a support experiment and adds a feasible
experiment found by the pricing problem; it is accepted when the log
determinant gain clears a relative tolerance.  A terminal state is a proved
local optimum when every support point was certified by an exact pricing
solve.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .model import ExperimentSpace, Instance, MonomialModel, make_rng
from .psd_linalg import (
    InfoMatrix,
    RankError,
    log_kdet,
    pricing_matrix,
    rank_one_downdate,
    rank_one_update,
)
from .pricing import DegenerateInstanceError, Pricer, PricingResult, complete_rank

TOL_IMPROVE = 1e-9
SAMPLE_BLOCK = 4096


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


def _draws(space: ExperimentSpace, rng):
    """Sampled experiments in blocks of SAMPLE_BLOCK, None for a draw outside the space."""
    while True:
        X = rng.integers(0, space.L, size=(SAMPLE_BLOCK, space.d))
        if space.fixed_first:
            X[:, 0] = 1
        for x, ok in zip(X.tolist(), space.feasible(X).tolist()):
            yield tuple(x) if ok else None


def initial_design(instance: Instance, seed: int = 0, pricer: Pricer | None = None) -> Design:
    """A rank-p design of size k from one sample stream, greedy on rank first.

    ``complete_rank`` keeps the samples that add rank (or proves the space
    spans less than rank p); the next feasible samples fill the design to k.
    """
    draws = _draws(instance.space, make_rng(seed))
    kept = complete_rank(pricer or Pricer(instance.space, instance.model), [], draws)
    kept += islice((x for x in draws if x is not None), instance.k - len(kept))
    return Design.from_support(instance.model, Counter(kept), instance.k)


@dataclass(frozen=True)
class ExchangeMove:
    x_out: tuple
    x_in: tuple
    new_logdet: float
    move_kind: str  # "heuristic" or "ip"


@dataclass
class StepOutcome:
    move: ExchangeMove | None
    design: Design
    heuristic_moves: int = 0
    ip_calls: int = 0
    proved: bool = False
    inconclusive: bool = False


def _scan_order(design: Design) -> list[tuple]:
    # remove duplicated points first; ties lexicographic
    return sorted(design.support, key=lambda x: (-design.support[x], x))


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
    old = S.logdet
    tol_abs = tol_improve * max(1.0, abs(old))
    out = StepOutcome(move=None, design=design)

    for x_out in _scan_order(design):
        v_out = model.evaluate(x_out).astype(float)
        S_minus = rank_one_downdate(S, v_out)
        if S_minus.rank == model.p:
            log_base = S_minus.logdet
        elif S_minus.rank == model.p - 1:
            log_base = log_kdet(S_minus, model.p - 1)
        else:
            raise RankError("downdate lost more than one rank; design is corrupted")
        G = pricing_matrix(S_minus)
        # any pricing value above this yields a logdet gain above tol_abs
        target = math.exp(old + tol_abs - log_base) - 1.0
        if S_minus.rank < model.p:
            target = math.exp(old + tol_abs - log_base)

        hres = pricer.heuristic(G, np.array(x_out))
        if hres.value > target:
            return _apply(design, x_out, hres, S_minus, log_base, "heuristic", out)
        eres = pricer.exact(G, incumbent=hres, target=target)
        out.ip_calls += 1
        if eres.value > target:
            return _apply(design, x_out, eres, S_minus, log_base, "ip", out)
        if not eres.exact:
            out.inconclusive = True
    out.proved = not out.inconclusive
    return out


def _apply(
    design: Design,
    x_out: tuple,
    res: PricingResult,
    S_minus: InfoMatrix,
    log_base: float,
    kind: str,
    out: StepOutcome,
) -> StepOutcome:
    x_in = tuple(int(t) for t in res.x)
    support = dict(design.support)
    support[x_out] -= 1
    if support[x_out] == 0:
        del support[x_out]
    support[x_in] = support.get(x_in, 0) + 1
    # S has integer entries, so this sum is exact: it equals a fresh from_support
    info = rank_one_update(S_minus, design.model.evaluate(x_in))
    new_design = Design(support=support, k=design.k, model=design.model, info=info)
    move = ExchangeMove(
        x_out=x_out, x_in=x_in, new_logdet=new_design.logdet, move_kind=kind
    )
    out.move = move
    out.design = new_design
    if kind == "heuristic":
        out.heuristic_moves += 1
    return out


def run(
    instance: Instance,
    seed: int = 0,
    warm_start: Design | None = None,
    pricer: Pricer | None = None,
    tol_improve: float = TOL_IMPROVE,
    max_iters: int = 10_000,
) -> tuple[Design, LocalSearchReport]:
    """Iterate exchange steps until a (proved or inconclusive) local optimum."""
    if pricer is None:
        pricer = Pricer(instance.space, instance.model)
    design = warm_start if warm_start is not None else initial_design(instance, seed, pricer)
    if design.info.rank < instance.p:
        raise DegenerateInstanceError("starting design is rank deficient")
    report = LocalSearchReport()
    last_logdet = design.logdet
    for _ in range(max_iters):
        report.iterations += 1
        outcome = exchange_step(design, pricer, tol_improve=tol_improve)
        report.heuristic_moves += outcome.heuristic_moves
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
