"""Correctness checks that do not rely on the code they check.

Feasibility is decided in exact integer arithmetic from the constraint data,
the feasible set is enumerated here (never through ``model.enumerate_space``,
whose cache would otherwise be warm before the solves), design points are
evaluated from the model's exponent table, and every objective is recomputed
with ``slogdet``.  Each check returns ``None`` when the answer is right and a
one-line reason when it is wrong.
"""

from __future__ import annotations

import math
from itertools import combinations, combinations_with_replacement, islice

import numpy as np

REL_TOL = 1e-8


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class Space:
    """Integer form of an experiment space: every row scaled to integers."""

    def __init__(self, space):
        self.d, self.L, self.fixed_first = space.d, space.L, space.fixed_first
        rows, rhs = [], []
        for row, b in space.constraints:
            scale = math.lcm(b.denominator, *(c.denominator for c in row))
            rows.append([int(c * scale) for c in row])
            rhs.append(int(b * scale))  # exact: b * scale is an integer
        self.A = np.array(rows, dtype=np.int64).reshape(len(rows), self.d)
        self.b = np.array(rhs, dtype=np.int64)

    def feasible(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.int64).reshape(-1, self.d)
        ok = np.all((X >= 0) & (X < self.L), axis=1)
        if self.fixed_first:
            ok &= X[:, 0] == 1
        return ok & np.all(X @ self.A.T <= self.b, axis=1)

    def enumerate(self) -> np.ndarray:
        grid = np.indices((self.L,) * self.d).reshape(self.d, -1).T
        return grid[self.feasible(grid)]


def features(model, X) -> np.ndarray:
    """Design points p(x) for the rows of X, as floats."""
    E = np.array(model.exponents, dtype=np.int64)
    X = np.asarray(X, dtype=np.int64).reshape(-1, E.shape[1])
    return np.prod(X[:, None, :] ** E[None, :, :], axis=2).astype(float)


def _logdet(M: np.ndarray) -> float:
    sign, ld = np.linalg.slogdet(M)
    return ld if sign > 0 else -np.inf


def check_degenerate(inst, X: np.ndarray) -> str | None:
    """A DegenerateInstanceError is right only when the space spans rank < p."""
    rank = np.linalg.matrix_rank(features(inst.model, X)) if len(X) else 0
    if rank == inst.p:
        return f"space spans rank {rank} = p but the solver reported it degenerate"
    return None


def check_local_search(inst, space: Space, X: np.ndarray, design, report) -> tuple[str | None, float | None]:
    """Feasible support, multiplicities summing to k, logdet, proved local optimum."""
    support = design.support
    xs = np.array(list(support), dtype=np.int64)
    mult = np.array(list(support.values()))
    if np.any(mult < 1) or mult.sum() != inst.k:
        return f"multiplicities {mult.tolist()} do not sum to k = {inst.k}", None
    if not space.feasible(xs).all():
        return "design has an infeasible support point", None
    V = features(inst.model, xs)
    S = (V * mult[:, None]).T @ V
    ld = _logdet(S)
    if not np.isfinite(ld) or not _close(ld, design.logdet) or not _close(ld, report.final_logdet):
        return f"logdet {design.logdet} / {report.final_logdet} != recomputed {ld}", None
    if not report.proved_local_optimum or report.inconclusive:
        return "local optimum not proved", ld
    # no single exchange of a support copy for a feasible point may improve
    P = features(inst.model, X)
    outers = P[:, :, None] * P[:, None, :]
    # the solver accepts gains above 1e-9 relative; 1e-7 leaves room for rounding
    slack = 1e-7 * max(1.0, abs(ld))
    for v in V:
        best = np.max(_batched_logdet(S - np.outer(v, v) + outers))
        if best > ld + slack:
            return f"exchange improves logdet from {ld} to {best}", ld
    return None, ld


def _batched_logdet(Ms: np.ndarray) -> np.ndarray:
    sign, ld = np.linalg.slogdet(Ms)
    return np.where(sign > 0, ld, -np.inf)


def check_relaxation(inst, space: Space, X: np.ndarray, cd, cert) -> tuple[str | None, float | None]:
    """Weights, recomputed objective, and the certificate k*alpha - ln det Lambda - p."""
    w = np.asarray(cd.weights, dtype=float)
    if np.any(w < 0) or not _close(w.sum(), inst.k):
        return f"weights are negative or sum to {w.sum()} != k = {inst.k}", None
    xs = np.array(cd.xs, dtype=np.int64)
    if not space.feasible(xs).all():
        return "relaxation support has an infeasible point", None
    V = features(inst.model, xs)
    obj = _logdet((V * w[:, None]).T @ V)
    if not np.isfinite(obj) or not _close(obj, cd.objective):
        return f"objective {cd.objective} != recomputed {obj}", None
    Lam = np.asarray(cert.Lambda, dtype=float)
    try:
        np.linalg.cholesky(0.5 * (Lam + Lam.T))
    except np.linalg.LinAlgError:
        return "certificate matrix is not positive definite", None
    P = features(inst.model, X)
    alpha = float(np.max(np.einsum("ij,jk,ik->i", P, Lam, P)))
    if cert.feasible_for != "full" or not _close(alpha, cert.nu):
        return f"certificate nu {cert.nu} != exhaustive alpha {alpha}", None
    bound = inst.k * alpha - _logdet(Lam) - inst.p
    if bound < obj - REL_TOL * max(1.0, abs(obj)):
        return f"certificate bound {bound} below relaxation objective {obj}", None
    return None, bound - obj


def brute_force_optimum(inst, X: np.ndarray) -> float:
    """Largest log det over all size-k multisets of X, by a batched search here."""
    k = inst.k
    P = features(inst.model, X)
    best = -np.inf
    # with k = p a repeated point leaves the sum rank deficient, so only sets count
    combos = combinations(range(len(X)), k) if k == inst.p else combinations_with_replacement(range(len(X)), k)
    while True:
        chunk = np.fromiter((i for c in islice(combos, 50_000) for i in c), dtype=np.int64)
        if chunk.size == 0:
            return best
        Vs = P[chunk.reshape(-1, k)]
        best = max(best, float(np.max(_batched_logdet(np.swapaxes(Vs, 1, 2) @ Vs))))


def check_brute_force(inst, space: Space, X: np.ndarray, res, best: float) -> str | None:
    """Multiset count C(n+k-1, k) and the optimum ``best`` of brute_force_optimum."""
    n, k = len(X), inst.k
    if res.multisets_examined != math.comb(n + k - 1, k):
        return f"examined {res.multisets_examined} multisets, expected C({n}+{k}-1, {k})"
    if not _close(best, res.optimum_logdet):
        return f"optimum {res.optimum_logdet} != exhaustive {best}"
    if res.optimal_design is not None:
        sup = res.optimal_design.support
        xs = np.array(list(sup), dtype=np.int64)
        mult = np.array(list(sup.values()))
        if mult.sum() != k or not space.feasible(xs).all():
            return "optimal design is infeasible or has the wrong size"
        V = features(inst.model, xs)
        if not _close(_logdet((V * mult[:, None]).T @ V), best):
            return "optimal design does not attain the reported optimum"
    return None


def check_exact_pricing(inst, space: Space, X: np.ndarray, G: np.ndarray, res) -> str | None:
    """Exact flag, a feasible argmax, and the value of an enumeration here."""
    if not res.exact:
        return "exact pricing returned an inexact result"
    if not space.feasible(res.x).all():
        return f"argmax {res.x.tolist()} is infeasible"
    v = features(inst.model, res.x)[0]
    P = features(inst.model, X)
    best = float(np.max(np.einsum("ij,jk,ik->i", P, G, P)))
    if not _close(float(v @ G @ v), res.value) or not _close(best, res.value):
        return f"pricing value {res.value} != enumeration maximum {best}"
    return None
