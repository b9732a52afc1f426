"""Continuous relaxation by column generation with dual certificates.

The restricted master (max log det of the weighted moment matrix over stored
points, weights summing to k) is solved by the classic multiplicative update
for D-optimal weights.  Its optimal dual is read off in closed form, pricing
for dual feasibility reuses the quadratic pricing problem, and a null-space
sparsification keeps the stored support at most C(p,2) + p + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.linalg import null_space

from .model import ExperimentSpace, Instance, make_rng
from .pricing import DoptError, Pricer, complete_rank

TOL_MASTER = 1e-7
MASTER_ITER_CAP = 100_000
DELTA = 0.05
EPSILON = 1e-4
GAMMA = 1e-6
CG_ITER_CAP = 500


class MasterConvergenceError(DoptError, RuntimeError):
    """Multiplicative update hit its iteration cap before the leverage test."""


class ColumnGenerationError(DoptError, RuntimeError):
    """Column generation hit its iteration cap or a pricing hard failure."""


@dataclass
class ContinuousDesign:
    """Nonnegative weights over stored design points, summing to k."""

    xs: list  # experiments, tuples of ints
    points: np.ndarray  # (n, p) design points
    weights: np.ndarray  # (n,) nonnegative, sums to k
    k: int

    @property
    def moment(self) -> np.ndarray:
        return (self.points * self.weights[:, None]).T @ self.points

    @property
    def objective(self) -> float:
        sign, ld = np.linalg.slogdet(self.moment)
        return ld if sign > 0 else -np.inf

    def to_dict(self) -> dict:
        return {
            "points": [
                {"x": list(x), "lambda": float(w)}
                for x, w in zip(self.xs, self.weights)
            ],
            "k": self.k,
        }


@dataclass
class DualCertificate:
    """PSD matrix and scalar with v^T Lambda v <= nu over the certified set."""

    Lambda: np.ndarray
    nu: float
    k: int
    feasible_for: str = "restricted"  # or "full"

    @property
    def objective(self) -> float:
        p = self.Lambda.shape[0]
        sign, ld = np.linalg.slogdet(self.Lambda)
        if sign <= 0:
            return np.inf
        return self.k * self.nu - ld - p


def solve_restricted_master(
    xs: list,
    points: np.ndarray,
    k: int,
    tol_master: float = TOL_MASTER,
    max_iters: int = MASTER_ITER_CAP,
    weights0: np.ndarray | None = None,
) -> ContinuousDesign:
    """Multiplicative-update solve of the restricted D-optimal weight problem.

    Iterates w_v <- w_v * v^T M^{-1} v / p (then rescales to k) until
    max_v v^T M^{-1} v <= (1 + tol) p / k.  Each round also takes one
    exact-line-search weight exchange between the extreme-leverage points;
    both steps are monotone in the objective with the same fixed point, and
    the exchange removes the slow tail when a zero-weight point lies exactly
    on the optimal ellipsoid.  Warm starts are safe.
    """
    V = np.asarray(points, dtype=float)
    n, p = V.shape
    if np.linalg.matrix_rank(V) < p:
        raise ValueError("stored points do not span rank p")
    if weights0 is None:
        w = np.full(n, k / n)
    else:
        w = np.asarray(weights0, dtype=float).copy()
        w = np.maximum(w, 1e-12 * k / n)
        w *= k / w.sum()
    threshold = (1.0 + tol_master) * p / k

    def leverages(w):
        M = (V * w[:, None]).T @ V
        Minv = np.linalg.inv(M)
        return np.einsum("ij,jk,ik->i", V, Minv, V), Minv

    for _ in range(max_iters):
        lev, _ = leverages(w)
        if lev.max() <= threshold:
            break
        w *= lev * (k / p)
        w *= k / w.sum()
        lev, Minv = leverages(w)
        j = int(np.argmax(lev))
        pos = np.flatnonzero(w > 0)
        i = int(pos[np.argmin(lev[pos])])
        if i != j and lev[j] > lev[i]:
            cross = float(V[i] @ Minv @ V[j])
            curv = lev[i] * lev[j] - cross * cross  # >= 0 by Cauchy-Schwarz
            if curv > 0:
                t = min((lev[j] - lev[i]) / (2.0 * curv), w[i])
                w[j] += t
                w[i] -= t
    else:
        raise MasterConvergenceError(
            f"leverage test not met within {max_iters} iterations"
        )
    return ContinuousDesign(xs=list(xs), points=V, weights=w, k=k)


def dual_from_primal(cd: ContinuousDesign) -> DualCertificate:
    """Closed-form restricted dual: Lambda = M^{-1}, nu = max leverage."""
    M = cd.moment
    sign, _ = np.linalg.slogdet(M)
    if sign <= 0:
        raise ValueError("moment matrix is singular")
    Lambda = np.linalg.inv(M)
    Lambda = 0.5 * (Lambda + Lambda.T)
    lev = np.einsum("ij,jk,ik->i", cd.points, Lambda, cd.points)
    return DualCertificate(Lambda=Lambda, nu=float(lev.max()), k=cd.k)


def check_dual_feasibility(
    cert: DualCertificate, pricer: Pricer
) -> tuple[np.ndarray, float, bool]:
    """Exact pricing of the dual constraints over the whole space.

    Returns (argmax experiment, alpha, exact); an inexact alpha (node limit)
    is only a lower bound and is flagged by exact=False.
    """
    res = pricer.exact(cert.Lambda)
    return res.x, res.value, res.exact


def upper_bound_from_alpha(cert: DualCertificate, alpha: float) -> float:
    """Valid upper bound k*alpha - ln det Lambda - p from an exact pricing solve."""
    sign, ld = np.linalg.slogdet(cert.Lambda)
    if sign <= 0:
        raise ValueError("certificate matrix is singular")
    return cert.k * alpha - ld - cert.Lambda.shape[0]


def support_bound(p: int) -> int:
    return math.comb(p, 2) + p + 1


def sparsify(cd: ContinuousDesign, tol: float = 1e-9) -> ContinuousDesign:
    """Reduce the support to at most C(p,2) + p + 1 points, moment preserved.

    Iterated null-space pivoting: move along a kernel direction of the
    (moment-equality + weight-sum) system until a weight hits zero, drop it,
    repeat.  Equivalent to reaching a basic feasible solution of the
    moment-preservation LP.
    """
    V = cd.points
    n, p = V.shape
    bound = support_bound(p)
    active = [i for i in range(n) if cd.weights[i] > 0]
    w = cd.weights.copy()
    iu = np.triu_indices(p)

    def columns(idx):
        cols = []
        for i in idx:
            outer = np.outer(V[i], V[i])
            cols.append(np.concatenate([outer[iu], [1.0]]))
        return np.array(cols).T  # (p(p+1)/2 + 1, |idx|)

    while len(active) > bound:
        B = columns(active)
        kernel = null_space(B, rcond=tol)
        if kernel.shape[1] == 0:
            raise ColumnGenerationError(
                "no kernel direction found although support exceeds the bound; "
                "tolerance misconfiguration"
            )
        z = kernel[:, 0]
        if not np.any(z < 0):
            z = -z  # the weight-sum row forces mixed signs in any kernel vector
        w_active = w[active]
        neg = z < 0
        steps = -w_active[neg] / z[neg]
        t = steps.min()
        w_active = np.maximum(w_active + t * z, 0.0)
        # drop everything that hit zero
        for i, wi in zip(list(active), w_active):
            w[i] = wi
        active = [i for i in active if w[i] > tol * cd.k / max(n, 1)]
    keep = sorted(active)
    out = ContinuousDesign(
        xs=[cd.xs[i] for i in keep],
        points=V[keep],
        weights=w[keep] * (cd.k / w[keep].sum()),
        k=cd.k,
    )
    return out


@dataclass
class CGParams:
    delta: float = DELTA
    epsilon: float = EPSILON
    gamma: float = GAMMA
    seed: int = 0
    tol_master: float = TOL_MASTER
    master_iters: int = MASTER_ITER_CAP
    max_iters: int = CG_ITER_CAP


def _draws(space: ExperimentSpace, rng):
    """Sampled experiments, None when outside the space; one draw at a time, as the
    same generator goes on to draw the random columns."""
    while True:
        x = rng.integers(0, space.L, size=space.d)
        if space.fixed_first:
            x[0] = 1
        yield tuple(int(t) for t in x) if space.contains(x) else None


def _random_feasible(instance: Instance, rng, count: int, retry_cap: int = 100_000):
    draws = islice(_draws(instance.space, rng), retry_cap)
    return list(islice((x for x in draws if x is not None), count))


def _initial_points(instance: Instance, rng, pricer: Pricer) -> list:
    """2p random feasible experiments plus greedy rank completion."""
    xs = list(dict.fromkeys(_random_feasible(instance, rng, 2 * instance.p)))
    return xs + complete_rank(pricer, xs, _draws(instance.space, rng))


def column_generation(
    instance: Instance,
    pricer: Pricer | None = None,
    params: CGParams | None = None,
) -> tuple[ContinuousDesign, DualCertificate, list]:
    """Column generation for the continuous relaxation.

    Heuristic pricing runs first; when it cannot show a (1 + delta)-violated
    dual constraint, an exact solve decides termination at (1 + epsilon)nu.
    Violating and random columns are added each round, the support is
    sparsified in primal mode when it exceeds ceil(p^2 / 3), and the solver
    switches permanently to dual-only mode once the master stalls below a
    relative improvement of gamma.
    """
    if pricer is None:
        pricer = Pricer(instance.space, instance.model)
    if params is None:
        params = CGParams()
    model, k, p = instance.model, instance.k, instance.p
    rng = make_rng(params.seed)
    xs = _initial_points(instance, rng, pricer)
    points = model.evaluate_many(np.array(xs)).astype(float)

    cd = solve_restricted_master(
        xs, points, k, tol_master=params.tol_master, max_iters=params.master_iters
    )
    cert = dual_from_primal(cd)
    mode = "primal"
    prev_obj = cd.objective
    trace = [
        {
            "iter": 0,
            "master_obj": prev_obj,
            "nu": cert.nu,
            "alpha": None,
            "mode": mode,
            "n_points": len(cd.xs),
            "sparsified": False,
            "ip_solved": False,
        }
    ]

    for it in range(1, params.max_iters + 1):
        # heuristic pricing from the currently most violated stored experiment
        lev = np.einsum("ij,jk,ik->i", cd.points, cert.Lambda, cd.points)
        start = np.array(cd.xs[int(np.argmax(lev))])
        hres = pricer.heuristic(cert.Lambda, start)
        ip_solved = False
        alpha = None
        if hres.value < (1.0 + params.delta) * cert.nu:
            x_star, alpha, exact = check_dual_feasibility(cert, pricer)
            if not exact:
                raise ColumnGenerationError("exact pricing hit its node limit")
            ip_solved = True
            if alpha <= (1.0 + params.epsilon) * cert.nu:
                final = DualCertificate(
                    Lambda=cert.Lambda, nu=alpha, k=k, feasible_for="full"
                )
                trace.append(
                    {
                        "iter": it,
                        "master_obj": cd.objective,
                        "nu": cert.nu,
                        "alpha": alpha,
                        "mode": mode,
                        "n_points": len(cd.xs),
                        "sparsified": False,
                        "ip_solved": True,
                    }
                )
                return cd, final, trace
            entering = tuple(int(t) for t in x_star)
        else:
            entering = tuple(int(t) for t in hres.x)

        n_random = (p - 1) if mode == "primal" else 2 * (p - 1) ** 2
        new_xs = [entering] + _random_feasible(instance, rng, n_random)
        seen = set(cd.xs)
        new_xs = [x for x in dict.fromkeys(new_xs) if x not in seen]

        sparsified = False
        if mode == "primal" and len(cd.xs) + len(new_xs) > math.ceil(p**2 / 3):
            cd = sparsify(cd)
            sparsified = True

        xs = list(cd.xs) + new_xs
        points = np.concatenate(
            [cd.points, model.evaluate_many(np.array(new_xs)).astype(float)]
            if new_xs
            else [cd.points],
            axis=0,
        )
        # warm start: keep current weights, seed new points with a small share
        eta = 0.05
        w0 = np.concatenate(
            [
                cd.weights * (1.0 - (eta if new_xs else 0.0)),
                np.full(len(new_xs), eta * k / max(len(new_xs), 1)),
            ]
        )
        cd = solve_restricted_master(
            xs,
            points,
            k,
            tol_master=params.tol_master,
            max_iters=params.master_iters,
            weights0=w0,
        )
        cert = dual_from_primal(cd)
        obj = cd.objective
        trace.append(
            {
                "iter": it,
                "master_obj": obj,
                "nu": cert.nu,
                "alpha": alpha,
                "mode": mode,
                "n_points": len(cd.xs),
                "sparsified": sparsified,
                "ip_solved": ip_solved,
            }
        )
        if mode == "primal":
            improvement = (obj - prev_obj) / max(1.0, abs(prev_obj))
            if improvement < params.gamma:
                mode = "dual"
        prev_obj = obj
    raise ColumnGenerationError(
        f"no certificate within {params.max_iters} iterations"
    )
