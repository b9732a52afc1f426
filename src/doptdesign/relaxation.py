"""Continuous relaxation by column generation with dual certificates.

The restricted master (max log det of the weighted moment matrix over stored
points, weights summing to k) is solved by the classic multiplicative update
for D-optimal weights.  Its optimal dual is read off in closed form, pricing
for dual feasibility reuses the quadratic pricing problem, and a null-space
sparsification keeps the returned support at most C(p,2) + p + 1.

One accuracy number, epsilon, governs column generation: every master stops
at max leverage <= (1 + epsilon) p/k and the run stops at alpha <=
(1 + epsilon) nu, so the certified gap k alpha - p is at most
p((1 + epsilon)^2 - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .model import Instance, make_rng, random_feasible
from .pricing import DoptError, Pricer, complete_rank, quad_values

TOL_MASTER = 1e-7  # leverage tolerance of a direct master solve
MASTER_ITER_CAP = 100_000
DELTA = 0.05
EPSILON = 1e-4
GAMMA = 1e-6
CG_ITER_CAP = 500
SPARSIFY_TOL = 1e-9  # kernel rank cut-off and the relative weight that counts as zero


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
    tol: float = TOL_MASTER,
    weights0: np.ndarray | None = None,
) -> ContinuousDesign:
    """Multiplicative-update solve of the restricted D-optimal weight problem.

    Iterates w_v <- w_v * v^T M^{-1} v / p (then rescales to k) until
    max_v v^T M^{-1} v <= (1 + tol) p / k, or raises MasterConvergenceError
    after MASTER_ITER_CAP rounds.  Each round also takes one
    exact-line-search weight exchange between the extreme-leverage points;
    both steps are monotone in the objective with the same fixed point, and
    the exchange removes the slow tail when a zero-weight point lies exactly
    on the optimal ellipsoid.  A warm start is clamped to weights of at least
    1e-12 k/n, so points entering at weight 0 can grow.
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
    threshold = (1.0 + tol) * p / k

    def leverages(w):
        M = (V * w[:, None]).T @ V
        Minv = np.linalg.inv(M)
        return quad_values(Minv, V), Minv

    for _ in range(MASTER_ITER_CAP):
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
            f"leverage test not met within {MASTER_ITER_CAP} iterations"
        )
    return ContinuousDesign(xs=list(xs), points=V, weights=w, k=k)


def dual_from_primal(cd: ContinuousDesign) -> DualCertificate:
    """Closed-form restricted dual: Lambda = M^{-1}, nu = max leverage."""
    return _dual_and_leverages(cd)[0]


def _dual_and_leverages(cd: ContinuousDesign) -> tuple[DualCertificate, np.ndarray]:
    """``dual_from_primal`` and the stored points' leverages it takes nu from."""
    M = cd.moment
    sign, _ = np.linalg.slogdet(M)
    if sign <= 0:
        raise ValueError("moment matrix is singular")
    Lambda = np.linalg.inv(M)
    Lambda = 0.5 * (Lambda + Lambda.T)
    lev = quad_values(Lambda, cd.points)
    return DualCertificate(Lambda=Lambda, nu=float(lev.max()), k=cd.k), lev


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


def sparsify(cd: ContinuousDesign) -> ContinuousDesign:
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
        kernel = null_space(B, rcond=SPARSIFY_TOL)
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
        active = [i for i in active if w[i] > SPARSIFY_TOL * cd.k / max(n, 1)]
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


def _initial_points(instance: Instance, draws, pricer: Pricer) -> list:
    """2p random feasible experiments plus greedy rank completion, from ``draws``."""
    xs = list(dict.fromkeys(random_feasible(draws, 2 * instance.p)))
    return xs + complete_rank(pricer, xs, draws)


def _trace_row(it, cd, cert, alpha, mode, sparsified, ip_solved) -> dict:
    """One CG trace row: the master after iteration ``it`` and what the iteration did."""
    return {
        "iter": it,
        "master_obj": cd.objective,
        "nu": cert.nu,
        "alpha": alpha,
        "mode": mode,
        "n_points": len(cd.xs),
        "sparsified": sparsified,
        "ip_solved": ip_solved,
    }


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
    relative improvement of gamma, tested only when gamma max(1, |obj|) >=
    p epsilon, the least change an epsilon-accurate master resolves (at the
    defaults, only once |obj| >= 100 p).  Every master solves to the epsilon leverage test and
    restarts from the previous weights with new columns at weight 0, so the
    master objective does not fall.  The returned design drops the points of
    weight at most SPARSIFY_TOL k/n (n points stored), which moves its weights
    by at most SPARSIFY_TOL k in all, and is sparsified to at most
    C(p,2) + p + 1 points with its moment matrix unchanged; the certificate
    is unchanged.
    """
    if pricer is None:
        pricer = Pricer(instance.space, instance.model)
    if params is None:
        params = CGParams()
    model, k, p = instance.model, instance.k, instance.p
    draws = instance.space.draws(make_rng(params.seed))
    xs = _initial_points(instance, draws, pricer)
    points = model.evaluate_many(np.array(xs)).astype(float)

    cd = solve_restricted_master(xs, points, k, tol=params.epsilon)
    cert, lev = _dual_and_leverages(cd)
    mode = "primal"
    trace = [_trace_row(0, cd, cert, None, mode, False, False)]

    for it in range(1, CG_ITER_CAP + 1):
        # heuristic pricing from the currently most violated stored experiment
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
                # dual mode adds columns unsparsified; a master drives the
                # weights of leaving points toward 0, and drops none of them
                keep = np.flatnonzero(cd.weights > SPARSIFY_TOL * k / len(cd.xs))
                sparsified = len(cd.xs) > support_bound(p) or len(keep) < len(cd.xs)
                if sparsified:
                    cd = sparsify(ContinuousDesign(
                        xs=[cd.xs[i] for i in keep], points=cd.points[keep],
                        weights=cd.weights[keep], k=k,
                    ))
                trace.append(_trace_row(it, cd, cert, alpha, mode, sparsified, True))
                return cd, final, trace
            entering = tuple(int(t) for t in x_star)
        else:
            entering = tuple(int(t) for t in hres.x)

        n_random = (p - 1) if mode == "primal" else 2 * (p - 1) ** 2
        new_xs = [entering] + random_feasible(draws, n_random)
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
        w0 = np.concatenate([cd.weights, np.zeros(len(new_xs))])
        cd = solve_restricted_master(xs, points, k, tol=params.epsilon, weights0=w0)
        cert, lev = _dual_and_leverages(cd)
        trace.append(_trace_row(it, cd, cert, alpha, mode, sparsified, ip_solved))
        if mode == "primal":
            prev_obj, obj = trace[-2]["master_obj"], trace[-1]["master_obj"]
            scale = max(1.0, abs(prev_obj))
            resolvable = params.gamma * scale >= p * params.epsilon
            if resolvable and (obj - prev_obj) / scale < params.gamma:
                mode = "dual"
    raise ColumnGenerationError(
        f"no certificate within {CG_ITER_CAP} iterations"
    )
