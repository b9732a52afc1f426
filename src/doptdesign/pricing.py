"""Pricing problem: maximize p(x)^T G p(x) over the experiment space.

Three routes share one interface: a bit-flip/bit-swap ascent, exhaustive
enumeration, and an exact branch-and-bound over a linearization in which
every multilinear bit product gets an auxiliary variable with its McCormick
envelope.  Levels beyond two are binarized with ceil(log2 L) bits per factor.
Every route reports ``quad_value(G, p(x))`` for the x it returns: batches are
screened with ``quad_values`` plus a rounding slack, and ``quad_value`` decides
among the rows kept, so neither value nor choice depends on the batch shape.
Branch-and-bound decides among the points it reaches as enumeration does:
the larger ``quad_value`` wins, and an equal one goes to the smaller x in
lexicographic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Optional

import numpy as np
from scipy.optimize import linprog

from .model import ExperimentSpace, MonomialModel, enumerate_space
from .model import EnumerationCapError  # noqa: F401  (re-exported)

DEFAULT_NODE_LIMIT = 10**6
# Boxes of at most this many points are priced by enumeration, larger ones by B&B
ENUM_THRESHOLD = 2**16
# Nodes whose LP bound is within this margin of the incumbent are still
# explored, so LP solver tolerance can never prune the true optimum.
BOUND_SAFETY = 1e-7
# Sampled draws in a row without a rank gain before exact pricing takes over
RANK_STALL = 8192


class DoptError(Exception):
    """Base of the solver errors; ``exit_code`` is the CLI exit status."""

    exit_code = 3  # solver soft failure


class DegenerateInstanceError(DoptError, RuntimeError):
    """The feasible design points span less than rank p."""

    exit_code = 2


class EmptySpaceError(DegenerateInstanceError, ValueError):
    """The experiment space has no feasible point."""


class NodeLimitError(DoptError, RuntimeError):
    """Branch and bound hit its node limit before deciding what was asked."""


@dataclass(frozen=True)
class PricingResult:
    x: np.ndarray
    value: float
    exact: bool
    nodes: int


def quad_value(G: np.ndarray, v: np.ndarray) -> float:
    """The pricing value p^T G p of one design point; every route reports this."""
    v = np.asarray(v, dtype=float)
    return float(v @ G @ v)


def quad_values(G: np.ndarray, P: np.ndarray) -> np.ndarray:
    """p^T G p for every row p of P, in one batched product."""
    return np.einsum("ij,ij->i", P @ G, P)


def _screen(G: np.ndarray, P: np.ndarray, sums2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on ``quad_value`` of every row of P.

    P >= 0, so gmax * sums2, with sums2 = (sum p)^2 per row, bounds p^T |G| p,
    and the batched and scalar values differ by far less than 1e-9 of that.
    """
    vals = quad_values(G, P)
    slack = 1e-9 * np.abs(G).max() * sums2
    return vals - slack, vals + slack


@lru_cache(maxsize=64)
def _neighbor_moves(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Move vectors in neighbor order: +/- e_i, then e_i - e_j over ordered pairs."""
    eye = np.eye(d, dtype=np.int64)
    flips = np.stack([sign * eye[i] for i in range(d) for sign in (1, -1)])
    swaps = np.array(
        [eye[i] - eye[j] for i in range(d) for j in range(d) if i != j],
        dtype=np.int64,
    ).reshape(-1, d)
    for D in (flips, swaps):
        D.setflags(write=False)
    return flips, swaps


def _first_improvement(
    G: np.ndarray,
    space: ExperimentSpace,
    model: MonomialModel,
    x: np.ndarray,
    value: float,
    moves: np.ndarray,
) -> tuple[Optional[np.ndarray], float, int]:
    """First neighbor ``x + moves[m]`` in order whose value beats ``value``.

    Returns (neighbor or None, its value, feasible neighbors examined).  One
    batch screens the whole neighborhood; each screened neighbor is then
    re-valued with the scalar ``quad_value``, which alone decides, so the
    move taken is the one a neighbor-by-neighbor scan would take.
    """
    X = x + moves
    X = X[space.feasible(X)]
    if not X.shape[0]:
        return None, value, 0
    P = model.evaluate_many(X).astype(float)
    _, upper = _screen(G, P, P.sum(axis=1) ** 2)
    for m in np.flatnonzero(upper > value):
        cand = quad_value(G, P[m])
        if cand > value:
            return X[m].copy(), cand, int(m) + 1
    return None, value, X.shape[0]


def heuristic_search(
    G: np.ndarray,
    space: ExperimentSpace,
    model: MonomialModel,
    start: np.ndarray,
) -> PricingResult:
    """First-improvement ascent over single-level moves and level swaps.

    Neighbor order is deterministic: +/- e_i by increasing i, then e_i - e_j
    over ordered pairs.  The returned point is locally maximal in both
    neighborhoods restricted to the feasible set.  ``nodes`` counts the
    feasible neighbors valued, as a neighbor-by-neighbor scan would.
    """
    x = np.asarray(start, dtype=np.int64).copy()
    if not space.contains(x):
        raise ValueError("start point is infeasible")
    flips, swaps = _neighbor_moves(space.d)
    value = quad_value(G, model.evaluate(x))
    evals = 1
    while True:
        for moves in (flips, swaps):
            nxt, value, seen = _first_improvement(G, space, model, x, value, moves)
            evals += seen
            if nxt is not None:
                x = nxt
                break
        else:
            return PricingResult(x=x, value=value, exact=False, nodes=evals)


def _best_row(G: np.ndarray, X: np.ndarray, P: np.ndarray, sums2: np.ndarray) -> PricingResult:
    """Exact optimum over X (points P): the first maximum of ``quad_value`` on screened rows."""
    if X.shape[0] == 0:
        raise EmptySpaceError("feasible set is empty")
    lower, upper = _screen(G, P, sums2)
    rows = np.flatnonzero(upper >= lower.max())
    vals = [quad_value(G, P[i]) for i in rows]
    best = int(np.argmax(vals))
    return PricingResult(x=X[rows[best]].copy(), value=vals[best], exact=True, nodes=X.shape[0])


def solve_enum(G: np.ndarray, space: ExperimentSpace, model: MonomialModel) -> PricingResult:
    """Exact optimum by enumeration; ties go to the lexicographically smallest x."""
    X = enumerate_space(space)
    P = model.evaluate_many(X).astype(float)
    return _best_row(G, X, P, P.sum(axis=1) ** 2)


# --------------------------------------------------------------------------
# Linearization
# --------------------------------------------------------------------------


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for fa, ca in a.items():
        for fb, cb in b.items():
            key = fa | fb  # binary idempotence: z^2 = z
            out[key] = out.get(key, 0.0) + ca * cb
    return out


@dataclass
class LinearizedProgram:
    """Integer linear reformulation of the pricing quadratic.

    Variables are the factor bits followed by one auxiliary variable per
    distinct bit product of size >= 2.  Integer-feasible points are in
    bijection with the experiment space.
    """

    space: ExperimentSpace
    model: MonomialModel
    bits_per_factor: int
    aux_index: dict = field(repr=False)
    c: np.ndarray = field(repr=False)
    c0: float = 0.0
    A_ub: np.ndarray = field(default=None, repr=False)
    b_ub: np.ndarray = field(default=None, repr=False)
    fixed_bits: dict = field(default_factory=dict)

    @property
    def n_bits(self) -> int:
        return self.space.d * self.bits_per_factor

    @property
    def n_vars(self) -> int:
        return self.n_bits + len(self.aux_index)

    def bit(self, factor: int, t: int) -> int:
        return factor * self.bits_per_factor + t

    def decode_bits(self, z: np.ndarray) -> np.ndarray:
        nb = self.bits_per_factor
        x = np.zeros(self.space.d, dtype=np.int64)
        for j in range(self.space.d):
            for t in range(nb):
                x[j] += int(round(z[self.bit(j, t)])) << t
        return x

    def encode(self, x: np.ndarray) -> np.ndarray:
        nb = self.bits_per_factor
        z = np.zeros(self.n_bits, dtype=np.int64)
        for j, xj in enumerate(x):
            for t in range(nb):
                z[self.bit(j, t)] = (int(xj) >> t) & 1
        return z

    def objective_at_bits(self, z: np.ndarray) -> float:
        """Objective at an integer bit vector, with auxiliaries at their products."""
        full = np.zeros(self.n_vars)
        full[: self.n_bits] = z
        for F, col in self.aux_index.items():
            full[col] = float(np.prod([z[b] for b in F]))
        return self.c0 + float(self.c @ full)


def build_linearization(
    G: np.ndarray, space: ExperimentSpace, model: MonomialModel
) -> LinearizedProgram:
    """Lift the quadratic objective into a linear one over bits and products."""
    if model.order > 2:
        raise ValueError(f"model order {model.order} > 2 is unsupported")
    d = space.d
    nb = max(1, math.ceil(math.log2(space.L)))
    n_bits = d * nb

    def bit(j, t):
        return j * nb + t

    # monomial -> polynomial over bits with idempotent products
    monos = []
    for row in model.exponents:
        poly = {frozenset(): 1.0}
        for j, e in enumerate(row):
            factor_poly = {frozenset([bit(j, t)]): float(2**t) for t in range(nb)}
            for _ in range(e):
                poly = _poly_mul(poly, factor_poly)
        monos.append(poly)

    obj: dict = {}
    p = model.p
    for i in range(p):
        for j in range(i, p):
            w = float(G[i, j]) if i == j else 2.0 * float(G[i, j])
            if w == 0.0:
                continue
            for key, coeff in _poly_mul(monos[i], monos[j]).items():
                obj[key] = obj.get(key, 0.0) + w * coeff

    aux_index: dict = {}
    for key in sorted((k for k in obj if len(k) >= 2), key=sorted):
        aux_index[key] = n_bits + len(aux_index)

    n_vars = n_bits + len(aux_index)
    c = np.zeros(n_vars)
    c0 = obj.get(frozenset(), 0.0)
    for key, coeff in obj.items():
        if len(key) == 1:
            (b,) = key
            c[b] += coeff
        elif len(key) >= 2:
            c[aux_index[key]] += coeff

    rows, rhs = [], []

    def add_row(row, bound):
        rows.append(row)
        rhs.append(bound)

    # McCormick hull of y = prod of bits in F
    for F, col in aux_index.items():
        members = sorted(F)
        for b in members:
            row = np.zeros(n_vars)
            row[col] = 1.0
            row[b] = -1.0
            add_row(row, 0.0)  # y <= z_b
        row = np.zeros(n_vars)
        row[col] = -1.0
        for b in members:
            row[b] = 1.0
        add_row(row, float(len(members) - 1))  # y >= sum z_b - |F| + 1

    # side constraints A x <= b in bit space
    A, b = space.constraint_arrays()
    for m in range(A.shape[0]):
        row = np.zeros(n_vars)
        for j in range(d):
            for t in range(nb):
                row[bit(j, t)] = A[m, j] * (2**t)
        add_row(row, float(b[m]))

    # exclude levels >= L when the bit range overshoots
    if 2**nb - 1 > space.L - 1:
        for j in range(d):
            row = np.zeros(n_vars)
            for t in range(nb):
                row[bit(j, t)] = float(2**t)
            add_row(row, float(space.L - 1))

    fixed_bits = {}
    if space.fixed_first:
        fixed_bits[bit(0, 0)] = 1
        for t in range(1, nb):
            fixed_bits[bit(0, t)] = 0

    A_ub = np.array(rows) if rows else np.zeros((0, n_vars))
    b_ub = np.array(rhs)
    return LinearizedProgram(
        space=space,
        model=model,
        bits_per_factor=nb,
        aux_index=aux_index,
        c=c,
        c0=c0,
        A_ub=A_ub,
        b_ub=b_ub,
        fixed_bits=fixed_bits,
    )


# --------------------------------------------------------------------------
# Branch and bound
# --------------------------------------------------------------------------


def solve_bb(
    G: np.ndarray,
    space: ExperimentSpace,
    model: MonomialModel,
    incumbent: Optional[PricingResult] = None,
    target: Optional[float] = None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> PricingResult:
    """Exact branch-and-bound on the linearized program.

    A node is its (n_vars, 2) array of variable bounds, passed to the LP as
    is: the root pins ``fixed_bits``, and each child copies its parent and
    pins the most fractional free bit, child 1 explored first.  A leaf's
    point replaces the incumbent when its ``quad_value`` is larger, or equal
    with a lexicographically smaller x, as enumeration decides.  With a
    finite ``target``, returns early (exact=False) as soon as a point with
    value > target is known; this is all a local-search improving move
    needs.  ``nodes`` counts node LPs; ``node_limit`` of them with nodes left
    end the search with exact=False, or NodeLimitError if no point is known.
    """
    lin = build_linearization(G, space, model)

    best_x = None
    best_val = -np.inf
    if incumbent is not None:
        best_x = np.asarray(incumbent.x, dtype=np.int64)
        best_val = quad_value(G, model.evaluate(best_x))
    if target is not None and best_val > target:
        return PricingResult(x=best_x, value=best_val, exact=False, nodes=0)

    root = np.tile([0.0, 1.0], (lin.n_vars, 1))
    for b, v in lin.fixed_bits.items():
        root[b] = v
    stack = [root]
    nodes = 0
    neg_c = -lin.c
    while stack:
        if nodes >= node_limit:
            if best_x is None:
                raise NodeLimitError("node limit hit before any feasible point was found")
            return PricingResult(x=best_x, value=best_val, exact=False, nodes=nodes)
        bounds = stack.pop()
        nodes += 1
        res = linprog(neg_c, A_ub=lin.A_ub, b_ub=lin.b_ub, bounds=bounds, method="highs")
        if res.status != 0:
            continue  # infeasible subproblem
        bound = lin.c0 - res.fun
        if best_x is not None and bound <= best_val - BOUND_SAFETY * max(1.0, abs(bound)):
            continue
        z = res.x[: lin.n_bits]
        free = bounds[: lin.n_bits, 0] < bounds[: lin.n_bits, 1]
        frac = np.where(free, np.abs(z - np.round(z)), 0.0)
        branch_bit = int(np.argmax(frac))
        if frac[branch_bit] > 1e-6:
            for v in (0.0, 1.0):
                child = bounds.copy()
                child[branch_bit] = v
                stack.append(child)
            continue
        x = lin.decode_bits(np.round(z))
        if not space.contains(x):
            continue
        value = quad_value(G, model.evaluate(x))
        if value > best_val or (value == best_val and x.tolist() < best_x.tolist()):
            best_x, best_val = x, value
            if target is not None and best_val > target:
                return PricingResult(x=best_x, value=best_val, exact=False, nodes=nodes)
    if best_x is None:
        raise EmptySpaceError("feasible set is empty")
    return PricingResult(x=best_x, value=best_val, exact=True, nodes=nodes)


@dataclass
class Pricer:
    """Pricing dispatcher: enumeration up to ENUM_THRESHOLD box points, B&B beyond.

    The enumeration route enumerates and evaluates the space once, on its
    first call, and scores every later G against the same points.
    """

    space: ExperimentSpace
    model: MonomialModel
    node_limit: int = DEFAULT_NODE_LIMIT

    @cached_property
    def _enumeration(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        X = enumerate_space(self.space)
        P = self.model.evaluate_many(X).astype(float)
        return X, P, P.sum(axis=1) ** 2

    def heuristic(self, G: np.ndarray, start: np.ndarray) -> PricingResult:
        return heuristic_search(G, self.space, self.model, start)

    def exact(
        self,
        G: np.ndarray,
        incumbent: Optional[PricingResult] = None,
        target: Optional[float] = None,
    ) -> PricingResult:
        if self.space.L**self.space.d <= ENUM_THRESHOLD:
            return _best_row(G, *self._enumeration)
        return solve_bb(
            G,
            self.space,
            self.model,
            incumbent=incumbent,
            target=target,
            node_limit=self.node_limit,
        )


def _independent(Q: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """Unit residual of v against the orthonormal columns Q, if v adds rank."""
    resid = v - Q @ (Q.T @ v)
    norm = np.linalg.norm(resid)
    if norm > 1e-8 * max(1.0, np.linalg.norm(v)):
        return resid / norm
    return None


def complete_rank(pricer: Pricer, basis: list, candidates: Iterable) -> list[tuple]:
    """Experiments that extend span(basis) to rank p, in the order found.

    ``candidates`` yields sampled experiments, None for a draw outside the
    space; each draw that adds rank is kept, and none is taken past rank p.
    After RANK_STALL draws in a row without a gain, each step exactly prices
    G = I - QQ^T (Q an orthonormal basis of the span) at x, the squared
    residual of p(x); an exact maximum that adds no rank proves degeneracy.
    """
    model, p = pricer.model, pricer.model.p
    Q = np.zeros((p, 0))
    for x in basis:
        q = _independent(Q, model.evaluate(x).astype(float))
        Q = Q if q is None else np.column_stack([Q, q])
    tested = set(basis)  # a point in the span stays in it
    added: list[tuple] = []
    draws = iter(candidates)
    stall = 0
    while Q.shape[1] < p:
        res = None
        if stall < RANK_STALL:
            x, stall = next(draws), stall + 1
            if x is None or x in tested:
                continue
            tested.add(x)
        else:
            res = pricer.exact(np.eye(p) - Q @ Q.T)
            x = tuple(int(t) for t in res.x)
        q = _independent(Q, model.evaluate(x).astype(float))
        if q is not None:
            Q = np.column_stack([Q, q])
            added.append(x)
            stall = 0 if res is None else stall  # once pricing takes over, it stays
        elif res is not None and res.exact:
            raise DegenerateInstanceError(
                f"the feasible points span rank {Q.shape[1]} < p = {p}: exact pricing "
                f"of I - QQ^T gives a maximum squared residual of {res.value:.3g}"
            )
        elif res is not None:
            raise NodeLimitError(f"pricing hit its node limit at span rank {Q.shape[1]} < p = {p}")
    return added
