"""Pricing problem: maximize p(x)^T G p(x) over the experiment space.

Three routes share one interface: a bit-flip/bit-swap ascent, exhaustive
enumeration, and an exact branch-and-bound on the objective lifted to a
multilinear polynomial over the factor bits, bounded by the positive part of
its coefficients; no LP is solved.  Levels beyond two are binarized with
ceil(log2 L) bits per factor.
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
from scipy.optimize import linprog  # noqa: F401  (unused here; perfbench/tracing.py patches pricing.linprog)

from .model import ExperimentSpace, MonomialModel, enumerate_space
from .model import EnumerationCapError  # noqa: F401  (re-exported)

DEFAULT_NODE_LIMIT = 10**6
# Boxes of at most this many points are priced by enumeration, larger ones by B&B
ENUM_THRESHOLD = 2**16
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
# Lift to bits
# --------------------------------------------------------------------------


def _place_values(nb: int) -> np.ndarray:
    """Value of each of a factor's nb bits, high bit first."""
    return 1 << np.arange(nb)[::-1]


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for fa, ca in a.items():
        for fb, cb in b.items():
            key = fa | fb  # binary idempotence: z^2 = z
            out[key] = out.get(key, 0.0) + ca * cb
    return out


@dataclass
class LinearizedProgram:
    """The pricing objective lifted to a multilinear polynomial over factor bits.

    Factor j takes bits ``j*nb .. j*nb + nb - 1``, high bit first, so bit
    order is lexicographic order of x.  ``terms[t]`` lists the bits of term
    t, padded with -1 (row 0 is the constant term, all -1), and ``coef[t]``
    is its coefficient.  ``rows z <= rhs`` are the space's exact integer rows
    in bit space and, when 2^nb > L, one row per factor excluding levels
    >= L; with ``fixed_bits`` pinned, the integer points that satisfy them
    are exactly the encoded experiments.
    """

    space: ExperimentSpace
    model: MonomialModel
    bits_per_factor: int
    terms: np.ndarray = field(repr=False)
    coef: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    fixed_bits: dict = field(default_factory=dict)

    @property
    def n_bits(self) -> int:
        return self.space.d * self.bits_per_factor

    def decode_bits(self, z: np.ndarray) -> np.ndarray:
        place = _place_values(self.bits_per_factor)
        return np.asarray(z, dtype=np.int64).reshape(self.space.d, -1) @ place

    def encode(self, x: np.ndarray) -> np.ndarray:
        place = _place_values(self.bits_per_factor)
        return ((np.asarray(x, dtype=np.int64)[:, None] // place) & 1).ravel()

    def objective_at_bits(self, z: np.ndarray) -> float:
        """Objective at an integer bit vector: the sum of the terms whose bits are all 1."""
        return float(self.coef @ np.append(z, 1)[self.terms].prod(axis=1))


def build_linearization(
    G: np.ndarray, space: ExperimentSpace, model: MonomialModel
) -> LinearizedProgram:
    """Lift p(x)^T G p(x) to a multilinear polynomial over the factor bits."""
    if model.order > 2:
        raise ValueError(f"model order {model.order} > 2 is unsupported")
    d, L = space.d, space.L
    nb = max(1, math.ceil(math.log2(L)))
    place = _place_values(nb)

    # monomial -> polynomial over bits with idempotent products
    monos = []
    for row in model.exponents:
        poly = {frozenset(): 1.0}
        for j, e in enumerate(row):
            factor_poly = {frozenset([j * nb + t]): float(v) for t, v in enumerate(place)}
            for _ in range(e):
                poly = _poly_mul(poly, factor_poly)
        monos.append(poly)

    obj: dict = {frozenset(): 0.0}
    p = model.p
    for i in range(p):
        for j in range(i, p):
            w = float(G[i, j]) if i == j else 2.0 * float(G[i, j])
            if w == 0.0:
                continue
            for key, coeff in _poly_mul(monos[i], monos[j]).items():
                obj[key] = obj.get(key, 0.0) + w * coeff

    keys = sorted(obj, key=lambda key: (len(key), sorted(key)))
    terms = np.full((len(keys), max(map(len, keys))), -1, dtype=np.int64)
    for t, key in enumerate(keys):
        terms[t, : len(key)] = sorted(key)
    coef = np.array([obj[key] for key in keys])

    A, b = space._A_int, space._b_int
    rows = (A[:, :, None] * place).reshape(A.shape[0], d * nb)
    rhs = b
    if 2**nb > L:  # exclude levels >= L
        rows = np.concatenate([rows, np.kron(np.eye(d, dtype=np.int64), place)])
        rhs = np.concatenate([rhs, np.full(d, L - 1, dtype=np.int64)])

    fixed_bits = {}
    if space.fixed_first:
        fixed_bits = {t: int(t == nb - 1) for t in range(nb)}  # x_0 = 1
    return LinearizedProgram(
        space=space,
        model=model,
        bits_per_factor=nb,
        terms=terms,
        coef=coef,
        rows=rows,
        rhs=rhs,
        fixed_bits=fixed_bits,
    )


# --------------------------------------------------------------------------
# Branch and bound
# --------------------------------------------------------------------------


def _merge_groups(terms: np.ndarray, n_bits: int) -> list[np.ndarray]:
    """Per depth k, the index of each term's merged term once bits < k are fixed.

    Terms whose free bits (those >= k) coincide merge; group 0 is the
    constant, the terms with no free bit.
    """
    groups = []
    for k in range(n_bits + 1):
        free = np.sort(np.where(terms >= k, terms, -1), axis=1)
        groups.append(np.unique(free, axis=0, return_inverse=True)[1].ravel())
    return groups


def solve_bb(
    G: np.ndarray,
    space: ExperimentSpace,
    model: MonomialModel,
    incumbent: Optional[PricingResult] = None,
    target: Optional[float] = None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> PricingResult:
    """Exact branch-and-bound on the lifted polynomial, without LPs.

    A node is its (n_bits, 2) array of bit bounds.  The root pins
    ``fixed_bits``; each child copies its parent and pins its first free
    bit, child 0 explored first.  Bits are numbered factor by factor, high
    bit first, so the fixed bits of a node are a prefix, and leaves are
    reached in lexicographic order of x.  A node is dropped when some integer
    row cannot be met: sum(r+ lo) + sum(r- hi) > rhs, in exact integers.
    Otherwise its bound is the polynomial with the fixed bits substituted and
    the terms with equal free bits merged: the constant plus the positive
    merged coefficients, valid for any symmetric G.  It is pruned only when
    bound + 1e-9 * sum(|coef|) < incumbent, a rounding slack, so every point
    that ties or beats the incumbent is reached.  A leaf's point, if in the
    space, replaces the incumbent when its ``quad_value`` is larger, or equal
    with a lexicographically smaller x, as enumeration decides.  With a
    finite ``target``, returns early (exact=False) as soon as a point with
    value > target is known; this is all a local-search improving move
    needs.  ``nodes`` counts bounds computed; ``node_limit`` of them with
    nodes left end the search with exact=False, or NodeLimitError if no
    point is known.
    """
    lin = build_linearization(G, space, model)

    best_x = None
    best_val = -np.inf
    if incumbent is not None:
        best_x = np.asarray(incumbent.x, dtype=np.int64)
        best_val = quad_value(G, model.evaluate(best_x))
    if target is not None and best_val > target:
        return PricingResult(x=best_x, value=best_val, exact=False, nodes=0)

    n = lin.n_bits
    groups = _merge_groups(lin.terms, n)
    slack = 1e-9 * np.abs(lin.coef).sum()
    pos = np.where(lin.rows > 0, lin.rows, 0)
    neg = lin.rows - pos
    root = np.tile(np.array([0, 1], dtype=np.int64), (n, 1))
    for b, v in lin.fixed_bits.items():
        root[b] = v
    stack = [root]
    nodes = 0
    while stack:
        if nodes >= node_limit:
            if best_x is None:
                raise NodeLimitError("node limit hit before any feasible point was found")
            return PricingResult(x=best_x, value=best_val, exact=False, nodes=nodes)
        node = stack.pop()
        lo, hi = node[:, 0], node[:, 1]
        if np.any(pos @ lo + neg @ hi > lin.rhs):
            continue
        nodes += 1
        depth = n - int(np.count_nonzero(lo < hi))
        alive = np.append(hi, 1)[lin.terms].all(axis=1)  # no bit of the term fixed to 0
        merged = np.bincount(groups[depth], np.where(alive, lin.coef, 0.0))
        bound = merged[0] + np.maximum(merged[1:], 0.0).sum()
        if bound + slack < best_val:
            continue
        if depth < n:
            for v in (1, 0):
                child = node.copy()
                child[depth] = v
                stack.append(child)
            continue
        x = lin.decode_bits(lo)
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
