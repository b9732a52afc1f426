"""Experiment spaces, monomial models, and instance generators.

An experiment is an integer vector ``x`` with entries in ``{0, ..., L-1}``,
optionally restricted by linear side constraints ``A x <= b`` and by pinning
the first factor to 1.  A monomial model maps an experiment to its design
point: the vector of monomial evaluations.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Sequence

import numpy as np

RNG_ALGORITHM = "pcg64"  # recorded in every emitted file for reproducibility
DEFAULT_ENUM_CAP = 2**24  # membership tests one enumeration may run
SAMPLE_BLOCK = 4096  # rows membership-tested together by ``draws`` and ``enumerate_space``
RANDOM_DRAW_CAP = 100_000  # samples one ``random_feasible`` request may read


class EnumerationCapError(ValueError):
    """Feasible set too large to enumerate under the configured cap."""


def make_rng(seed: int) -> np.random.Generator:
    """Seedable 64-bit generator used by everything in this package."""
    return np.random.Generator(np.random.PCG64(seed))


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return Fraction(int(value[0]), int(value[1]))
    raise TypeError(f"cannot interpret {value!r} as a rational")


def _rational_to_json(q: Fraction):
    if q.denominator == 1:
        return int(q)
    return [q.numerator, q.denominator]


@dataclass(frozen=True)
class ExperimentSpace:
    """Allowable experiments: a level box intersected with ``A x <= b``."""

    d: int
    L: int = 2
    constraints: tuple[tuple[tuple[Fraction, ...], Fraction], ...] = ()
    fixed_first: bool = False

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"need d >= 1, got {self.d}")
        if self.L < 2:
            raise ValueError(f"need L >= 2, got {self.L}")
        rows = []
        for row, rhs in self.constraints:
            row = tuple(_as_fraction(c) for c in row)
            if len(row) != self.d:
                raise ValueError(
                    f"constraint row length {len(row)} != d = {self.d}"
                )
            rows.append((row, _as_fraction(rhs)))
        object.__setattr__(self, "constraints", tuple(rows))
        # Each row times the LCM of its denominators: an integer row with the
        # same feasible set.  Plain attributes, not fields, so equality,
        # hashing and serialization see only the rational constraints.
        int_rows = []
        for row, rhs in rows:
            scale = math.lcm(rhs.denominator, *(c.denominator for c in row))
            int_rows.append((tuple(int(c * scale) for c in row), int(rhs * scale)))
        # int64 is exact when no in-box row sum or right-hand side can reach
        # 2**62; larger rows fall back to Python integers.
        reach = max(
            (max(sum(abs(c) for c in row) * (self.L - 1), abs(rhs)) for row, rhs in int_rows),
            default=0,
        )
        dtype = np.int64 if reach < 2**62 else object
        A = np.array([row for row, _ in int_rows], dtype=dtype).reshape(len(int_rows), self.d)
        b = np.array([rhs for _, rhs in int_rows], dtype=dtype)
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "_A_int", A)
        object.__setattr__(self, "_b_int", b)

    def contains(self, x: Sequence[int]) -> bool:
        """Exact membership of one experiment: a one-row call of ``feasible``."""
        X = np.asarray([x])
        return X.shape == (1, self.d) and bool(self.feasible(X)[0])

    def feasible(self, X) -> np.ndarray:
        """Row-wise exact membership of X, shape (n, d) -> bool[n].

        The package's one membership kernel: the box, integrality, the pinned
        first factor, and the LCM-scaled integer rows.
        """
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"expected shape (n, {self.d}), got {X.shape}")
        ok = np.all((X >= 0) & (X < self.L), axis=1)
        if X.dtype.kind not in "iu":
            # rows outside the box are rejected already; zeroed, they cannot
            # overflow the cast (floats or Python ints beyond int64)
            X = np.where(ok[:, None], X, 0)
            ok &= np.all(X % 1 == 0, axis=1)
            X = X.astype(np.int64)
        if self.fixed_first:
            ok &= X[:, 0] == 1
        if self._A_int.shape[0]:
            Xi = X.astype(self._A_int.dtype)
            ok &= np.all(Xi @ self._A_int.T <= self._b_int, axis=1)
        return ok

    def draws(self, rng):
        """Uniform samples of the level box, drawn SAMPLE_BLOCK at a time.

        Yields each sample as a tuple when it lies in the space and None when
        it does not; the stream equals one ``rng.integers`` call per sample.
        """
        while True:
            X = rng.integers(0, self.L, size=(SAMPLE_BLOCK, self.d))
            if self.fixed_first:
                X[:, 0] = 1
            for x, ok in zip(X.tolist(), self.feasible(X).tolist()):
                yield tuple(x) if ok else None


def random_feasible(draws, count: int) -> list:
    """The next ``count`` feasible samples of ``draws``, fewer if RANDOM_DRAW_CAP samples run out."""
    return list(islice((x for x in islice(draws, RANDOM_DRAW_CAP) if x is not None), count))


def enumerate_space(space: ExperimentSpace) -> np.ndarray:
    """All feasible experiments in lexicographic order, shape (n, d).

    The level box is generated SAMPLE_BLOCK rows at a time and each block is
    filtered by ``feasible``, so memory follows the feasible set.
    """
    size = space.L**space.d
    if size > DEFAULT_ENUM_CAP:
        raise EnumerationCapError(f"{size} membership tests exceed cap {DEFAULT_ENUM_CAP}")
    blocks = []
    for start in range(0, size, SAMPLE_BLOCK):
        idx = np.arange(start, min(start + SAMPLE_BLOCK, size))
        X = np.stack(np.unravel_index(idx, (space.L,) * space.d), axis=1)
        blocks.append(X[space.feasible(X)])
    return np.concatenate(blocks)


@dataclass(frozen=True)
class MonomialModel:
    """An ordered list of distinct exponent vectors in the d factors."""

    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        exps = tuple(tuple(int(e) for e in row) for row in self.exponents)
        if not exps:
            raise ValueError("need at least one monomial")
        if len(set(exps)) != len(exps):
            raise ValueError("exponent vectors must be pairwise distinct")
        d = len(exps[0])
        if any(len(row) != d for row in exps):
            raise ValueError("exponent vectors must share one length")
        if any(e < 0 for row in exps for e in row):
            raise ValueError("exponents must be nonnegative")
        object.__setattr__(self, "exponents", exps)
        # (factor, exponent) pairs with a nonzero exponent, per monomial
        terms = tuple(tuple((j, e) for j, e in enumerate(row) if e) for row in exps)
        object.__setattr__(self, "_terms", terms)

    @property
    def d(self) -> int:
        return len(self.exponents[0])

    @property
    def p(self) -> int:
        return len(self.exponents)

    @property
    def order(self) -> int:
        return max(sum(row) for row in self.exponents)

    def evaluate(self, x: Sequence[int]) -> np.ndarray:
        return eval_design_point(self, x)

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        """Design points for the rows of X, shape (n, p)."""
        X = np.asarray(X, dtype=np.int64)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"expected shape (n, {self.d}), got {X.shape}")
        out = np.ones((X.shape[0], self.p), dtype=np.int64)
        for i, terms in enumerate(self._terms):
            for j, e in terms:
                out[:, i] *= X[:, j] if e == 1 else X[:, j] ** e
        return out


def eval_design_point(model: MonomialModel, x: Sequence[int]) -> np.ndarray:
    """Evaluate every monomial of the model at experiment x."""
    if len(x) != model.d:
        raise ValueError(f"experiment length {len(x)} != d = {model.d}")
    x = np.asarray(x, dtype=np.int64).tolist()
    if any(v < 0 for v in x):
        raise ValueError("experiment entries must be nonnegative")
    return np.array(
        [math.prod(x[j] ** e for j, e in terms) for terms in model._terms],
        dtype=np.int64,
    )


def build_full_first_order(d: int) -> MonomialModel:
    """Constant plus all degree-one monomials: p = d + 1."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    exps = [(0,) * d]
    for i in range(d):
        row = [0] * d
        row[i] = 1
        exps.append(tuple(row))
    return MonomialModel(tuple(exps))


def build_second_order_pairs(d: int) -> MonomialModel:
    """First-order monomials plus the pair products over factors 2..floor(d/2)+1.

    Pair indices are 1-based factor labels; with 0-based coordinates the pair
    set is {1, ..., floor(d/2)}, taken in lexicographic pair order.
    """
    if d < 4:
        raise ValueError(f"need d >= 4, got {d}")
    exps = list(build_full_first_order(d).exponents)
    hi = d // 2  # 0-based factor indices 1..hi inclusive
    for a, b in combinations(range(1, hi + 1), 2):
        row = [0] * d
        row[a] = 1
        row[b] = 1
        exps.append(tuple(row))
    return MonomialModel(tuple(exps))


@dataclass(frozen=True)
class Instance:
    """A design problem: space, model, and the budget k."""

    space: ExperimentSpace
    model: MonomialModel
    k: int
    seed: int | None = None
    generator: str = "custom"

    def __post_init__(self):
        if self.model.d != self.space.d:
            raise ValueError("model and space disagree on factor count")
        if self.k < self.model.p:
            raise ValueError(
                f"budget k = {self.k} below p = {self.model.p}; no rank-p design exists"
            )

    @property
    def p(self) -> int:
        return self.model.p


def generate_cardinality_instance(d: int, k: int | None = None) -> Instance:
    """Two-level full first-order model with sum(x) <= floor(d/3)."""
    if d < 3:
        raise ValueError(f"need d >= 3, got {d}")
    model = build_full_first_order(d)
    if k is None:
        k = 2 * model.p
    r = d // 3
    row = tuple(Fraction(1) for _ in range(d))
    # The constant monomial plays the intercept role, so no factor is pinned;
    # pinning x1 on top of the constant would force a repeated column in S.
    space = ExperimentSpace(d=d, L=2, constraints=((row, Fraction(r)),), fixed_first=False)
    return Instance(space=space, model=model, k=k, seed=None, generator="cardinality")


def _knapsack_rows(d: int, seed: int) -> tuple[list[tuple[Fraction, ...]], list[Fraction]]:
    rng = make_rng(seed)
    rows, rhss = [], []
    n_free = d - 1
    n_low = math.ceil(0.8 * n_free)
    for _ in range(2):
        perm = rng.permutation(n_free)
        vals = np.empty(n_free, dtype=np.int64)
        vals[perm[:n_low]] = rng.integers(0, 6, size=n_low)
        vals[perm[n_low:]] = rng.integers(20, 31, size=n_free - n_low)
        row = (Fraction(0),) + tuple(Fraction(int(v)) for v in vals)
        rows.append(row)
        rhss.append(Fraction(int(vals.sum()), 2))
    return rows, rhss


def generate_knapsack_instance(d: int, k: int | None = None, seed: int = 0) -> Instance:
    """Two-level full first-order model with two random knapsack constraints.

    Each row has a zero first entry; ceil(0.8 (d-1)) of the remaining entries
    are uniform over {0..5} and the rest over {20..30}, at positions chosen
    uniformly without replacement.  The right-hand side is half the row sum.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    model = build_full_first_order(d)
    if k is None:
        k = 2 * model.p
    rows, rhss = _knapsack_rows(d, seed)
    space = ExperimentSpace(
        d=d, L=2, constraints=tuple(zip(rows, rhss)), fixed_first=False
    )
    return Instance(space=space, model=model, k=k, seed=seed, generator="knapsack")


def generate_second_order_knapsack_instance(
    d: int, k: int | None = None, seed: int = 0
) -> Instance:
    """Partial second-order model with the same knapsack constraints on x."""
    if d < 4:
        raise ValueError(f"need d >= 4, got {d}")
    model = build_second_order_pairs(d)
    if k is None:
        k = 2 * model.p
    rows, rhss = _knapsack_rows(d, seed)
    space = ExperimentSpace(
        d=d, L=2, constraints=tuple(zip(rows, rhss)), fixed_first=False
    )
    return Instance(
        space=space, model=model, k=k, seed=seed, generator="second_order_knapsack"
    )


GENERATORS = {
    "cardinality": lambda d, k, seed: generate_cardinality_instance(d, k),
    "knapsack": generate_knapsack_instance,
    "second_order_knapsack": generate_second_order_knapsack_instance,
}


def instance_to_dict(inst: Instance) -> dict:
    return {
        "d": inst.space.d,
        "L": inst.space.L,
        "k": inst.k,
        "model": {"exponents": [list(row) for row in inst.model.exponents]},
        "constraints": [
            {
                "row": [_rational_to_json(c) for c in row],
                "rhs": _rational_to_json(rhs),
            }
            for row, rhs in inst.space.constraints
        ],
        "fixed_first": inst.space.fixed_first,
        "seed": inst.seed,
        "generator": inst.generator,
        "rng": RNG_ALGORITHM,
    }


def instance_from_dict(data: dict) -> Instance:
    constraints = tuple(
        (
            tuple(_as_fraction(c) for c in entry["row"]),
            _as_fraction(entry["rhs"]),
        )
        for entry in data.get("constraints", [])
    )
    space = ExperimentSpace(
        d=int(data["d"]),
        L=int(data["L"]),
        constraints=constraints,
        fixed_first=bool(data.get("fixed_first", False)),
    )
    model = MonomialModel(
        tuple(tuple(int(e) for e in row) for row in data["model"]["exponents"])
    )
    return Instance(
        space=space,
        model=model,
        k=int(data["k"]),
        seed=data.get("seed"),
        generator=data.get("generator", "custom"),
    )


def instance_to_json(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), indent=2)


def instance_from_json(text: str) -> Instance:
    return instance_from_dict(json.loads(text))


def instance_hash(inst: Instance) -> str:
    payload = json.dumps(instance_to_dict(inst), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()
