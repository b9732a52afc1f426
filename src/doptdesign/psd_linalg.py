"""Symmetric PSD kernel: log-determinants, rank-one update identities.

Information matrices here are small and dense (p up to a few hundred), so
every factorization is a full symmetric eigendecomposition.  The update
identities are

    det(S + v v^T) = det(S) (1 + v^T S^{-1} v)          when rank(S) = p,
    det(S + v v^T) = kdet_{p-1}(S) v^T (I - S^+ S) v    when rank(S) = p - 1,

with S^+ the Moore-Penrose pseudoinverse and kdet_m the product of the m
largest eigenvalues.  Local search prices exchanges with ``pricing_matrix``
(S^{-1}) through Fedorov's identity, which covers both cases (see
``local_search``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# A spectral "pivot" below RANK_RTOL times the largest one counts as zero.
RANK_RTOL = 1e-10
# Downdates may produce slightly negative eigenvalues; clamp within this band.
CLAMP_RTOL = 1e-8
SYM_RTOL = 1e-8


class RankError(ValueError):
    """Matrix rank outside what the requested operation supports."""


@dataclass(frozen=True)
class InfoMatrix:
    """A symmetric PSD matrix with a cached eigendecomposition."""

    S: np.ndarray
    evals: np.ndarray = field(repr=False)
    evecs: np.ndarray = field(repr=False)
    rank: int
    clamped: bool = False

    @classmethod
    def from_matrix(cls, S: np.ndarray) -> "InfoMatrix":
        S = np.asarray(S, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {S.shape}")
        scale = max(1.0, float(np.abs(S).max()))
        if np.abs(S - S.T).max() > SYM_RTOL * scale:
            raise ValueError("matrix is not symmetric within tolerance")
        S = 0.5 * (S + S.T)
        evals, evecs = np.linalg.eigh(S)
        trace = max(float(np.trace(S)), 0.0)
        floor = -CLAMP_RTOL * max(trace, 1.0)
        if np.any(evals < floor):
            raise ValueError(
                f"matrix not PSD: min eigenvalue {evals.min():.3e} below clamp band"
            )
        clamped = bool(np.any(evals < 0))
        evals = np.clip(evals, 0.0, None)
        thresh = RANK_RTOL * max(float(evals.max()), 0.0)
        rank = int(np.sum(evals > thresh))
        evals = np.where(evals > thresh, evals, 0.0)
        return cls(S=S, evals=evals, evecs=evecs, rank=rank, clamped=clamped)

    @property
    def p(self) -> int:
        return self.S.shape[0]

    @property
    def logdet(self) -> float:
        return logdet(self)

    def inverse(self) -> np.ndarray:
        if self.rank < self.p:
            raise RankError("matrix is singular")
        return (self.evecs / self.evals) @ self.evecs.T


def logdet(S: InfoMatrix) -> float:
    """Natural-log determinant; -inf when rank deficient."""
    if S.rank < S.p:
        return -np.inf
    return float(np.sum(np.log(S.evals)))


def kdet(S: InfoMatrix, m: int) -> float:
    """Product of the m largest eigenvalues."""
    if not 1 <= m <= S.p:
        raise ValueError(f"need 1 <= m <= {S.p}, got {m}")
    return float(np.prod(np.sort(S.evals)[::-1][:m]))


def det_update_full_rank(S: InfoMatrix, v: np.ndarray) -> float:
    """Multiplicative factor 1 + v^T S^{-1} v, so det(S+vv^T) = det(S) * factor."""
    if S.rank < S.p:
        raise RankError("rank-deficient matrix: use the projector path")
    v = np.asarray(v, dtype=float)
    w = S.evecs.T @ v
    return float(1.0 + np.sum(w * w / S.evals))


def det_update_rank_deficient(S: InfoMatrix, v: np.ndarray) -> float:
    """Squared norm of v outside range(S): v^T (I - S^+ S) v.

    Valid only at rank p-1, where det(S+vv^T) = kdet_{p-1}(S) * value.
    """
    if S.rank == S.p:
        raise RankError("matrix is full rank: use the inverse path")
    if S.rank < S.p - 1:
        raise RankError(
            f"rank {S.rank} < p-1 = {S.p - 1}: a single exchange cannot repair this"
        )
    v = np.asarray(v, dtype=float)
    U = S.evecs[:, S.evals > 0]
    w = U.T @ v
    return float(max(v @ v - w @ w, 0.0))


def pricing_matrix(S: InfoMatrix) -> np.ndarray:
    """S^{-1}, symmetrised; RankError when S is singular."""
    G = S.inverse()
    return 0.5 * (G + G.T)


def rank_one_update(S: InfoMatrix, v: np.ndarray) -> InfoMatrix:
    v = np.asarray(v, dtype=float)
    return InfoMatrix.from_matrix(S.S + np.outer(v, v))


def rank_one_downdate(S: InfoMatrix, v: np.ndarray) -> InfoMatrix:
    """S - v v^T with small negative eigenvalues clamped to zero.

    A downdate that would leave an eigenvalue below the clamp band means the
    point was not consistent with S and is rejected.
    """
    v = np.asarray(v, dtype=float)
    try:
        return InfoMatrix.from_matrix(S.S - np.outer(v, v))
    except ValueError as exc:
        raise RankError(f"inconsistent downdate: {exc}") from exc


def pm1_to_01_transform(V: np.ndarray) -> np.ndarray:
    """Map a {-1,1} design matrix (p x k) to a {0,1} one, first row all ones.

    Columns are sign-flipped so the first row is all ones, the first row is
    added to every other row, and rows 2..p are halved.  The Gram determinant
    shrinks by exactly 2^{2(p-1)}.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.all(np.isin(V, (-1.0, 1.0))):
        raise ValueError("entries must be -1 or 1")
    W = V * V[0]  # flip each column by its first entry
    out = W.copy()
    out[1:] = (W[1:] + W[0]) / 2.0
    return out
