"""Determinant-update identities checked against direct determinant oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doptdesign import psd_linalg as K


def random_psd(rng, p, rank=None):
    rank = p if rank is None else rank
    A = rng.normal(size=(p, rank))
    return A @ A.T


def random_info(rng, p, rank=None):
    return K.InfoMatrix.from_matrix(random_psd(rng, p, rank))


# ---------------------------------------------------------------------------
# InfoMatrix
# ---------------------------------------------------------------------------


def test_from_matrix_rejects_asymmetric():
    with pytest.raises(ValueError):
        K.InfoMatrix.from_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_from_matrix_rejects_indefinite():
    with pytest.raises(ValueError):
        K.InfoMatrix.from_matrix(np.diag([1.0, -1.0]))


def test_clamp_band_accepts_tiny_negative():
    S = np.diag([1.0, -1e-12])
    info = K.InfoMatrix.from_matrix(S)
    assert info.clamped
    assert info.rank == 1
    assert np.all(info.evals >= 0)


def test_rank_detection():
    rng = np.random.default_rng(0)
    info = random_info(rng, 6, rank=4)
    assert info.rank == 4
    assert info.logdet == -np.inf


def test_inverse_matches_numpy():
    rng = np.random.default_rng(1)
    info = random_info(rng, 5)
    assert np.allclose(info.inverse(), np.linalg.inv(info.S), atol=1e-9)


# ---------------------------------------------------------------------------
# logdet / kdet
# ---------------------------------------------------------------------------


@given(seed=st.integers(0, 200), p=st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_logdet_matches_slogdet_oracle(seed, p):
    rng = np.random.default_rng(seed)
    info = random_info(rng, p)
    _, ld = np.linalg.slogdet(info.S)
    assert np.isclose(info.logdet, ld, rtol=1e-9, atol=1e-9)


def test_kdet_identity_on_diagonal():
    info = K.InfoMatrix.from_matrix(np.diag([4.0, 3.0, 2.0, 0.0]))
    assert np.isclose(K.kdet(info, 2), 12.0)
    assert np.isclose(K.kdet(info, 3), 24.0)
    assert K.kdet(info, 4) == 0.0


def test_kdet_bounds_checked():
    info = K.InfoMatrix.from_matrix(np.eye(3))
    with pytest.raises(ValueError):
        K.kdet(info, 0)
    with pytest.raises(ValueError):
        K.kdet(info, 4)


# ---------------------------------------------------------------------------
# Exchange identities, against direct determinants
# ---------------------------------------------------------------------------


def test_update_factor_trivial_cases():
    info = K.InfoMatrix.from_matrix(np.eye(3))
    assert np.isclose(K.det_update_full_rank(info, np.zeros(3)), 1.0)
    assert np.isclose(K.det_update_full_rank(info, np.array([1.0, 0, 0])), 2.0)


@given(seed=st.integers(0, 500))
@settings(max_examples=80, deadline=None)
def test_full_rank_update_matches_determinant_oracle(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 9))
    info = random_info(rng, p)
    v = rng.normal(size=p)
    factor = K.det_update_full_rank(info, v)
    direct = np.linalg.det(info.S + np.outer(v, v)) / np.linalg.det(info.S)
    assert np.isclose(factor, direct, rtol=1e-8, atol=1e-10)


@given(seed=st.integers(0, 500))
@settings(max_examples=80, deadline=None)
def test_rank_deficient_update_matches_determinant_oracle(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 8))
    info = random_info(rng, p, rank=p - 1)
    v = rng.normal(size=p)
    value = K.det_update_rank_deficient(info, v)
    direct = np.linalg.det(info.S + np.outer(v, v))
    predicted = K.kdet(info, p - 1) * value
    assert np.isclose(predicted, direct, rtol=1e-6, atol=1e-8)


def test_update_route_dispatch_errors():
    rng = np.random.default_rng(3)
    full = random_info(rng, 4)
    deficient = random_info(rng, 4, rank=2)
    with pytest.raises(K.RankError):
        K.det_update_full_rank(deficient, np.ones(4))
    with pytest.raises(K.RankError):
        K.det_update_rank_deficient(full, np.ones(4))
    with pytest.raises(K.RankError):
        K.det_update_rank_deficient(deficient, np.ones(4))


def test_pricing_matrix_routes():
    rng = np.random.default_rng(4)
    full = random_info(rng, 5)
    G = K.pricing_matrix(full)
    assert np.allclose(G, np.linalg.inv(full.S), atol=1e-8)
    assert np.array_equal(G, G.T)
    for rank in (4, 3):
        with pytest.raises(K.RankError):
            K.pricing_matrix(random_info(rng, 5, rank=rank))


def test_rank_one_update_downdate_roundtrip():
    rng = np.random.default_rng(5)
    info = random_info(rng, 4)
    v = rng.normal(size=4)
    up = K.rank_one_update(info, v)
    back = K.rank_one_downdate(up, v)
    assert np.allclose(back.S, info.S, atol=1e-10)


def test_downdate_rejects_inconsistent_vector():
    info = K.InfoMatrix.from_matrix(np.eye(3))
    with pytest.raises(K.RankError):
        K.rank_one_downdate(info, np.array([2.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# {-1,1} -> {0,1} design transform
# ---------------------------------------------------------------------------


def test_pm1_transform_first_row_ones_and_binary():
    rng = np.random.default_rng(6)
    V = rng.choice([-1.0, 1.0], size=(4, 10))
    W = K.pm1_to_01_transform(V)
    assert np.all(W[0] == 1.0)
    assert np.all(np.isin(W[1:], (0.0, 1.0)))


@given(seed=st.integers(0, 300))
@settings(max_examples=60, deadline=None)
def test_pm1_transform_gram_ratio(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 6))
    k = p + int(rng.integers(0, 6))
    V = rng.choice([-1.0, 1.0], size=(p, k))
    W = K.pm1_to_01_transform(V)
    det_v = np.linalg.det(V @ V.T)
    det_w = np.linalg.det(W @ W.T)
    if abs(det_v) > 1e-6:
        assert np.isclose(det_v / det_w, 4.0 ** (p - 1), rtol=1e-8)


def test_pm1_transform_rejects_other_entries():
    with pytest.raises(ValueError):
        K.pm1_to_01_transform(np.array([[0.5, 1.0]]))
