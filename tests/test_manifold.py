"""Pseudo-inertia embedding, consistency test, and the Bregman divergence
against the SPD oracles (eigenvalue form, geodesic distance, metric)."""
import numpy as np
import pytest

from conftest import divergence, random_consistent_params
from oracles import bregman_divergence_eigen, geodesic_distance, riemannian_metric
from vdcnal.manifold import (
    is_consistent,
    params_to_pseudo,
    pseudo_to_params,
)
from vdcnal.adaptation import pseudo_basis
from vdcnal.rigid_body import InertialParams


def _random_spd(rng, scale=1.0) -> np.ndarray:
    A = rng.standard_normal((4, 4))
    return scale * (A @ A.T + 0.5 * np.eye(4))


def test_round_trip_params_pseudo():
    rng = np.random.default_rng(20)
    for _ in range(1000):
        params = random_consistent_params(rng)
        vec = params.as_vector()
        back = pseudo_to_params(params_to_pseudo(params)).as_vector()
        assert np.max(np.abs(back - vec)) <= 1e-13 * (1.0 + np.max(np.abs(vec)))
        p2 = pseudo_to_params(params_to_pseudo(vec))
        assert np.allclose(p2.as_vector(), vec, atol=1e-13 * (1.0 + np.max(np.abs(vec))))


def test_embedding_is_linear():
    rng = np.random.default_rng(21)
    for _ in range(100):
        a, b = rng.standard_normal(2)
        v1, v2 = rng.standard_normal(10), rng.standard_normal(10)
        lhs = params_to_pseudo(a * v1 + b * v2)
        rhs = a * params_to_pseudo(v1) + b * params_to_pseudo(v2)
        assert np.allclose(lhs, rhs, atol=1e-13)
    assert np.allclose(params_to_pseudo(np.zeros(10)), 0.0, atol=0.0)


def test_unit_sphere_pseudo_inertia():
    # solid unit sphere, unit mass: I_bar = 0.4 I, second moment 0.2 I
    sphere = InertialParams(1.0, np.zeros(3), 0.4 * np.eye(3))
    L = params_to_pseudo(sphere)
    assert np.allclose(L, np.diag([0.2, 0.2, 0.2, 1.0]), atol=1e-15)
    back = pseudo_to_params(np.diag([0.2, 0.2, 0.2, 1.0]))
    assert np.allclose(back.as_vector(), sphere.as_vector(), atol=1e-15)


def test_pseudo_to_params_validation():
    with pytest.raises(ValueError, match="4x4"):
        pseudo_to_params(np.eye(3))
    bad = np.eye(4)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        pseudo_to_params(bad)


def test_is_consistent_examples():
    sphere = InertialParams(1.0, np.zeros(3), 0.4 * np.eye(3))
    assert is_consistent(sphere)
    point_mass = np.array([1.0, 0, 0, 0, 0, 0, 0, 0, 0, 0])  # L singular
    assert not is_consistent(point_mass)
    negative_mass = np.array([-1.0, 0, 0, 0, 0.4, 0.4, 0.4, 0, 0, 0])
    assert not is_consistent(negative_mass)


def test_is_consistent_agrees_with_minor_oracle():
    # Sylvester criterion: PD iff all leading principal minors are positive.
    # Mixed stream of guaranteed-consistent and arbitrary parameter vectors,
    # skipping draws inside a band around the tolerance boundary.
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 1000:
        if rng.uniform() < 0.5:
            phi = random_consistent_params(rng).as_vector()
        else:
            phi = rng.standard_normal(10)
        L = params_to_pseudo(phi)
        min_eig = np.linalg.eigvalsh(L)[0]
        if abs(min_eig) <= 1e-6 * (1.0 + abs(np.trace(L))):
            continue
        minors = [np.linalg.det(L[:k, :k]) for k in range(1, 5)]
        assert is_consistent(phi) == all(d > 0.0 for d in minors)
        checked += 1


def test_bregman_divergence_values():
    ident = np.eye(4)
    assert divergence(ident, ident) == pytest.approx(0.0, abs=1e-12)
    expected = 4.0 - 4.0 * np.log(2.0)
    assert divergence(2.0 * ident, ident) == pytest.approx(expected, abs=1e-9)


def test_bregman_forms_and_nonnegativity():
    rng = np.random.default_rng(23)
    for _ in range(300):
        L1, L2 = _random_spd(rng), _random_spd(rng)
        d = divergence(L1, L2)
        de = bregman_divergence_eigen(L1, L2)
        assert abs(d - de) <= 1e-10 * (1.0 + abs(d))
        assert d >= -1e-12


def test_bregman_congruence_invariance():
    rng = np.random.default_rng(24)
    for _ in range(200):
        L1, L2 = _random_spd(rng), _random_spd(rng)
        T = rng.standard_normal((4, 4))
        while abs(np.linalg.det(T)) < 0.1:
            T = rng.standard_normal((4, 4))
        d0 = divergence(L1, L2)
        d1 = divergence(T @ L1 @ T.T, T @ L2 @ T.T)
        assert abs(d0 - d1) <= 1e-9 * (1.0 + abs(d0))


def test_distances_reject_non_pd():
    singular = np.diag([1.0, 1.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="positive definite"):
        divergence(np.eye(4), singular)
    with pytest.raises(ValueError, match="positive definite"):
        divergence(singular, np.eye(4))
    with pytest.raises(ValueError, match="positive definite"):
        geodesic_distance(np.eye(4), -np.eye(4))
    with pytest.raises(ValueError, match="positive definite"):
        riemannian_metric(singular, np.eye(4), np.eye(4))


def test_geodesic_distance_values_and_symmetry():
    ident = np.eye(4)
    assert geodesic_distance(ident, 2.0 * ident) == pytest.approx(2.0 * np.log(2.0),
                                                                  abs=1e-9)
    rng = np.random.default_rng(25)
    for _ in range(200):
        L1, L2 = _random_spd(rng), _random_spd(rng)
        d12 = geodesic_distance(L1, L2)
        d21 = geodesic_distance(L2, L1)
        assert abs(d12 - d21) <= 1e-9 * (1.0 + d12)
        assert d12 > 0.0
        assert geodesic_distance(L1, L1) == pytest.approx(0.0, abs=1e-9)


def test_geodesic_congruence_invariance():
    rng = np.random.default_rng(26)
    for _ in range(200):
        L1, L2 = _random_spd(rng), _random_spd(rng)
        T = rng.standard_normal((4, 4))
        while abs(np.linalg.det(T)) < 0.1:
            T = rng.standard_normal((4, 4))
        d0 = geodesic_distance(L1, L2)
        d1 = geodesic_distance(T @ L1 @ T.T, T @ L2 @ T.T)
        assert abs(d0 - d1) <= 1e-9 * (1.0 + d0)


def test_riemannian_metric_properties():
    assert riemannian_metric(np.eye(4), np.eye(4), np.eye(4)) == pytest.approx(2.0)
    rng = np.random.default_rng(27)
    for _ in range(100):
        P = _random_spd(rng)
        A1, A2 = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        F1, F2 = A1 + A1.T, A2 + A2.T
        g12 = riemannian_metric(P, F1, F2)
        assert abs(g12 - riemannian_metric(P, F2, F1)) <= 1e-10 * (1.0 + abs(g12))
        assert riemannian_metric(P, F1, F1) > 0.0
        T = rng.standard_normal((4, 4))
        while abs(np.linalg.det(T)) < 0.1:
            T = rng.standard_normal((4, 4))
        g_t = riemannian_metric(T @ P @ T.T, T @ F1 @ T.T, T @ F2 @ T.T)
        assert abs(g12 - g_t) <= 1e-10 * (1.0 + abs(g12))


def test_pseudo_basis_spans_symmetric_matrices():
    basis = pseudo_basis()
    assert len(basis) == 10
    stacked = np.stack([E.reshape(16) for E in basis])
    assert np.linalg.matrix_rank(stacked) == 10
    for E in basis:
        assert np.allclose(E, E.T, atol=0.0)
