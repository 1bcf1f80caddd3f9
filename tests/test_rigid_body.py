"""Single-body dynamics: mass/Coriolis/gravity assembly and the regressor."""
import numpy as np
import pytest

from conftest import random_consistent_params, random_rotation
from oracles import (
    assemble_matrices,
    coriolis_matrix,
    coriolis_matrix_original,
    gravity_wrench,
    net_wrench,
)
from vdcnal.rigid_body import (
    InertialParams,
    inertia_to_vector,
    mass_matrix,
    omega_dot_operator,
    regressor,
)


def test_unit_body_mass_matrix():
    params = InertialParams(1.0, np.zeros(3), np.eye(3))
    assert np.allclose(mass_matrix(params), np.eye(6), atol=0.0)
    assert np.allclose(coriolis_matrix(mass_matrix(params), np.zeros(3)), 0.0, atol=0.0)


def test_sphere_coriolis_blocks():
    from vdcnal.spatial import skew
    params = InertialParams(1.0, np.zeros(3), 0.4 * np.eye(3))
    w = np.array([0.3, -0.7, 1.1])
    C = coriolis_matrix(mass_matrix(params), w)
    assert np.allclose(C[3:, 3:], 0.4 * skew(w), atol=1e-15)
    assert np.allclose(C[:3, :3], skew(w), atol=1e-15)
    assert np.allclose(C[:3, 3:], 0.0, atol=0.0)
    assert np.allclose(C[3:, :3], 0.0, atol=0.0)


def test_mass_matrix_symmetric_positive_definite():
    rng = np.random.default_rng(10)
    for _ in range(200):
        M = mass_matrix(random_consistent_params(rng))
        assert np.allclose(M, M.T, atol=1e-15)
        assert np.linalg.eigvalsh(M)[0] > 0.0


def test_regressor_matches_matrix_route():
    # linear-in-parameters route must reproduce M a + C V + G
    rng = np.random.default_rng(11)
    for _ in range(1000):
        params = random_consistent_params(rng)
        a = rng.standard_normal(6)
        V = rng.standard_normal(6)
        R = random_rotation(rng)
        lhs = regressor(a, V, R) @ params.as_vector()
        mats = assemble_matrices(params, V[3:], R)
        rhs = net_wrench(mats, a, V)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1.0 + np.max(np.abs(rhs)))


def test_regressor_at_rest_columns():
    from vdcnal.spatial import skew
    g = np.array([0.0, 0.0, 9.8])
    W = regressor(np.zeros(6), np.zeros(6), np.eye(3))
    assert np.allclose(W[:3, 0], g, atol=0.0)
    assert np.allclose(W[3:, 0], 0.0, atol=0.0)
    assert np.allclose(W[:3, 1:4], 0.0, atol=0.0)
    assert np.allclose(W[3:, 1:4], -skew(g), atol=0.0)
    assert np.allclose(W[:, 4:], 0.0, atol=0.0)


def test_coriolis_forms_agree_only_against_own_velocity():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1000):
        params = random_consistent_params(rng)
        V = rng.standard_normal(6)
        C = coriolis_matrix(mass_matrix(params), V[3:])
        Cbar = coriolis_matrix_original(params, V[3:])
        diff = (Cbar - C) @ V
        worst = max(worst, float(np.max(np.abs(diff))))
        assert np.max(np.abs(diff)) <= 1e-12 * (1.0 + np.max(np.abs(Cbar @ V)))
        assert abs(V @ (C @ V)) <= 1e-12 * (1.0 + V @ V)
        assert abs(V @ (Cbar @ V)) <= 1e-12 * (1.0 + V @ V)
    # the two assemblies differ as matrices; equality holds on V alone
    params = random_consistent_params(np.random.default_rng(13))
    w = np.array([0.4, 0.8, -0.3])
    u = np.array([1.0, 0.0, 0.0, 0.0, 0.2, -0.9])
    gap = (coriolis_matrix_original(params, w) - coriolis_matrix(mass_matrix(params), w)) @ u
    assert np.max(np.abs(gap)) > 1e-6


def test_net_wrench_reduces_to_gravity_at_rest():
    rng = np.random.default_rng(14)
    params = random_consistent_params(rng)
    R = random_rotation(rng)
    mats = assemble_matrices(params, np.zeros(3), R)
    net = net_wrench(mats, np.zeros(6), np.zeros(6))
    assert np.allclose(net, gravity_wrench(params, R), atol=0.0)
    ga = R @ np.array([0.0, 0.0, 9.8])
    assert np.allclose(net[:3], params.mass * ga, atol=1e-15)
    assert np.allclose(net[3:], np.cross(params.first_moment, ga), atol=1e-15)


def test_omega_dot_operator_identity():
    rng = np.random.default_rng(15)
    for _ in range(200):
        A = rng.standard_normal((3, 3))
        inertia = A + A.T
        w = rng.standard_normal(3)
        lhs = omega_dot_operator(w) @ inertia_to_vector(inertia)
        assert np.allclose(lhs, inertia @ w, atol=1e-13)


def test_inertia_vector_ordering():
    inertia = np.array([[1.0, 4.0, 6.0], [4.0, 2.0, 5.0], [6.0, 5.0, 3.0]])
    # xx yy zz xy yz xz
    assert np.array_equal(inertia_to_vector(inertia), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def test_params_vector_round_trip_and_com():
    rng = np.random.default_rng(16)
    params = random_consistent_params(rng)
    # first_moment / mass is the center of mass the parallel-axis shift uses
    com = params.first_moment / params.mass
    inertia_com = params.inertia - params.mass * (float(com @ com) * np.eye(3)
                                                  - np.outer(com, com))
    assert np.allclose(InertialParams.from_com(params.mass, com, inertia_com).as_vector(),
                       params.as_vector(), atol=1e-15)
    vec = params.as_vector()
    assert vec[0] == params.mass
    assert np.array_equal(vec[1:4], params.first_moment)


def test_from_com_applies_parallel_axis():
    m, c = 2.0, np.array([0.1, -0.2, 0.3])
    ic = np.diag([0.05, 0.06, 0.07])
    params = InertialParams.from_com(m, c, ic)
    assert np.allclose(params.first_moment, m * c, atol=0.0)
    shift = m * (float(c @ c) * np.eye(3) - np.outer(c, c))
    assert np.allclose(params.inertia, ic + shift, atol=1e-15)
    assert np.allclose(params.first_moment / params.mass, c, atol=1e-15)


def test_params_validation():
    bad = np.eye(3)
    bad[0, 1] = 0.3  # asymmetric
    with pytest.raises(ValueError):
        InertialParams(1.0, np.zeros(3), bad)
    with pytest.raises(ValueError):
        InertialParams(1.0, np.zeros(2), np.eye(3))
