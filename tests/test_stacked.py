"""The stacked control-tick code against the per-link code it replaced.

Each check runs 200 random states of arm7, rrr3 and the one-joint pendulum
(which catches n = 1 shape slips) and asks |a - b| <= 1e-12 (1 + |b|) entry
by entry, a the stacked result and b the per-link oracle's.  The sweeps are
products with the chain operator that ``chain_poses`` builds, and the joint
rotations come from one gather over a cos/sin table; both are checked here
against the one-link-at-a-time forms.  So are the constant maps of the tick
(the regressor's, the Jacobian read off the chain operator, the estimates'
unpack) and the scanned frame rotations, each against the form it replaced.
"""
import numpy as np
import pytest

from conftest import random_consistent_params, random_rotation, random_transform
from oracles import (
    assemble_matrices,
    jacobian_cross_product,
    nal_step_per_link,
    net_wrench,
    propagate_accelerations_per_link,
    propagate_forces_per_link,
    propagate_velocities_per_link,
    pseudo_to_vectors_unpack,
    regressor_per_body,
    tip_rotations_sequential,
)
from vdcnal.adaptation import NalLinkAdapter
from vdcnal.controller import propagate_accelerations, propagate_forces, propagate_velocities
from vdcnal.kinematics import RobotModel, chain_poses, jacobian
from vdcnal.rigid_body import body_wrenches, mass_matrix, regressor
from vdcnal.spatial import axis_rotation

STATES = 200


@pytest.fixture(params=["arm7", "rrr3", "pendulum"])
def model(request):
    return request.getfixturevalue(request.param)


def _assert_close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.all(np.abs(a - b) <= 1e-12 * (1.0 + np.abs(b)))


def _chain_states(model, seed):
    """Per state: q, poses, the actual-set sweeps (oracle) and a random joint acceleration."""
    rng = np.random.default_rng(seed)
    for _ in range(STATES):
        q = rng.uniform(-np.pi, np.pi, model.n)
        qd, qd_r, qdd = rng.standard_normal((3, model.n))
        yield rng, q, chain_poses(model, q), qd, qd_r, qdd


def test_sweeps_match_per_link_sweeps(model):
    for rng, q, poses, qd, qd_r, qdd in _chain_states(model, 70):
        velocities = propagate_velocities_per_link(model, q, qd, qd_r)
        for got, want in zip(propagate_velocities(model, poses, qd, qd_r), velocities):
            _assert_close(got, want)
        vt = velocities[1]
        _assert_close(propagate_accelerations(model, poses, qd, qdd, vt),
                      propagate_accelerations_per_link(model, q, qd, qdd, vt)[0])
        net, tip = rng.standard_normal((model.n, 6)), rng.standard_normal(6)
        for got, want in zip(propagate_forces(model, poses, net, tip),
                             propagate_forces_per_link(model, q, net, tip)):
            _assert_close(got, want)


def test_operator_sweeps_as_the_controller_calls_them(model):
    # the sweep test above differentiates the actual set and passes a random
    # tip wrench; the controller differentiates the required set (with the
    # measured rates in the transform rate) and passes a zero tip wrench
    for rng, q, poses, qd, qd_r, qdd in _chain_states(model, 74):
        vrt = propagate_velocities_per_link(model, q, qd, qd_r)[3]
        _assert_close(propagate_accelerations(model, poses, qd, qdd, vrt),
                      propagate_accelerations_per_link(model, q, qd, qdd, vrt)[0])
        net = rng.standard_normal((model.n, 6))
        for got, want in zip(propagate_forces(model, poses, net, np.zeros(6)),
                             propagate_forces_per_link(model, q, net, np.zeros(6))):
            _assert_close(got, want)


def test_chain_operator_blocks(model):
    # identity on the diagonal exactly, zero above it, and the neighbour
    # blocks are the joint map after the previous link's tip map
    rng = np.random.default_rng(75)
    n = model.n
    for _ in range(STATES):
        poses = chain_poses(model, rng.uniform(-np.pi, np.pi, n))
        X = poses.X.reshape(n, 6, n, 6)
        for i in range(n):
            assert np.array_equal(X[i, :, i], np.eye(6))
            assert not np.any(X[i, :, i + 1:])
            if i:
                joint = np.kron(np.eye(2), poses.Rj[i].T)
                _assert_close(X[i, :, i - 1], joint @ model.tip_velocity[i - 1])


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def test_batched_rotations_equal_axis_rotation_bit_for_bit(arm7):
    # arm7 has joints about x, y and z; the batch must be the very rotation
    # axis_rotation builds, signed zeros included
    axes = [j.axis for j in arm7.joints]
    assert set(axes) == {"x", "y", "z"}
    rng = np.random.default_rng(76)
    special = [0.0, -0.0, np.pi, -np.pi]
    draws = [rng.uniform(-4.0, 4.0, arm7.n) for _ in range(STATES)]
    draws += [np.full(arm7.n, angle) for angle in special]
    draws += [rng.choice(special, arm7.n) for _ in range(20)]
    for q in draws:
        batch = arm7.joint_rotations(q)
        for i, axis in enumerate(axes):
            assert _bits(batch[i]) == _bits(axis_rotation(axis, q[i]))


def test_regressor_and_body_wrenches_match_per_body_forms(model):
    mass = np.array([mass_matrix(j.link) for j in model.joints])
    for _, q, poses, qd, _, qdd in _chain_states(model, 71):
        vb, vt, _, _ = propagate_velocities_per_link(model, q, qd, qd)
        ab, _ = propagate_accelerations_per_link(model, q, qd, qdd, vt)
        R_AI = np.swapaxes(poses.Rb, 1, 2)
        _assert_close(regressor(ab, vb, R_AI, model.gravity),
                      [regressor_per_body(ab[i], vb[i], R_AI[i], model.gravity)
                       for i in range(model.n)])
        _assert_close(body_wrenches(mass, ab, vb, R_AI, model.gravity),
                      [net_wrench(assemble_matrices(j.link, vb[i, 3:], R_AI[i], model.gravity),
                                  ab[i], vb[i]) for i, j in enumerate(model.joints)])


@pytest.mark.parametrize("method", ["geometric", "euler"])
def test_nal_step_matches_per_link_step(model, method):
    rng = np.random.default_rng(72)
    dt, gamma = 1e-3, 10.0
    for _ in range(STATES):
        phi = [random_consistent_params(rng).as_vector() for _ in range(model.n)]
        adapter = NalLinkAdapter(phi, phi, gamma, method)
        L = adapter.L
        s = 10.0 * rng.standard_normal((model.n, 10))
        adapter.update(s, dt)
        _assert_close(adapter.L, [nal_step_per_link(L[i], s[i], gamma, dt, method)
                                  for i in range(model.n)])


def test_carried_decomposition_stays_the_estimate(model):
    # after every update the carried (w, Q) reproduces L, and min_eig() is
    # the smallest eigenvalue an independent eigvalsh finds
    rng = np.random.default_rng(73)
    phi0 = np.array([random_consistent_params(rng).as_vector() for _ in range(model.n)])
    adapter = NalLinkAdapter(phi0, phi0, gamma=10.0)
    for k in range(STATES):
        adapter.update((10.0 if k % 2 == 0 else -10.0) * rng.standard_normal((model.n, 10)),
                       1e-3)
        scale = np.max(np.abs(adapter.L), axis=(1, 2))[:, None, None]
        rebuilt = (adapter.Q * adapter.w[:, None, :]) @ np.swapaxes(adapter.Q, 1, 2)
        assert np.all(np.abs(rebuilt - adapter.L) <= 1e-14 * scale)
        independent = np.linalg.eigvalsh(adapter.L)[:, 0]
        assert np.all(np.abs(adapter.min_eig() - independent) <= 1e-14 * scale[:, 0, 0])


def _moved(model, rng) -> RobotModel:
    """``model`` on a random base pose under a random gravity vector."""
    return RobotModel(model.name, model.joints, random_transform(rng),
                      rng.uniform(-10.0, 10.0, 3))


def test_regressor_map_matches_per_body_regressor(model):
    # random base rotations and gravity reach the map through R_AI g
    rng = np.random.default_rng(77)
    for _ in range(STATES):
        moved = _moved(model, rng)
        q = rng.uniform(-np.pi, np.pi, model.n)
        qd, qdd = rng.standard_normal((2, model.n))
        poses = chain_poses(moved, q)
        vb, vt, _, _ = propagate_velocities(moved, poses, qd, qd)
        ab = propagate_accelerations(moved, poses, qd, qdd, vt)
        R_AI = np.swapaxes(poses.Rb, 1, 2)
        _assert_close(regressor(ab, vb, R_AI, moved.gravity),
                      [regressor_per_body(ab[i], vb[i], R_AI[i], moved.gravity)
                       for i in range(model.n)])
    # one body: random accelerations, velocities and rotations, not from a chain
    for _ in range(STATES):
        a, V = 5.0 * rng.standard_normal((2, 6))
        R, g = random_rotation(rng), rng.uniform(-10.0, 10.0, 3)
        _assert_close(regressor(a, V, R, g), regressor_per_body(a, V, R, g))


def test_jacobian_matches_cross_product_form(model):
    rng = np.random.default_rng(78)
    for _ in range(STATES):
        moved = _moved(model, rng)
        poses = chain_poses(moved, rng.uniform(-np.pi, np.pi, model.n))
        _assert_close(jacobian(moved, poses), jacobian_cross_product(moved, poses))


def test_scanned_rotations_match_sequential_product(model):
    rng = np.random.default_rng(79)
    for _ in range(STATES):
        moved = _moved(model, rng)
        q = rng.uniform(-np.pi, np.pi, model.n)
        poses = chain_poses(moved, q)
        Rt = tip_rotations_sequential(moved, q)
        _assert_close(poses.Rt, Rt)
        _assert_close(poses.Rb, np.concatenate((moved.base.R[None], Rt[:-1])) @ poses.Rj)


def test_phi_hat_matches_entrywise_unpack(model):
    # also for estimates the law has moved, so L is not an exact image of a
    # parameter vector.  The map copies m, h and the products of inertia and
    # rounds each diagonal inertia entry once, I_xx = fl(L_11 + L_22); the
    # unpack forms tr - L_00 and so rounds at the trace's scale, up to 2 ulps
    rng = np.random.default_rng(80)
    for k in range(STATES):
        phi = [random_consistent_params(rng).as_vector() for _ in range(model.n)]
        adapter = NalLinkAdapter(phi, phi, gamma=10.0)
        if k % 2:
            adapter.update(10.0 * rng.standard_normal((model.n, 10)), 1e-3)
        L = adapter.L
        got = adapter.phi_hat()
        want = np.array([pseudo_to_vectors_unpack(Li) for Li in L])
        assert got.shape == (model.n, 10)
        diagonal = [4, 5, 6]
        others = [0, 1, 2, 3, 7, 8, 9]
        assert np.array_equal(got[:, others], want[:, others])
        others_sum = L[:, [1, 0, 0], [1, 0, 0]] + L[:, [2, 2, 1], [2, 2, 1]]
        assert np.array_equal(got[:, diagonal], others_sum)
        trace = np.trace(L[:, :3, :3], axis1=1, axis2=2)
        assert np.all(np.abs(got[:, diagonal] - want[:, diagonal])
                      <= 2.0 * np.spacing(trace)[:, None])
