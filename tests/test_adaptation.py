"""Natural adaptation law, its dual solve, and the projection baseline."""
import numpy as np
import pytest

from conftest import divergence, random_consistent_params
from oracles import nal_step_per_link, projection_step_per_channel
from vdcnal.adaptation import (
    FrozenAdapter,
    NalJointAdapter,
    NalLinkAdapter,
    ProjectionAdapter,
    initial_link_estimate,
    pseudo_basis,
    solve_dual,
)
from vdcnal.manifold import is_consistent, params_to_pseudo, pseudo_to_vectors


def test_solve_dual_zero_and_basis_duality():
    assert np.allclose(solve_dual(np.zeros(10)), 0.0, atol=0.0)
    basis = pseudo_basis()
    for k in range(10):
        e = np.zeros(10)
        e[k] = 1.0
        S = solve_dual(e)
        assert np.allclose(S, S.T, atol=1e-14)
        for j, E in enumerate(basis):
            expected = 1.0 if j == k else 0.0
            assert np.trace(E @ S) == pytest.approx(expected, abs=1e-12)


def test_solve_dual_pairing():
    # <phi, s> must equal <pseudo(phi), solve_dual(s)> in the trace pairing
    rng = np.random.default_rng(30)
    for _ in range(1000):
        s = rng.standard_normal(10)
        phi = rng.standard_normal(10)
        lhs = float(phi @ s)
        rhs = float(np.trace(params_to_pseudo(phi) @ solve_dual(s)))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_solve_dual_linearity():
    rng = np.random.default_rng(31)
    for _ in range(200):
        a, b = rng.standard_normal(2)
        s1, s2 = rng.standard_normal(10), rng.standard_normal(10)
        lhs = solve_dual(a * s1 + b * s2)
        rhs = a * solve_dual(s1) + b * solve_dual(s2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(rhs)))


def test_nal_step_zero_signal_is_identity():
    rng = np.random.default_rng(32)
    phi = random_consistent_params(rng)
    for method in ("geometric", "euler"):
        adapter = NalLinkAdapter(phi, gamma=10.0, method=method)
        before = adapter.L
        adapter.update(np.zeros(10), 1e-3)
        assert np.max(np.abs(adapter.L - before)) <= 1e-12


def test_nal_step_scalar_embedding():
    # L = l I4 with S = sigma I4 stays a multiple of the identity and follows
    # the one-parameter law exactly
    basis = pseudo_basis()
    sigma = 0.7
    s = np.array([np.trace(E @ (sigma * np.eye(4))) for E in basis])
    l0, gamma, dt = 0.8, 10.0, 1e-3
    phi = pseudo_to_vectors(l0 * np.eye(4))

    euler = NalLinkAdapter(phi, gamma, "euler")
    euler.update(s, dt)
    expected_euler = l0 + (dt / gamma) * l0 ** 2 * sigma
    assert np.allclose(euler.L, expected_euler * np.eye(4), atol=1e-12)

    geo = NalLinkAdapter(phi, gamma, "geometric")
    geo.update(s, dt)
    scalar = NalJointAdapter([l0], gamma)
    scalar.update(np.array([[sigma]]), dt)
    assert np.allclose(geo.L, scalar.phi_hat()[0, 0] * np.eye(4), atol=1e-12)


def test_nal_geometric_and_euler_agree_to_first_order():
    rng = np.random.default_rng(33)
    phi = random_consistent_params(rng)
    s = rng.standard_normal(10)

    def gap(dt):
        g = NalLinkAdapter(phi, 10.0, "geometric")
        e = NalLinkAdapter(phi, 10.0, "euler")
        g.update(s, dt)
        e.update(s, dt)
        return np.max(np.abs(g.L - e.L))

    assert gap(1e-3) <= 1e-6
    # the disagreement is second order in dt
    assert gap(1e-3) / gap(5e-4) >= 3.0


def test_nal_step_preserves_positive_definiteness():
    # adversarial sign-alternating drive at unit-test length; the long-run
    # version is exercised by the acceptance suite
    rng = np.random.default_rng(34)
    adapter = NalLinkAdapter(random_consistent_params(rng), gamma=10.0)
    s = 10.0 * rng.standard_normal(10)
    for k in range(2000):
        adapter.update(s if k % 2 == 0 else -s, 1e-3)
        assert adapter.min_eig() > 0.0


def test_nal_flow_decrements_bregman_divergence():
    # d/dt D(L || L_hat) = (1/gamma) (phi_hat - phi)' s along the law.  The
    # finite-difference check needs well-conditioned states: evaluating D at
    # a near-singular estimate carries linear-solve roundoff larger than a
    # dt = 1e-6 decrement, so draws near the cone boundary are skipped, and
    # the signal always has a component along the parameter error so the
    # first-order term sits at its natural scale.
    rng = np.random.default_rng(35)
    dt, gamma = 1e-6, 10.0
    kept = 0
    while kept < 200:
        truth = random_consistent_params(rng)
        est = random_consistent_params(rng)
        L = params_to_pseudo(truth)
        Lh = params_to_pseudo(est)
        if (np.linalg.eigvalsh(L)[0] < 1e-2 * (1 + np.trace(L))
                or np.linalg.eigvalsh(Lh)[0] < 1e-2 * (1 + np.trace(Lh))):
            continue
        d0 = divergence(L, Lh)
        u = est.as_vector() - truth.as_vector()
        if d0 > 50.0 or np.linalg.norm(u) < 0.5:
            continue
        noise = rng.standard_normal(10)
        noise *= 0.3 * np.linalg.norm(u) / np.linalg.norm(noise)
        s = (u + noise) if kept % 2 == 0 else -(u + noise)
        adapter = NalLinkAdapter(est, gamma, "geometric")
        adapter.update(s, dt)
        d1 = divergence(L, adapter.L[0])
        predicted = (dt / gamma) * float(u @ s)
        assert abs((d1 - d0) - predicted) <= 1e-4 * abs(predicted)
        # signal aligned with the error grows D; anti-aligned shrinks it
        assert (d1 - d0 > 0.0) == (kept % 2 == 0)
        kept += 1


def _scalar_step(l0, s, gamma, dt):
    adapter = NalJointAdapter([l0], gamma)
    adapter.update(np.array([[s]]), dt)
    return adapter.phi_hat()[0, 0]


def test_nal_step_scalar_examples():
    l0, s, gamma, dt = 1.0, 1.0, 1.0, 1e-4
    assert _scalar_step(l0, s, gamma, dt) == pytest.approx(np.exp(1e-4), abs=1e-15)
    # a huge adverse signal shrinks the estimate but cannot cross zero
    assert _scalar_step(1.0, -50.0, 1.0, 1.0) > 0.0
    with pytest.raises(ValueError):
        _scalar_step(0.0, 1.0, 1.0, 1e-3)
    with pytest.raises(ValueError):
        _scalar_step(-1.0, 1.0, 1.0, 1e-3)


def test_nal_state_validation():
    identity = pseudo_to_vectors(np.eye(4))
    with pytest.raises(ValueError, match="gamma"):
        NalLinkAdapter(identity, 0.0)
    with pytest.raises(ValueError, match="method"):
        NalLinkAdapter(identity, 1.0, "heun")
    # the geometric step needs L^1/2 of every estimate of the stack
    indefinite = NalLinkAdapter(
        pseudo_to_vectors(np.stack((np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0])))), 1.0)
    with pytest.raises(ValueError, match="lost positive definiteness"):
        indefinite.update(np.zeros((2, 10)), 1e-3)


def test_projection_interior_step_is_plain_euler():
    theta = np.zeros(10)
    rho = np.full(10, 2.0)
    adapter = ProjectionAdapter(theta, rho, -np.ones(10), np.ones(10))
    s = np.linspace(-0.4, 0.4, 10)
    adapter.update(s, 1e-3)
    assert np.max(np.abs(adapter.theta - (theta + 1e-3 * rho * s))) <= 1e-14


def test_projection_freezes_outward_updates_at_bounds():
    upper = np.ones(10)
    pushed = ProjectionAdapter(upper.copy(), np.ones(10), -np.ones(10), upper)
    pushed.update(np.full(10, 5.0), 1.0)
    assert np.array_equal(pushed.theta, upper)
    # inward updates stay live at the bound
    pulled = ProjectionAdapter(upper.copy(), np.ones(10), -np.ones(10), upper)
    pulled.update(np.full(10, -1.0), 1e-2)
    assert np.all(pulled.theta < upper)


def test_projection_never_leaves_bounds():
    rng = np.random.default_rng(36)
    lower, upper = -np.ones(10), np.ones(10)
    adapter = ProjectionAdapter(np.zeros(10), np.full(10, 10.0), lower, upper)
    for _ in range(500):
        adapter.update(100.0 * rng.standard_normal(10), 1e-2)
        assert np.all(adapter.theta >= lower) and np.all(adapter.theta <= upper)


def test_projection_state_validation():
    with pytest.raises(ValueError, match="lower < upper"):
        ProjectionAdapter(np.zeros(10), np.ones(10), np.ones(10), -np.ones(10))
    with pytest.raises(ValueError, match="positive"):
        ProjectionAdapter(np.zeros(10), np.zeros(10), -np.ones(10), np.ones(10))
    with pytest.raises(ValueError, match="finite"):
        ProjectionAdapter(np.zeros(10), np.ones(10),
                          np.full(10, -np.inf), np.ones(10))
    with pytest.raises(ValueError, match="finite"):
        ProjectionAdapter(np.full(10, np.nan), np.ones(10), -np.ones(10), np.ones(10))
    with pytest.raises(ValueError, match="length"):
        ProjectionAdapter(np.zeros(10), np.ones(9), -np.ones(10), np.ones(10))


def test_initial_link_estimate_is_consistent_for_shipped_models(rrr3, arm7):
    for model in (rrr3, arm7):
        for joint in model.joints:
            guess = initial_link_estimate(joint.link, 0.5)
            assert is_consistent(guess)
            assert guess.mass == pytest.approx(0.5 * joint.link.mass)


def test_link_adapters_match_references():
    rng = np.random.default_rng(37)
    phi0 = random_consistent_params(rng)
    W = rng.standard_normal((6, 10))
    dv = rng.standard_normal(6)
    dt = 1e-3
    s = W.T @ dv

    nal = NalLinkAdapter(phi0, gamma=10.0)
    by_hand = nal_step_per_link(nal.L[0], s, 10.0, dt, "geometric")
    nal.update(s[None], dt)
    assert np.allclose(nal.L[0], by_hand, atol=1e-14)
    assert np.all(nal.min_eig() > 0.0)

    frozen = FrozenAdapter(phi0.as_vector()[None])
    before = frozen.phi_hat().copy()
    frozen.update(s[None], dt)
    assert np.array_equal(frozen.phi_hat(), before)

    truth = phi0.as_vector()[None]
    proj = ProjectionAdapter.around_truth(truth, 0.5 * truth, rho=10.0)
    assert np.all(proj.lower <= truth)
    assert np.all(truth <= proj.upper)
    by_hand_p = projection_step_per_channel(proj.theta, proj.rho, proj.lower, proj.upper,
                                            s[None], dt)
    proj.update(s[None], dt)
    assert np.allclose(proj.phi_hat(), by_hand_p, atol=0.0)


def test_joint_adapters_match_references():
    dt, w_a, err = 1e-3, 2.0, 0.3

    signal = np.array([[w_a * err]])

    nal = NalJointAdapter([0.05], gamma=10.0)
    expected = 0.05 * np.exp(dt * (w_a * err) * 0.05 / 10.0)   # l exp(dt s l / gamma)
    nal.update(signal, dt)
    assert nal.phi_hat()[0, 0] == pytest.approx(expected, abs=0.0)

    frozen = FrozenAdapter([[0.02]])
    frozen.update(signal, dt)
    assert frozen.phi_hat()[0, 0] == 0.02

    proj = ProjectionAdapter([[0.05]], [[10.0]], [[0.01]], [[0.1]])
    proj.update(signal, dt)
    assert proj.phi_hat()[0, 0] == pytest.approx(0.05 + dt * 10.0 * w_a * err, abs=1e-15)
    for _ in range(100):
        proj.update(signal, dt)
    assert proj.phi_hat()[0, 0] <= 0.1


@pytest.mark.parametrize("body", ["link", "drive"])
@pytest.mark.parametrize("law", ["frozen", "nal", "projection"])
def test_adapter_protocol(law, body):
    # one method set for every law and body, over a stack of three bodies:
    # update(S, dt) agrees with an independent form of the law (the per-link
    # natural-law step to 1e-12 (1 + |b|), the closed form l exp(dt s l / gamma)
    # and the per-channel projection step bit for bit), and distance(truth)
    # vanishes at the truth
    rng = np.random.default_rng(38)
    dt, gamma = 1e-3, 10.0
    if body == "link":
        truth = np.array([random_consistent_params(rng).as_vector() for _ in range(3)])
        S = rng.standard_normal((3, 10))
    else:
        truth, S = np.array([[0.05], [0.02], [0.1]]), np.array([[0.7], [-0.3], [1.1]])
    tol = 0.0
    if law == "frozen":
        adapter, expected = FrozenAdapter(truth), truth
    elif law == "nal" and body == "link":
        adapter = NalLinkAdapter(truth, gamma)
        expected = pseudo_to_vectors(np.array([nal_step_per_link(L, s, gamma, dt)
                                               for L, s in zip(adapter.L, S)]))
        tol = 1e-12
    elif law == "nal":
        adapter = NalJointAdapter(truth, gamma)
        expected = truth * np.exp(dt * S * truth / gamma)
    else:
        adapter = ProjectionAdapter(truth, np.full(truth.shape, 10.0), truth - 1.0, truth + 1.0)
        expected = projection_step_per_channel(adapter.theta, adapter.rho, adapter.lower,
                                               adapter.upper, S, dt)

    assert adapter.phi_hat().shape == truth.shape
    assert adapter.distance(truth) == pytest.approx(np.zeros(3), abs=1e-12)
    assert np.all(adapter.distance(1.1 * truth) > 0.0)
    assert adapter.min_eig().shape == (3,)
    assert np.all(adapter.min_eig() > 0.0)
    adapter.update(S, dt)
    assert np.all(np.abs(adapter.phi_hat() - expected) <= tol * (1.0 + np.abs(expected)))
    assert adapter.distance(adapter.phi_hat()) == pytest.approx(np.zeros(3), abs=1e-12)
