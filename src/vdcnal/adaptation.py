"""Parameter adaptation laws.

Two laws share the same per-body signal s = W' (V_r - V):

* the natural law updates the pseudo-inertia estimate along the SPD manifold,
      dL/dt = (1/gamma) L S L,
  where S is the unique symmetric dual of s under the pairing
  phi' s == tr(L(phi) S).  One scalar gamma tunes all ten channels, and the
  update cannot leave the consistent set: the default integrator is the
  congruence step L+ = L^1/2 expm((dt/gamma) L^1/2 S L^1/2) L^1/2, exact on
  the manifold and equal to the Euler step to O(dt^2);
* a per-channel projection baseline, d(theta_i)/dt = rho_i s_i inside a box,
  frozen at a bound whenever the update points outside.  It needs one gain
  and two bounds per channel, which is what the tuning-burden report counts.

The scalar variants of the natural law (for the joint drive inertias, a
one-parameter body) reduce to l+ = l exp(dt s l / gamma).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifold import params_to_pseudo, pseudo_to_params
from .rigid_body import InertialParams, inertia_to_vector


def pseudo_basis() -> list[np.ndarray]:
    """Images of the ten unit parameter vectors under the pseudo-inertia map."""
    basis = []
    for k in range(10):
        e = np.zeros(10)
        e[k] = 1.0
        basis.append(params_to_pseudo(e))
    return basis


def _sym_basis() -> list[np.ndarray]:
    mats = []
    for i in range(4):
        E = np.zeros((4, 4))
        E[i, i] = 1.0
        mats.append(E)
    for i in range(4):
        for j in range(i + 1, 4):
            E = np.zeros((4, 4))
            E[i, j] = E[j, i] = 1.0
            mats.append(E)
    return mats


_PSEUDO_BASIS = pseudo_basis()
_SYM_BASIS = _sym_basis()
# constant 10x10 system: row k is tr(f(e_k) B_j) over the symmetric basis
_DUAL_SYSTEM = np.array([[np.trace(E @ B) for B in _SYM_BASIS] for E in _PSEUDO_BASIS])
_DUAL_SYSTEM_INV = np.linalg.inv(_DUAL_SYSTEM)


def solve_dual(s) -> np.ndarray:
    """Symmetric S with tr(L(phi) S) == phi . s for every parameter vector phi.

    The pseudo-inertia map is a linear bijection between R^10 and symmetric
    4x4 matrices, so S exists and is unique; the constant system above is
    factored once at import.
    """
    s = np.asarray(s, dtype=float).reshape(10)
    coeff = _DUAL_SYSTEM_INV @ s
    S = np.zeros((4, 4))
    for c, B in zip(coeff, _SYM_BASIS):
        S += c * B
    return S


def _sym_sqrt(L) -> np.ndarray:
    w, Q = np.linalg.eigh(L)
    if w[0] <= 0.0:
        raise ValueError("pseudo-inertia lost positive definiteness")
    return Q @ np.diag(np.sqrt(w)) @ Q.T


def _sym_exp(A) -> np.ndarray:
    w, Q = np.linalg.eigh(A)
    return Q @ np.diag(np.exp(w)) @ Q.T


@dataclass(frozen=True)
class NalState:
    """Pseudo-inertia estimate plus the single adaptation gain."""

    L: np.ndarray
    gamma: float

    def __post_init__(self):
        L = np.array(self.L, dtype=float)
        if L.shape != (4, 4) or np.max(np.abs(L - L.T)) > 1e-9 * (1.0 + np.max(np.abs(L))):
            raise ValueError("NalState.L must be symmetric 4x4")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        L = 0.5 * (L + L.T)
        L.setflags(write=False)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "gamma", float(self.gamma))

    @classmethod
    def from_params(cls, phi: InertialParams, gamma: float) -> "NalState":
        return cls(params_to_pseudo(phi), gamma)

    def params(self) -> InertialParams:
        return pseudo_to_params(self.L)

    def min_eig(self) -> float:
        return float(np.linalg.eigvalsh(self.L)[0])


def nal_step(state: NalState, s, dt: float, method: str = "geometric") -> NalState:
    """Advance the estimate by one sample of the natural law.

    ``geometric`` (default) is the congruence/exponential step, which keeps
    L positive definite for any dt and s; ``euler`` is the plain first-order
    step, retained as a cross-check.
    """
    S = solve_dual(s)
    L = state.L
    if method == "geometric":
        H = _sym_sqrt(L)
        A = (dt / state.gamma) * (H @ S @ H)
        E = _sym_exp(0.5 * (A + A.T))
        L_new = H @ E @ H
    elif method == "euler":
        L_new = L + (dt / state.gamma) * (L @ S @ L)
    else:
        raise ValueError(f"unknown method {method!r}")
    return NalState(0.5 * (L_new + L_new.T), state.gamma)


def nal_step_scalar(l: float, s: float, gamma: float, dt: float) -> float:
    """One-parameter natural law: l+ = l exp(dt s l / gamma); l stays positive."""
    if l <= 0.0:
        raise ValueError("scalar pseudo-inertia must be positive")
    return float(l * np.exp(dt * s * l / gamma))


@dataclass(frozen=True)
class ProjectionState:
    """Per-channel estimate with box bounds and per-channel rates."""

    theta: np.ndarray
    rho: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        for name in ("theta", "rho", "lower", "upper"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        n = self.theta.shape[0]
        for name in ("rho", "lower", "upper"):
            if getattr(self, name).shape != (n,):
                raise ValueError("projection state arrays must share one length")
        if np.any(~np.isfinite(self.lower)) or np.any(~np.isfinite(self.upper)):
            raise ValueError("projection bounds must be finite")
        if np.any(self.lower >= self.upper):
            raise ValueError("projection bounds must satisfy lower < upper")
        if np.any(self.rho <= 0.0):
            raise ValueError("projection rates must be positive")


def projection_step(state: ProjectionState, s, dt: float) -> ProjectionState:
    """Euler step of the projected gradient law; bounds freeze outward updates."""
    s = np.asarray(s, dtype=float).reshape(state.theta.shape)
    kappa = np.ones_like(state.theta)
    kappa[(state.theta <= state.lower) & (s <= 0.0)] = 0.0
    kappa[(state.theta >= state.upper) & (s >= 0.0)] = 0.0
    theta = np.clip(state.theta + dt * state.rho * s * kappa, state.lower, state.upper)
    return ProjectionState(theta, state.rho, state.lower, state.upper)


def initial_link_estimate(phi: InertialParams, scale: float = 0.5) -> InertialParams:
    """Default initial guess: scaled mass/first moment, diagonalized inertia.

    A uniform scaling of a consistent body stays consistent, and dropping the
    (small) products of inertia of the shipped models keeps it that way; the
    config loader re-validates the result.
    """
    return InertialParams(scale * phi.mass, scale * phi.first_moment,
                          np.diag(np.diag(scale * phi.inertia)))


# --- per-body adapter objects used by the controller -------------------------
#
# Each link adapter exposes phi_hat() -> 10-array and update(W, dv, dt); each
# joint adapter exposes i_hat() -> float and update(w_a, dqd_err, dt).  The
# controller treats them uniformly, so runs can mix laws or freeze parameters.


class FrozenLinkAdapter:
    def __init__(self, phi: InertialParams):
        self._phi = phi.as_vector()
        self._L = params_to_pseudo(phi)
        self._min_eig = float(np.linalg.eigvalsh(self._L)[0])

    def phi_hat(self) -> np.ndarray:
        return self._phi

    def update(self, W, dv, dt):
        pass

    def min_eig(self) -> float:
        return self._min_eig

    def pseudo(self) -> np.ndarray:
        return self._L


class NalLinkAdapter:
    def __init__(self, phi0: InertialParams, gamma: float, method: str = "geometric"):
        self.state = NalState.from_params(phi0, gamma)
        self.method = method

    def phi_hat(self) -> np.ndarray:
        return self.state.params().as_vector()

    def update(self, W, dv, dt):
        s = W.T @ dv
        self.state = nal_step(self.state, s, dt, self.method)

    def min_eig(self) -> float:
        return self.state.min_eig()

    def pseudo(self) -> np.ndarray:
        return self.state.L


class ProjectionLinkAdapter:
    def __init__(self, state: ProjectionState):
        self.state = state

    @classmethod
    def around_truth(cls, phi: InertialParams, theta0, rho: float,
                     bound_scale: float = 1.0, bound_floor: float = 0.01):
        """Box of +-bound_scale*|phi_i| (at least the floor) around the truth."""
        truth = phi.as_vector()
        half = np.maximum(bound_scale * np.abs(truth), bound_floor)
        theta0 = np.asarray(theta0, dtype=float).reshape(10)
        theta0 = np.clip(theta0, truth - half, truth + half)
        return cls(ProjectionState(theta0, np.full(10, rho), truth - half, truth + half))

    def phi_hat(self) -> np.ndarray:
        return self.state.theta

    def update(self, W, dv, dt):
        s = W.T @ dv
        self.state = projection_step(self.state, s, dt)

    def min_eig(self) -> float:
        return float(np.linalg.eigvalsh(params_to_pseudo(self.state.theta))[0])

    def pseudo(self) -> np.ndarray:
        return params_to_pseudo(self.state.theta)


class FrozenJointAdapter:
    def __init__(self, i_m: float):
        self._i = float(i_m)

    def i_hat(self) -> float:
        return self._i

    def update(self, w_a, dqd_err, dt):
        pass


class NalJointAdapter:
    def __init__(self, i0: float, gamma_a: float):
        self.l = float(i0)
        self.gamma_a = float(gamma_a)

    def i_hat(self) -> float:
        return self.l

    def update(self, w_a, dqd_err, dt):
        s_a = w_a * dqd_err
        self.l = nal_step_scalar(self.l, s_a, self.gamma_a, dt)


class ProjectionJointAdapter:
    def __init__(self, i0: float, rho: float, lower: float, upper: float):
        self.state = ProjectionState(np.array([i0]), np.array([rho]),
                                     np.array([lower]), np.array([upper]))

    def i_hat(self) -> float:
        return float(self.state.theta[0])

    def update(self, w_a, dqd_err, dt):
        self.state = projection_step(self.state, np.array([w_a * dqd_err]), dt)
