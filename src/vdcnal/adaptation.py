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

from .manifold import bregman_divergence, params_to_pseudo, pseudo_to_params
from .rigid_body import InertialParams


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


# --- adapters: the per-law objects the controller and the monitor use --------
#
# Every adapter, for a link or for a joint drive, has one method set:
#
#   phi_hat()        the estimate as a parameter vector: 10 entries for a
#                    link, 1 (the drive inertia) for a drive;
#   update(s, dt)    one sample of the law, given its input signal: the
#                    controller forms s = W' (V_r - V) per link and
#                    s = qddot_r (qdot_r - qdot) per drive;
#   min_eig()        smallest eigenvalue of the estimate's pseudo-inertia
#                    (a drive's 1x1 pseudo-inertia is the estimate itself);
#   distance(truth)  the law's distance-to-truth term of the accompanying
#                    function, weighted by the law's own gain; ``truth`` has
#                    the shape phi_hat() has.
#
# So runs can mix laws or freeze parameters without the controller or the
# monitor knowing which law a body uses.


def _min_eig(phi) -> float:
    if phi.shape == (1,):
        return float(phi[0])
    return float(np.linalg.eigvalsh(params_to_pseudo(phi))[0])


class FrozenAdapter:
    """A constant estimate: the law with rate zero."""

    def __init__(self, phi):
        self._phi = np.asarray(phi, dtype=float)
        self._min_eig = _min_eig(self._phi)

    def phi_hat(self) -> np.ndarray:
        return self._phi

    def update(self, s, dt):
        pass

    def min_eig(self) -> float:
        return self._min_eig

    def distance(self, truth) -> float:
        # the projection term's limit as the rates go to zero; the monitor
        # passes the very array the estimate was built from, so `is` settles it
        if truth is self._phi or np.array_equal(truth, self._phi):
            return 0.0
        return np.inf


class ProjectionAdapter:
    """Per-channel projection law, for a link's ten channels or a drive's one."""

    def __init__(self, state: ProjectionState):
        self.state = state

    @classmethod
    def around_truth(cls, truth, theta0, rho: float, bound_scale: float = 1.0,
                     bound_floor: float = 0.01):
        """Box of +-bound_scale*|truth_i| (at least the floor) around the truth;
        ``theta0`` is clipped into it."""
        truth = np.asarray(truth, dtype=float)
        half = np.maximum(bound_scale * np.abs(truth), bound_floor)
        theta0 = np.clip(np.asarray(theta0, dtype=float).reshape(truth.shape),
                         truth - half, truth + half)
        return cls(ProjectionState(theta0, np.full(truth.shape, rho),
                                   truth - half, truth + half))

    def phi_hat(self) -> np.ndarray:
        return self.state.theta

    def update(self, s, dt):
        self.state = projection_step(self.state, s, dt)

    def min_eig(self) -> float:
        return _min_eig(self.state.theta)

    def distance(self, truth) -> float:
        err = self.state.theta - truth
        if err.shape == (1,):   # a drive: scalar pow, which rounds unlike the array square
            return 0.5 * float(err[0]) ** 2 / float(self.state.rho[0])
        return 0.5 * float(np.sum(err ** 2 / self.state.rho))


class NalLinkAdapter:
    """Natural law on a link's pseudo-inertia."""

    def __init__(self, phi0: InertialParams, gamma: float, method: str = "geometric"):
        self.state = NalState.from_params(phi0, gamma)
        self.method = method

    def phi_hat(self) -> np.ndarray:
        return self.state.params().as_vector()

    def update(self, s, dt):
        self.state = nal_step(self.state, s, dt, self.method)

    def min_eig(self) -> float:
        return self.state.min_eig()

    def distance(self, truth) -> float:
        """Log-det Bregman divergence of the estimate from the truth, over 2 gamma."""
        return bregman_divergence(params_to_pseudo(truth), self.state.L) / (2.0 * self.state.gamma)


class NalJointAdapter:
    """Natural law on a drive inertia: the 1x1 case of the congruence step,
    l+ = l exp(dt s l / gamma), in closed form."""

    def __init__(self, i0: float, gamma: float):
        self._l = np.array([float(i0)])
        self.gamma = float(gamma)

    def phi_hat(self) -> np.ndarray:
        return self._l

    def update(self, s, dt):
        self._l = np.array([nal_step_scalar(self._l[0], s, self.gamma, dt)])

    def min_eig(self) -> float:
        return float(self._l[0])

    def distance(self, truth) -> float:
        """The 1x1 Bregman divergence log(l/i) + i/l - 1, over 2 gamma."""
        l_hat, i_m = self._l[0], truth[0]
        return (np.log(l_hat / i_m) + i_m / l_hat - 1.0) / (2.0 * self.gamma)
