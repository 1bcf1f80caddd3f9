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

Each law is one adapter class that holds its state for a whole chain and
whose ``update`` is the law's step: ``NalLinkAdapter`` (the estimates L, their
eigendecomposition and gamma), ``NalJointAdapter`` (the scalar law),
``ProjectionAdapter`` (estimates, rates and box, checked once at
construction) and ``FrozenAdapter`` (rate zero).
"""
from __future__ import annotations

import numpy as np

from .manifold import bregman_divergence, params_to_pseudo, pseudo_to_vectors, spd_log_det
from .rigid_body import InertialParams


def pseudo_basis() -> list[np.ndarray]:
    """Images of the ten unit parameter vectors under the pseudo-inertia map."""
    return list(params_to_pseudo(np.eye(10)))


# the pseudo-inertia map as a 16x10 matrix P, vec(L(phi)) = P phi, and the dual
# solve as one constant map: vec(S) = _DUAL_MAP s lies in the range of P (so S
# is symmetric) and satisfies P' vec(S) = s, that is tr(L(phi) S) = phi . s
_PSEUDO_MAP = np.reshape(pseudo_basis(), (10, 16)).T
_DUAL_MAP = _PSEUDO_MAP @ np.linalg.inv(_PSEUDO_MAP.T @ _PSEUDO_MAP)


def solve_dual(s) -> np.ndarray:
    """Symmetric S with tr(L(phi) S) == phi . s for every parameter vector phi.

    The pseudo-inertia map is a linear bijection between R^10 and symmetric
    4x4 matrices, so S exists and is unique; the constant map above is built
    once at import.  A (..., 10) stack of signals gives (..., 4, 4).
    """
    s = np.asarray(s, dtype=float)
    return (s @ _DUAL_MAP.T).reshape(s.shape[:-1] + (4, 4))


def _congruence(Q, d) -> np.ndarray:
    """Q diag(d) Q' over stacks."""
    return (Q * d[..., None, :]) @ np.swapaxes(Q, -1, -2)


def initial_link_estimate(phi: InertialParams, scale: float = 0.5) -> InertialParams:
    """Default initial guess: scaled mass/first moment, diagonalized inertia.

    A uniform scaling of a consistent body stays consistent, and dropping the
    (small) products of inertia of the shipped models keeps it that way; the
    config loader re-validates the result.
    """
    return InertialParams(scale * phi.mass, scale * phi.first_moment,
                          np.diag(np.diag(scale * phi.inertia)))


# --- adapters: one class per law, run for a whole chain ---------------------
#
# One adapter object carries one law's state for the n links, or the n joint
# drives, and advances it in place.  It takes the true parameters, shaped as
# its estimates, once at construction, for the accompanying function.  Every
# adapter has one method set, over stacks with one row per body:
#
#   phi_hat()        the estimates as parameter vectors: (n, 10) for links,
#                    (n, 1) (the drive inertias) for drives;
#   update(S, dt)    one sample of the law, given its input signals, shaped
#                    as phi_hat(): the controller forms S = W' (V_r - V) per
#                    link and S = qddot_r (qdot_r - qdot) per drive;
#   min_eig()        (n,) smallest eigenvalue of each estimate's
#                    pseudo-inertia (a drive's 1x1 pseudo-inertia is the
#                    estimate itself);
#   distance()       (n,) the law's distance-to-truth terms of the
#                    accompanying function, weighted by the law's own gain.
#
# So runs can mix laws or freeze parameters without the controller or the
# monitor knowing which law a body uses.  ``update`` rebinds the state to new
# arrays, so an array phi_hat() returned earlier keeps its values.


def _min_eig(phi) -> np.ndarray:
    pseudo = params_to_pseudo(phi) if phi.shape[1] == 10 else phi[:, :, None]
    return np.linalg.eigvalsh(pseudo)[:, 0]


class FrozenAdapter:
    """Constant estimates: the law with rate zero."""

    def __init__(self, phi, truth):
        self._phi = np.array(phi, dtype=float)
        self._min_eig = _min_eig(self._phi)
        # the projection term's limit as the rates go to zero
        self._distance = np.where((self._phi == truth).all(axis=1), 0.0, np.inf)

    def phi_hat(self) -> np.ndarray:
        return self._phi

    def update(self, S, dt):
        pass

    def min_eig(self) -> np.ndarray:
        return self._min_eig

    def distance(self) -> np.ndarray:
        return self._distance


class ProjectionAdapter:
    """Per-channel projection law on the links' ten channels or the drives' one:
    estimates ``theta``, the ``truth``, rates ``rho`` and the box [``lower``,
    ``upper``], all of one shape, and checked once, here."""

    def __init__(self, theta, truth, rho, lower, upper):
        self.theta, self.truth, self.rho, self.lower, self.upper = (
            np.array(a, dtype=float) for a in (theta, truth, rho, lower, upper))
        if any(a.shape != self.theta.shape
               for a in (self.truth, self.rho, self.lower, self.upper)):
            raise ValueError("projection arrays must share one length")
        if not np.all(np.isfinite((self.theta, self.truth, self.rho, self.lower, self.upper))):
            raise ValueError("projection estimates, rates and bounds must be finite")
        if np.any(self.lower >= self.upper):
            raise ValueError("projection bounds must satisfy lower < upper")
        if np.any(self.rho <= 0.0):
            raise ValueError("projection rates must be positive")

    @classmethod
    def around_truth(cls, truth, theta0, rho: float, bound_scale: float = 1.0,
                     bound_floor: float = 0.01):
        """Box of +-bound_scale*|truth_i| (at least the floor) around the truth;
        ``theta0`` is clipped into it."""
        truth = np.asarray(truth, dtype=float)
        half = np.maximum(bound_scale * np.abs(truth), bound_floor)
        theta0 = np.clip(np.asarray(theta0, dtype=float).reshape(truth.shape),
                         truth - half, truth + half)
        return cls(theta0, truth, np.full(truth.shape, rho), truth - half, truth + half)

    def phi_hat(self) -> np.ndarray:
        return self.theta

    def update(self, S, dt):
        """Euler step of the projected gradient law.  The clip is the law's
        freeze: a channel at a bound whose update points outside stays there."""
        s = np.asarray(S, dtype=float).reshape(self.theta.shape)
        self.theta = np.clip(self.theta + dt * self.rho * s, self.lower, self.upper)

    def min_eig(self) -> np.ndarray:
        return _min_eig(self.theta)

    def distance(self) -> np.ndarray:
        return 0.5 * np.sum((self.theta - self.truth) ** 2 / self.rho, axis=1)


class NalLinkAdapter:
    """Natural law on the links' pseudo-inertias: the (n, 4, 4) estimates ``L``,
    their eigendecomposition L = Q diag(w) Q' (``w`` ascending) and the one gain
    ``gamma``; the true pseudo-inertias with their log determinants.  ``method``
    is ``geometric`` (the congruence step, default) or ``euler``."""

    def __init__(self, phi0, truth, gamma: float, method: str = "geometric"):
        if not gamma > 0.0:
            raise ValueError("gamma must be positive")
        if method not in ("geometric", "euler"):
            raise ValueError(f"unknown method {method!r}")
        self.gamma = float(gamma)
        self.method = method
        L = params_to_pseudo(truth)
        self._truth = (L, spd_log_det(L, "true pseudo-inertia"))
        self._decompose(params_to_pseudo(phi0).reshape(-1, 4, 4))

    def _decompose(self, L):
        """Carry L and its eigendecomposition.  An estimate outside the cone (no
        L^1/2, no log|L|) raises ``LinAlgError``, which a run reports as a divergence."""
        self.L = L
        self.w, self.Q = np.linalg.eigh(L)
        if not (self.w[:, 0] > 0.0).all():
            raise np.linalg.LinAlgError("link estimate left the positive-definite cone")

    def phi_hat(self) -> np.ndarray:
        return pseudo_to_vectors(self.L)

    def update(self, S, dt):
        """One sample of the law for every link.  The geometric step keeps L
        positive definite for any dt and S in exact arithmetic and forms L^1/2
        from the carried decomposition; the Euler step is the plain first-order
        one, kept as a cross-check.  Either way the new L is decomposed once,
        for the next step and for ``min_eig`` and ``distance``."""
        S = solve_dual(S)
        if self.method == "geometric":
            H = _congruence(self.Q, np.sqrt(self.w))
            A = (dt / self.gamma) * (H @ S @ H)
            e, V = np.linalg.eigh(0.5 * (A + np.swapaxes(A, 1, 2)))
            L = H @ _congruence(V, np.exp(e)) @ H
        else:
            L = self.L + (dt / self.gamma) * (self.L @ S @ self.L)
        self._decompose(0.5 * (L + np.swapaxes(L, 1, 2)))

    def min_eig(self) -> np.ndarray:
        return self.w[:, 0]

    def distance(self) -> np.ndarray:
        """Log-det Bregman divergences of the estimates from the truth, over 2 gamma."""
        return bregman_divergence(*self._truth, self.w, self.Q) / (2.0 * self.gamma)


class NalJointAdapter:
    """Natural law on the drive inertias: the 1x1 case of the congruence step,
    l+ = l exp(dt s l / gamma), in closed form."""

    def __init__(self, i0, truth, gamma: float):
        self._l = np.array(i0, dtype=float).reshape(-1, 1)
        self._truth = np.array(truth, dtype=float).reshape(-1, 1)
        self.gamma = float(gamma)

    def phi_hat(self) -> np.ndarray:
        return self._l

    def update(self, S, dt):
        if (self._l <= 0.0).any():
            raise ValueError("scalar pseudo-inertia must be positive")
        self._l = self._l * np.exp(dt * S * self._l / self.gamma)

    def min_eig(self) -> np.ndarray:
        return self._l[:, 0]

    def distance(self) -> np.ndarray:
        """The 1x1 Bregman divergences log(l/i) + i/l - 1, over 2 gamma."""
        l_hat = self._l[:, 0]
        i_m = self._truth[:, 0]
        return (np.log(l_hat / i_m) + i_m / l_hat - 1.0) / (2.0 * self.gamma)
