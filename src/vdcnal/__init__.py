"""Decentralized adaptive control on the positive-definite inertia manifold.

Per-body control of serial chains with required-velocity/required-force
sweeps, an adaptation law that moves the pseudo-inertia estimate along the
manifold of physically consistent parameters (so estimates can never leave
it), a classic per-channel projection law as the baseline, and a simulation
harness with an independent Newton-Euler plant.
"""

__version__ = "0.1.0"
