"""Weighted sequence-space norms on spectral truncations.

The ambient spaces of the diagonal framework are weighted little-ell
spaces: a weight sequence ``w`` and an exponent ``q`` define
``|x| = (sum_j (w_j |x_j|)^q)^(1/q)``.  On a finite truncation every such
norm is exactly computable, which is what all the regularity and
operator-norm diagnostics rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpaceSpec:
    """A weighted l^q space restricted to a finite mode set.

    ``weights`` holds one positive, finite weight per retained mode and
    ``exponent_q`` is finite and at least 1; anything else is a ValueError.
    """

    exponent_q: float
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not np.all((w > 0) & (w < np.inf)):
            raise ValueError("weights must be positive and finite")
        if not 1 <= self.exponent_q < np.inf:
            raise ValueError(f"exponent_q must be finite and >= 1, not {self.exponent_q}")
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.size

    def prefix(self, n: int) -> "SpaceSpec":
        """The same space on the first n modes."""
        if not 1 <= n <= self.dim:
            raise ValueError(f"a prefix must keep 1..{self.dim} modes, not {n}")
        return SpaceSpec(self.exponent_q, self.weights[:n])

    def norm(self, x: np.ndarray) -> float:
        """Weighted l^q norm of a coefficient vector (or batch, last axis = modes)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} coefficients, got {x.shape[-1]}")
        wx = np.abs(x) * self.weights
        return (wx ** self.exponent_q).sum(axis=-1) ** (1.0 / self.exponent_q)
