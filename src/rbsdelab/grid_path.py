"""Uniform time grids.

The tree's levels are the points t_i = i * dt of a :class:`TimeGrid`; the
regulated processes on it carry their right and left jumps themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TimeGrid"]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with ``steps`` intervals covering [0, horizon].

    Parameters
    ----------
    horizon : float
        Terminal time T, strictly positive.
    steps : int
        Number of intervals N, at least one.
    """

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if int(self.steps) != self.steps or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps}")
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def times(self) -> np.ndarray:
        """Grid points t_0 .. t_N as an array of length N + 1."""
        return np.arange(self.steps + 1) * self.dt
