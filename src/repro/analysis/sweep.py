"""Parameter ranges: linear and geometric (log-axis) sample points.

The CLI's ``figure3`` command and the Figure 3 benchmark sample the
``f_max`` axis with :func:`geometric_range`.
"""

from __future__ import annotations

from typing import List


def geometric_range(start: float, stop: float, points: int) -> List[float]:
    """``points`` geometrically spaced values from ``start`` to ``stop``
    inclusive (log-axis sampling for the Figure 3 style curves)."""
    if points < 2:
        raise ValueError(f"need at least 2 points, got {points}")
    if start <= 0 or stop <= 0:
        raise ValueError("geometric ranges need positive endpoints")
    ratio = (stop / start) ** (1.0 / (points - 1))
    return [start * ratio ** index for index in range(points)]


def linear_range(start: float, stop: float, points: int) -> List[float]:
    """``points`` linearly spaced values from ``start`` to ``stop``."""
    if points < 2:
        raise ValueError(f"need at least 2 points, got {points}")
    step = (stop - start) / (points - 1)
    return [start + step * index for index in range(points)]
