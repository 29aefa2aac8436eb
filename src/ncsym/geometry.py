"""Simple sets: finite unions of equal-radius open discs in the plane.

Owns the disc geometry that both the functional calculus and the domain
predicates use: separation, t-isolation, subordination, the default radius
rule, and the quarter-isolated covering proposed for a spectrum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ClusteringError
from .linalg import cluster_eigenvalues

CONTAINMENT_MARGIN = 1e-8  # discs are shrunk by this fraction of r for tests


@dataclass(frozen=True)
class SimpleSet:
    """Union of open discs centers + radius * D, all with one radius."""

    centers: tuple
    radius: float

    def __init__(self, centers: Iterable[complex], radius: float):
        centers = tuple(sorted((complex(c) for c in centers),
                               key=lambda z: (z.real, z.imag)))
        if not centers:
            raise ValueError("a simple set needs at least one center")
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radius", float(radius))

    @property
    def k(self) -> int:
        return len(self.centers)

    def separation(self) -> float:
        """Min pairwise center distance; +inf for a singleton."""
        if len(self.centers) < 2:
            return math.inf
        return min(abs(c - d) for c, d in
                   itertools.combinations(self.centers, 2))

    def is_t_isolated(self, t: float) -> bool:
        return self.radius < t * self.separation()

    def is_quarter_isolated(self) -> bool:
        return self.is_t_isolated(0.25)

    def is_subordinate_to(self, other: "SimpleSet") -> bool:
        """Each disc here meets at most one disc of the other set."""
        for c in self.centers:
            hits = sum(1 for d in other.centers
                       if abs(c - d) < self.radius + other.radius)
            if hits > 1:
                return False
        return True

    def assign(self, points: Iterable[complex],
               margin: float = CONTAINMENT_MARGIN) -> np.ndarray:
        """Index of the first disc containing each point, -1 for none."""
        points = np.fromiter(points, dtype=complex)
        inside = (np.abs(points[:, None] - np.asarray(self.centers))
                  < self.radius * (1.0 - margin))
        return np.where(inside.any(axis=1), inside.argmax(axis=1), -1)

    def locate(self, z: complex, margin: float = 0.0) -> Optional[int]:
        """Index of the disc containing z, or None."""
        i = int(self.assign((z,), margin)[0])
        return None if i < 0 else i

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        return self.locate(z, margin) is not None

    def covers(self, points: Iterable[complex],
               margin: float = CONTAINMENT_MARGIN) -> bool:
        return bool((self.assign(points, margin) >= 0).all())

    def avoids_zero(self) -> bool:
        return self.radius < min(abs(c) for c in self.centers)

    def branch_problem(self) -> Optional[str]:
        """Why these discs cannot carry square-root branches, or None.

        Branches need 0 outside every disc and quarter-isolated discs.
        """
        if not self.avoids_zero():
            return (f"0 must lie outside every disc "
                    f"(radius {self.radius} too large)")
        if not self.is_quarter_isolated():
            return (f"discs are not quarter-isolated "
                    f"(radius {self.radius}, separation {self.separation()})")
        return None


def default_radius(centers: Iterable[complex]) -> float:
    """Half of min(min |c|, sep/4): keeps 0 outside and quarter-isolation."""
    centers = tuple(complex(c) for c in centers)
    closest = min(abs(c) for c in centers)
    if closest == 0.0:
        raise ValueError("0 is a center; no admissible radius exists")
    if len(centers) < 2:
        return 0.5 * closest
    sep = min(abs(c - d) for c, d in itertools.combinations(centers, 2))
    return 0.5 * min(closest, 0.25 * sep)


def propose_simple_set(eigenvalues: Sequence[complex],
                       gap: Optional[float] = None,
                       forbid_zero: bool = True) -> SimpleSet:
    """Quarter-isolated simple set covering the eigenvalues, or raise.

    Single-linkage groups at the given absolute gap become disc centers
    (group means) with the default radius; the proposal is rejected when a
    group's spread does not fit inside that radius.
    """
    eigs = [complex(z) for z in eigenvalues]
    if not eigs:
        raise ClusteringError("no eigenvalues to cover")
    try:
        if gap is None:
            gap = 1e-6 * (1.0 + max(abs(z) for z in eigs))
        clusters = cluster_eigenvalues(eigs, gap)
    except OverflowError as exc:  # some |z| or |z - w| exceeds the range
        raise ClusteringError(f"eigenvalues overflow: {exc}") from exc
    centers = [c.center for c in clusters]
    if forbid_zero and min(abs(c) for c in centers) <= gap:
        raise ClusteringError(
            "a cluster sits at 0; no disc around it can avoid the origin")
    try:
        radius = default_radius(centers)
    except ValueError as exc:
        raise ClusteringError(str(exc)) from exc
    worst = max(c.spread for c in clusters)
    if worst >= radius * (1.0 - CONTAINMENT_MARGIN):
        raise ClusteringError(
            f"cluster spread {worst:.3g} does not fit inside the "
            f"quarter-isolated radius {radius:.3g}; adjust the gap")
    return SimpleSet(centers, radius)
