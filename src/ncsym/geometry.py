"""Simple sets: finite unions of equal-radius open discs in the plane.

The lowest module of the spectral half over linalg.  Owns the disc
geometry that the functional calculus, the square roots and the domain
predicates use: separation, t-isolation, subordination, the default
radius rule, and the quarter-isolated covering proposed for a spectrum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ClusteringError
from .linalg import cluster_eigenvalues, require_positive

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
        # NaN passes radius <= 0, and an infinite disc covers every point
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(
                f"radius must be finite and positive, got {radius}")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radius", float(radius))

    @property
    def k(self) -> int:
        return len(self.centers)

    def separation(self) -> float:
        """Min pairwise center distance; +inf for a singleton."""
        return _separation(self.centers)

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

    def locate(self, z: complex) -> Optional[int]:
        """Index of the disc containing z, or None."""
        i = int(self.assign((z,), 0.0)[0])
        return None if i < 0 else i

    def covers(self, points: Iterable[complex]) -> bool:
        """Every point lies in a disc shrunk by CONTAINMENT_MARGIN."""
        return bool((self.assign(points) >= 0).all())

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
    return 0.5 * min(closest, 0.25 * _separation(centers))


def _separation(centers: tuple) -> float:
    """Min pairwise distance of the centers; +inf for fewer than two."""
    return min((abs(c - d) for c, d in itertools.combinations(centers, 2)),
               default=math.inf)


def propose_simple_set(eigenvalues: Sequence[complex],
                       gap: Optional[float] = None) -> SimpleSet:
    """Quarter-isolated simple set covering the eigenvalues, or raise.

    Single-linkage groups at the given absolute gap become disc centers
    (group means) with the default radius; the proposal is rejected when a
    group's spread does not fit inside that radius, and before anything is
    clustered when an eigenvalue or a distance of two overflows.  A gap
    that is not finite and positive raises PreconditionError.
    """
    if gap is not None:
        require_positive("gap", gap)
    eigs = [complex(z) for z in eigenvalues]
    if not eigs:
        raise ClusteringError("no eigenvalues to cover")
    # no |z| or |z - w| exceeds the diagonal of the box around 0 and the
    # eigenvalues
    re, im = [0.0] + [z.real for z in eigs], [0.0] + [z.imag for z in eigs]
    if not math.isfinite(math.hypot(max(re) - min(re), max(im) - min(im))):
        raise ClusteringError(
            "eigenvalues or their distances overflow the float range")
    if gap is None:
        gap = 1e-6 * (1.0 + max(abs(z) for z in eigs))
    clusters = cluster_eigenvalues(eigs, gap)
    centers = [c.center for c in clusters]
    if min(abs(c) for c in centers) <= gap:
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
