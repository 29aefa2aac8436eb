"""Primary matrix functions via Hermite interpolation on the spectrum.

A function holomorphic on a simple set is one function per disc; each
one used here is c_i + r_i s_i(z) on disc i, with s_i that disc's
reference square root, so a germ (ScalarBranch) is the numbers c_i, r_i.
The contour-integral functional calculus is replaced by the Hermite
interpolant that matches, at each eigenvalue and up to its multiplicity,
the value and derivatives of the function of the disc holding it; the
two agree for functions holomorphic on the covering discs, and the
interpolant is exactly computable.  Outputs are polynomials in the
argument, hence commute with it and lie in span{I, x, ..., x^{n-1}}.

Branch data (centers, radius, signs) selects locally constant involutions
and square-root branches per disc.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (IllConditionedInterpolationError,
                     SpectrumOutsideDomainError)
from .geometry import SimpleSet, propose_simple_set
from .linalg import cluster_eigenvalues, spectrum

MERGE_RTOL = 1e-6  # eigenvalues closer than this (rel. spectral radius) confluesce


@dataclass(frozen=True)
class BranchSpec:
    """Spectral cluster centers, common radius, and a sign per center.

    Validated so that 0 lies outside every disc and the discs are
    quarter-isolated (closures pairwise disjoint with room to spare).
    """

    centers: tuple
    radius: float
    tau: tuple

    def __init__(self, centers: Iterable[complex], radius: float,
                 tau: Iterable[int]):
        pairs = sorted(zip((complex(c) for c in centers), tau),
                       key=lambda p: (p[0].real, p[0].imag))
        centers = tuple(p[0] for p in pairs)
        tau = tuple(int(p[1]) for p in pairs)
        if len(centers) != len(tau):
            raise ValueError("need one sign per center")
        if any(t not in (-1, 1) for t in tau):
            raise ValueError(f"signs must be +1 or -1, got {tau}")
        problem = SimpleSet(centers, radius).branch_problem()
        if problem:
            raise ValueError(problem)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radius", float(radius))
        object.__setattr__(self, "tau", tau)

    @property
    def k(self) -> int:
        return len(self.centers)

    @property
    def simple_set(self) -> SimpleSet:
        return SimpleSet(self.centers, self.radius)

    @classmethod
    def for_matrix(cls, x: np.ndarray, tau: Iterable[int],
                   gap: Optional[float] = None) -> "BranchSpec":
        """Cluster the spectrum of x and attach the given signs."""
        eigs = spectrum(x).eigenvalues
        ss = propose_simple_set(eigs, gap=gap)
        return cls(ss.centers, ss.radius, tau)


@dataclass(frozen=True)
class ScalarBranch:
    """Scalar germ on a simple set: const[i] + root[i] * s_i(z) on disc i.

    s_i is the reference square root of disc i, principal at its center
    (see _sqrt_derivs).  Idempotents and involutions are locally constant,
    and a square-root branch is a signed reference root on each disc.
    """

    domain: SimpleSet
    const: tuple
    root: tuple


def constant_germ(domain: SimpleSet, values: Sequence[complex]) -> ScalarBranch:
    """Locally constant function: values[i] on disc i."""
    return ScalarBranch(domain, tuple(map(complex, values)), (0j,) * domain.k)


def idempotent_germ(domain: SimpleSet, disc: int) -> ScalarBranch:
    """1 on one disc and 0 on the others: the spectral projector's germ."""
    return constant_germ(domain, [float(i == disc) for i in range(domain.k)])


SIGN_BLOCK = 64  # sign patterns summed per batch, which bounds temporaries


def sign_patterns(k: int, start: int = 0,
                  stop: Optional[int] = None) -> np.ndarray:
    """Rows start..stop-1 of every tau in {1, -1}^k, in the order of
    itertools.product((1, -1), repeat=k), as a float array."""
    rows = np.arange(start, 2 ** k if stop is None else stop)
    bits = rows[:, None] >> np.arange(k - 1, -1, -1)
    return 1.0 - 2.0 * (bits & 1)


def _sqrt_derivs(z: complex, m: int, center: complex, sign: int) -> list:
    # branch fixed by s(c) = sign * principal sqrt(c); s^(k) = a_k s / z^k
    s = sign * cmath.sqrt(center) * cmath.sqrt(1.0 + (z - center) / center)
    out = [s]
    coeff = 1.0
    for k in range(1, m):
        coeff *= 0.5 - (k - 1)
        out.append(coeff * s / z ** k)
    return out


def sqrt_germ(spec: BranchSpec) -> ScalarBranch:
    """Signed square-root branch: tau[i] * (principal-at-center) on disc i."""
    return ScalarBranch(spec.simple_set, (0j,) * spec.k, spec.tau)


def sqrt_piece_germ(domain: SimpleSet, disc: int) -> ScalarBranch:
    """Reference square root (principal at the center) on one disc, 0 on
    the others.  sqrt_germ(spec) is the sum of spec.tau[i] times these."""
    return ScalarBranch(domain, (0j,) * domain.k,
                        tuple(complex(i == disc) for i in range(domain.k)))


# -- Hermite interpolation ----------------------------------------------------

def _newton_coefficients(nodes: Sequence[tuple],
                         germs: Sequence[ScalarBranch]) -> tuple:
    """Divided differences of every germ on one confluent node set.

    Node (center, size, disc) sits at center with multiplicity size; the
    first size derivatives there of the disc's reference root, taken once
    for all germs, give each germ's repeated-node entries f^(j)(z)/j!.
    Returns the nodes with repetition, shape (N,), and the Newton
    coefficients, shape (len(germs), N).
    """
    centers, sizes, discs = zip(*nodes)
    gids = np.repeat(np.arange(len(sizes)), sizes)
    zs = np.asarray(centers, dtype=complex)[gids]
    n = len(zs)
    width = max(sizes)
    const = np.array([germ.const for germ in germs])[:, list(discs)]
    root = np.array([germ.root for germ in germs])[:, list(discs)]
    # table[i, j] = s^(j)(center of node i) for the reference root s of its
    # disc, taken only at the nodes where some germ uses s
    table = np.zeros((len(nodes), width), dtype=complex)
    reference = germs[0].domain.centers
    for i in np.flatnonzero(root.any(axis=0)):
        center, size, disc = nodes[i]
        table[i, :size] = _sqrt_derivs(center, size, reference[disc], 1)
    # ders[h, i, j] = f_h^(j)(zs[i]), for j below the multiplicity of zs[i]
    ders = np.zeros((len(germs), len(nodes), width), dtype=complex)
    ders[:, :, 0] = const
    ders += root[:, :, None] * table
    ders = np.repeat(ders, sizes, axis=1)
    prev = ders[:, :, 0]
    coeffs = [prev[:, 0]]
    factorial = 1.0
    for j in range(1, n):
        factorial *= j
        step = zs[j:] - zs[:-j]
        if j < width:  # some node is still repeated j + 1 times
            same = gids[j:] == gids[:-j]
            cur = np.where(same, ders[:, :n - j, j] / factorial,
                           (prev[:, 1:] - prev[:, :-1])
                           / np.where(same, 1.0, step))
        else:
            cur = (prev[:, 1:] - prev[:, :-1]) / step
        coeffs.append(cur[:, 0])
        prev = cur
    return zs, np.stack(coeffs, axis=1)


def matrix_function(x: np.ndarray, germs,
                    merge_rtol: float = MERGE_RTOL) -> np.ndarray:
    """Hermite-interpolated primary function of x: an (n, n) matrix for
    one germ, an (m, n, n) stack for a sequence of m germs on one domain.

    Each eigenvalue is assigned once to the disc that holds it
    (SpectrumOutsideDomainError if one lies in no disc), whose reference
    root gives every germ its derivatives there.  Eigenvalues of one disc
    closer than merge_rtol times the spectral radius are merged into one
    confluent node (derivative matching) to avoid catastrophic
    divided-difference cancellation; the node multiplicity bounds the size
    of any Jordan block, so the match is exact for the primary function.
    Nodes never merge across discs, where the germ is another function.
    The spectrum, its clustering and the nodes depend on x alone, so they
    are computed once per call; each germ adds its Newton coefficients, and
    one Horner loop evaluates all the interpolants.
    """
    one = isinstance(germs, ScalarBranch)
    germs = [germs] if one else list(germs)
    (domain,) = {germ.domain for germ in germs}  # else ValueError
    x = np.asarray(x, dtype=complex)
    eigs = np.asarray(spectrum(x).eigenvalues)
    disc = domain.assign(eigs)
    if (disc < 0).any():
        raise SpectrumOutsideDomainError(
            f"spectrum {np.round(eigs, 6)} not covered by "
            f"discs around {domain.centers} with radius {domain.radius}")
    rho = np.abs(eigs).max()
    gap = merge_rtol * (rho if rho > 0 else 1.0)
    nodes = sorted(((c.center, len(c.indices), d) for d in range(domain.k)
                    for c in cluster_eigenvalues(eigs[disc == d], gap)),
                   key=lambda node: (node[0].real, node[0].imag))
    zs, coeffs = _newton_coefficients(nodes, germs)
    if not np.isfinite(coeffs).all():
        raise IllConditionedInterpolationError(
            "divided differences degenerated; nodes too close for the "
            "working precision")
    m, n = len(germs), x.shape[0]
    eye = np.eye(n, dtype=complex)
    out = np.zeros((m * n, n), dtype=complex)
    diag = out.reshape(m, n * n)[:, ::n + 1]  # a view of every diagonal
    diag += coeffs[:, -1, None]
    for j in range(len(zs) - 2, -1, -1):
        np.matmul(out.copy(), x - zs[j] * eye, out=out)
        diag += coeffs[:, j, None]
    out = out.reshape(m, n, n)
    return out[0] if one else out


def spectral_idempotents(x: np.ndarray, domain: SimpleSet) -> np.ndarray:
    """(k, n, n) stack of E_j, the spectral projector of x onto the
    eigenvalues in disc j (1 on that disc, 0 on the others)."""
    return matrix_function(
        x, [idempotent_germ(domain, j) for j in range(domain.k)])


def involution_I(x: np.ndarray, spec: BranchSpec) -> np.ndarray:
    """Matrix square root of the identity attached to the sign pattern."""
    return matrix_function(x, constant_germ(spec.simple_set, spec.tau))


def sqrt_branch_S(x: np.ndarray, spec: BranchSpec) -> np.ndarray:
    """Branch square root: S(x)^2 = x, S(x) in alg(x).

    Equals the product of the reference branch with the sign involution;
    computed in one interpolation from the signed germ.
    """
    return matrix_function(x, sqrt_germ(spec))
