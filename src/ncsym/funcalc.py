"""Primary matrix functions via Hermite interpolation on the spectrum.

A function holomorphic on a simple set is one function per disc; each
one used here is c_j + r_j s_j(z) on disc j, with s_j that disc's
reference square root, so m germs are two (m, k) arrays, const and root.
The contour-integral functional calculus is replaced by the Hermite
interpolant that matches, at each eigenvalue and up to its multiplicity,
the value and derivatives of the function of the disc holding it; the
two agree for functions holomorphic on the covering discs, and the
interpolant is exactly computable.  Outputs are polynomials in the
argument, hence commute with it and lie in span{I, x, ..., x^{n-1}}.

The spectral idempotents come from the eigenbasis instead: E_j = V_j W_j
with W = V^-1, all k in one product, kept only when
max_j ||x E_j - E_j x||_F <= DEFAULT_TOL (1 + ||x||).  A defective or
nearly defective x fails that certificate, or has a singular V, and
falls back to the Hermite interpolant.  The square roots and
involutions are always interpolated; root enumeration asks for its k
spectral pieces alone, the germs root = e_j, and for no idempotent, and
sums them over the sign patterns of sqrtlib.

Branch data, a simple set with a sign per disc, selects locally constant
involutions and square-root branches per disc.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (IllConditionedInterpolationError, NumericalError,
                     SpectrumOutsideDomainError)
from .geometry import SimpleSet, propose_simple_set
from .linalg import DEFAULT_TOL, cluster_eigenvalues, fro_norms, spectrum

MERGE_LADDER = (1e-6, 1e-4, 1e-2)  # merge thresholds, rel. spectral radius


@dataclass(frozen=True)
class BranchSpec(SimpleSet):
    """A simple set with a sign per center; simple_set is the spec itself.

    Validated so that 0 lies outside every disc and the discs are
    quarter-isolated (closures pairwise disjoint with room to spare).
    """

    tau: tuple

    def __init__(self, centers: Iterable[complex], radius: float,
                 tau: Iterable[int]):
        # strict: a center without a sign, or the reverse, is a ValueError
        pairs = sorted(zip((complex(c) for c in centers), tau, strict=True),
                       key=lambda p: (p[0].real, p[0].imag))
        SimpleSet.__init__(self, (p[0] for p in pairs), radius)
        tau = tuple(int(p[1]) for p in pairs)
        if any(t not in (-1, 1) for t in tau):
            raise ValueError(f"signs must be +1 or -1, got {tau}")
        problem = self.branch_problem()
        if problem:
            raise ValueError(problem)
        object.__setattr__(self, "tau", tau)

    @property
    def simple_set(self) -> SimpleSet:
        return self

    @classmethod
    def for_matrix(cls, x, tau: Iterable[int],
                   gap: Optional[float] = None) -> "BranchSpec":
        """Cluster the spectrum of x, a matrix or its Spectrum, and attach
        the given signs."""
        ss = propose_simple_set(spectrum(x).eigenvalues, gap=gap)
        return cls(ss.centers, ss.radius, tau)


def _sqrt_derivs(z: complex, m: int, center: complex, sign: int) -> list:
    # branch fixed by s(c) = sign * principal sqrt(c); s^(k) = a_k s / z^k
    s = sign * cmath.sqrt(center) * cmath.sqrt(1.0 + (z - center) / center)
    out = [s]
    coeff = 1.0
    for k in range(1, m):
        coeff *= 0.5 - (k - 1)
        out.append(coeff * s / z ** k)
    return out


# -- Hermite interpolation ----------------------------------------------------

def _newton_coefficients(nodes: Sequence[tuple], reference: tuple,
                         const: np.ndarray, root: np.ndarray) -> tuple:
    """Divided differences of every germ, a row of const and root, on one
    confluent node set.

    Node (center, size, disc) sits at center with multiplicity size; the
    first size derivatives there of the disc's reference root, principal
    at reference[disc] and taken once for all germs, give each germ's
    repeated-node entries f^(j)(z)/j!.  Returns the nodes with repetition,
    shape (N,), and the Newton coefficients, shape (m, N).
    """
    centers, sizes, discs = zip(*nodes)
    gids = np.repeat(np.arange(len(sizes)), sizes)
    zs = np.asarray(centers, dtype=complex)[gids]
    n = len(zs)
    width = max(sizes)
    const, root = const[:, list(discs)], root[:, list(discs)]
    # table[i, j] = s^(j)(center of node i) for the reference root s of its
    # disc, taken only at the nodes where some germ uses s
    table = np.zeros((len(nodes), width), dtype=complex)
    for i in np.flatnonzero(root.any(axis=0)):
        center, size, disc = nodes[i]
        table[i, :size] = _sqrt_derivs(center, size, reference[disc], 1)
    # ders[h, i, j] = f_h^(j)(zs[i]), for j below the multiplicity of zs[i]
    ders = np.zeros((len(const), len(nodes), width), dtype=complex)
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


def matrix_function(x, domain: SimpleSet, const, root,
                    merge_rtol: float = MERGE_LADDER[0]) -> np.ndarray:
    """Hermite-interpolated primary functions of x, a matrix or its
    Spectrum: an (m, n, n) stack, one matrix per germ.

    Row h of the (m, k) arrays const and root, which broadcast against
    each other, is the germ const[h, j] + root[h, j] s_j(z) on disc j of
    domain, s_j being the reference root of disc j, principal at its
    center (see _sqrt_derivs).  Each eigenvalue is assigned once to the
    disc that holds it (SpectrumOutsideDomainError if one lies in no
    disc), whose reference root gives every germ its derivatives there.
    Eigenvalues of one disc closer than merge_rtol times the spectral
    radius are merged into one confluent node (derivative matching) to
    avoid catastrophic divided-difference cancellation; the node
    multiplicity bounds the size of any Jordan block, so the match is
    exact for the primary function.  Nodes never merge across discs, where
    the germ is another function.  The clustering and the nodes depend on
    x alone, so they are computed once per call; each germ adds its Newton
    coefficients, and one Horner loop evaluates all the interpolants.
    """
    const, root = np.broadcast_arrays(np.asarray(const, dtype=complex),
                                      np.asarray(root, dtype=complex))
    s = spectrum(x)
    x, eigs = s.matrix, s.eigenvalues
    disc = _assign(domain, eigs)
    rho = np.abs(eigs).max()
    gap = merge_rtol * (rho if rho > 0 else 1.0)
    nodes = sorted(((c.center, len(c.indices), d) for d in range(domain.k)
                    for c in cluster_eigenvalues(eigs[disc == d], gap)),
                   key=lambda node: (node[0].real, node[0].imag))
    zs, coeffs = _newton_coefficients(nodes, domain.centers, const, root)
    if not np.isfinite(coeffs).all():
        raise IllConditionedInterpolationError(
            "divided differences degenerated; nodes too close for the "
            "working precision")
    m, n = len(const), x.shape[0]
    eye = np.eye(n, dtype=complex)
    out = np.zeros((m * n, n), dtype=complex)
    diag = out.reshape(m, n * n)[:, ::n + 1]  # a view of every diagonal
    diag += coeffs[:, -1, None]
    for j in range(len(zs) - 2, -1, -1):
        np.matmul(out.copy(), x - zs[j] * eye, out=out)
        diag += coeffs[:, j, None]
    return out.reshape(m, n, n)


def _assign(domain: SimpleSet, eigs: np.ndarray) -> np.ndarray:
    """The disc of domain that holds each eigenvalue;
    SpectrumOutsideDomainError if one lies in no disc."""
    disc = domain.assign(eigs)
    if (disc < 0).any():
        raise SpectrumOutsideDomainError(
            f"spectrum {np.round(eigs, 6)} not covered by "
            f"discs around {domain.centers} with radius {domain.radius}")
    return disc


def spectral_idempotents(x, domain: SimpleSet) -> np.ndarray:
    """(k, n, n) stack of E_j, the spectral projector of x, a matrix or its
    Spectrum, onto the eigenvalues in disc j (1 on that disc, 0 on the
    others).

    E_j = V_j W_j from the eigenbasis x = V diag(lam) W (Higham, Functions
    of Matrices, Thm. 1.26), all k in one product.  Its error grows like
    cond(V) u, so the stack is kept only when it commutes with x:
    max_j ||x E_j - E_j x||_F <= DEFAULT_TOL (1 + ||x||).  A defective or
    nearly defective x fails that test, or has a singular V, and takes
    the Hermite interpolant instead.
    """
    s = spectrum(x)
    try:
        lam, vecs, inv = s.eig
        norm = s.norm
    except NumericalError:  # V singular, or ||x|| overflows
        return matrix_function(s, domain, np.eye(domain.k), 0)
    onehot = _assign(domain, lam) == np.arange(domain.k)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        idem = (vecs * onehot[:, None, :]) @ inv
        y = s.matrix / (norm or 1.0)  # ||y|| <= 1: no commutator overflows
        drift = fro_norms(y @ idem - idem @ y).max() * (norm / (1.0 + norm))
    if drift <= DEFAULT_TOL:  # NaN fails it
        return idem
    return matrix_function(s, domain, np.eye(domain.k), 0)


def involution_I(x, spec: BranchSpec) -> np.ndarray:
    """Matrix square root of the identity attached to the sign pattern,
    for x a matrix or its Spectrum: sum_j tau_j E_j over the
    spectral_idempotents of x."""
    return np.tensordot(spec.tau, spectral_idempotents(x, spec), axes=1)


def sqrt_branch_S(x, spec: BranchSpec) -> np.ndarray:
    """Branch square root: S(x)^2 = x, S(x) in alg(x), for x a matrix or
    its Spectrum.

    Equals the product of the reference branch with the sign involution;
    computed in one interpolation from the signed germ 0 + tau_j s_j.
    """
    return matrix_function(x, spec, 0, [spec.tau])[0]
