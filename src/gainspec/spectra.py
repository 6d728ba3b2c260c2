"""Hermitian adjacency matrices, eigenvalues, energy, and closed forms.

The adjacency matrix of a gain graph has A[u, v] = gain(u, v) on edges and
zeros elsewhere; the gain inverse invariant makes it Hermitian, so its
spectrum is real.  Energy is the sum of absolute eigenvalues.

``spectrum`` exploits structure.  The spectrum is the union of the spectra
of the connected components; an isolated vertex contributes a 0, and a
bipartite component, A = [[0, B], [B*, 0]], contributes +-sigma_i(B) plus
|p - q| zeros for its p x q biadjacency block B (Jordan-Wielandt).  Below
the one size switch ``graphs.ARRAY_MIN_ORDER`` (32) one dense solve of the
whole matrix is cheaper, and ``eigenvalues(adjacency(phi))`` stays the dense
reference either way.

Tolerance ladder (each layer absorbs the noise of the one below):
    1e-12  Hermitian/construction checks
    1e-8   eigenpair and singular-pair residuals, characteristic-polynomial
           realness
    1e-7   Kronecker spectrum multiset matching and energy doubling
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs
from .gains import GainGraph, all_ones, gain_graph, kronecker, unit
from .graphs import Graph, cycle_graph

HERMITIAN_TOL = 1e-12
RESIDUAL_TOL = 1e-8
KRONECKER_TOL = 1e-7
CHAR_POLY_MAX_N = 12
# One complex n x n matrix at this order is 268 MB, and a solve holds several.
DENSE_MAX_ORDER = 4096


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real eigenvalues sorted descending, in a read-only array, and their
    absolute sum."""

    eigenvalues: np.ndarray
    energy: float

    def __post_init__(self) -> None:
        self.eigenvalues.flags.writeable = False

    def __reduce__(self):
        # Rebuild through the constructor, so a copy's array is read-only too.
        return (Spectrum, (self.eigenvalues, self.energy))


def _descending_spectrum(ascending: np.ndarray) -> Spectrum:
    """The spectrum of eigenvalues given in ascending order, held in a
    descending copy."""
    vals = ascending[::-1].copy()
    return Spectrum(vals, float(np.sum(np.abs(vals))))


def _require_dense_order(n: int) -> None:
    if n > DENSE_MAX_ORDER:
        raise ValueError(f"order {n} exceeds the dense limit {DENSE_MAX_ORDER}")


def adjacency(phi: GainGraph) -> np.ndarray:
    """Hermitian adjacency matrix of a gain graph (complex, dense).

    Orders above ``DENSE_MAX_ORDER`` raise ``ValueError`` before allocating.
    """
    n = phi.graph.n
    _require_dense_order(n)
    a = np.zeros((n, n), dtype=complex)
    for (u, v), z in phi.forward.items():
        a[u, v] = z
        a[v, u] = z.conjugate()
    return a


def _require_hermitian(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    if a.size and np.max(np.abs(a - a.conj().T)) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")


def eigenvalues(a: np.ndarray) -> Spectrum:
    """Eigenvalues of a Hermitian matrix, sorted descending.

    Backed by the LAPACK Hermitian solver; every solve is verified against
    the residual contract ||A v - lambda v|| <= 1e-8 * ||A||_2 per pair.
    """
    a = np.asarray(a, dtype=complex)
    _require_hermitian(a)
    if a.shape[0] == 0:
        return _descending_spectrum(np.empty(0))
    vals, vecs = np.linalg.eigh(a)
    scale = float(np.max(np.abs(vals)))
    if scale > 0.0:
        residuals = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
        if np.max(residuals) > RESIDUAL_TOL * scale:
            raise RuntimeError(
                f"eigensolver residual {np.max(residuals):.3e} exceeds "
                f"{RESIDUAL_TOL:.0e} * ||A||"
            )
    return _descending_spectrum(vals)


def _singular_values(b: np.ndarray) -> np.ndarray:
    """Singular values of a nonzero block, descending, with every singular
    pair verified: ||B v_i - sigma_i u_i|| and ||B* u_i - sigma_i v_i|| <=
    1e-8 * ||B||_2 for the full U and V, so kernel vectors are checked too
    (sigma_i = 0 beyond min(p, q))."""
    u, s, vh = np.linalg.svd(b)
    v = vh.conj().T
    r = len(s)
    bv = b @ v
    bv[:, :r] -= u[:, :r] * s
    bu = b.conj().T @ u
    bu[:, :r] -= v[:, :r] * s
    residual = max(
        float(np.max(np.linalg.norm(bv, axis=0))),
        float(np.max(np.linalg.norm(bu, axis=0))),
    )
    if residual > RESIDUAL_TOL * s[0]:
        raise RuntimeError(
            f"singular value residual {residual:.3e} exceeds "
            f"{RESIDUAL_TOL:.0e} * ||B||"
        )
    return s


def _component_eigenvalues(phi: GainGraph) -> np.ndarray:
    """Eigenvalues of A, unsorted, solved one component at a time.

    Each block is built from the cached edge and gain arrays directly,
    never the n x n matrix: a bipartite component as its side-0 x side-1 biadjacency block,
    any other as its own Hermitian block.  Isolated vertices and the
    |p - q| kernel of a bipartite block are exact zeros.
    """
    g = phi.graph
    bip = g._bipartition
    side = bip.side
    # position of each vertex within its block: its side of a bipartite
    # component, or the whole component otherwise
    comp_of = [0] * g.n
    pos = [0] * g.n
    shapes = []
    for k, comp in enumerate(bip.components):
        counts = [0, 0]
        for v in comp:
            half = side[v] if bip.exists[k] else 0
            comp_of[v], pos[v] = k, counts[half]
            counts[half] += 1
        shapes.append(counts)
    us, vs = g._edge_array
    z = phi._gain_array
    comp_arr, pos_arr = np.array(comp_of), np.array(pos)
    # orient every edge from side 0 to side 1 (A[v, u] = conj(A[u, v])); a
    # non-bipartite block sets both entries, so orientation is immaterial there
    flip = np.array(side)[us] == 1
    rows = pos_arr[np.where(flip, vs, us)]
    cols = pos_arr[np.where(flip, us, vs)]
    z = np.where(flip, z.conj(), z)
    edge_comp = comp_arr[us]
    order = np.argsort(edge_comp, kind="stable")
    starts = np.searchsorted(edge_comp[order], np.arange(len(shapes) + 1))

    vals = np.zeros(g.n)
    filled = 0
    for k, (p, q) in enumerate(shapes):
        block_edges = order[starts[k] : starts[k + 1]]
        if not len(block_edges):
            continue
        r, c, w = rows[block_edges], cols[block_edges], z[block_edges]
        if bip.exists[k]:
            b = np.zeros((p, q), dtype=complex)
            b[r, c] = w
            s = _singular_values(b)
            part = np.concatenate([s, -s])
        else:
            a = np.zeros((p, p), dtype=complex)
            a[r, c] = w
            a[c, r] = w.conj()
            part = eigenvalues(a).eigenvalues
        vals[filled : filled + len(part)] = part
        filled += len(part)
    return vals


def spectrum(phi: GainGraph) -> Spectrum:
    """Spectrum of a gain graph, with zero-trace and Frobenius sanity checks.

    Dispatch, all under the order limit ``DENSE_MAX_ORDER`` on n:
      * no edges: all zeros, no solve;
      * n < ``graphs.ARRAY_MIN_ORDER``: ``eigenvalues(adjacency(phi))``, one
        dense solve with every eigenpair residual-checked;
      * otherwise one solve per component with edges: the singular values
        of the biadjacency block of a bipartite component, every singular
        pair (kernel vectors included) residual-checked against 1e-8 times
        that block's norm; ``eigenvalues`` of the block of any other.

    For a gain graph the eigenvalues must sum to 0 (zero diagonal) and their
    squares must sum to 2m (unit-modulus off-diagonal entries); both are
    asserted on the assembled spectrum after every solve.
    """
    n, m = phi.graph.n, phi.graph.m
    _require_dense_order(n)
    if m == 0:
        return _descending_spectrum(np.zeros(n))
    if n < graphs.ARRAY_MIN_ORDER:
        spec = eigenvalues(adjacency(phi))
    else:
        spec = _descending_spectrum(np.sort(_component_eigenvalues(phi)))
    if abs(float(np.sum(spec.eigenvalues))) > 1e-8 * n:
        raise RuntimeError("spectrum sanity: eigenvalue sum is not ~0")
    if abs(float(np.sum(spec.eigenvalues**2)) - 2.0 * m) > 1e-7 * n:
        raise RuntimeError("spectrum sanity: sum of squares is not ~2m")
    return spec


def energy(phi: GainGraph) -> float:
    """Sum of the absolute eigenvalues of the adjacency matrix."""
    return spectrum(phi).energy


def char_poly(a: np.ndarray) -> np.ndarray:
    """Coefficients of det(lambda I - A), leading coefficient first.

    Computed by the Faddeev-LeVerrier recurrence, independently of the
    eigensolver; for Hermitian input the coefficients are real (checked to
    1e-8).  Intended for desk-scale verification, so n <= 12.
    """
    a = np.asarray(a, dtype=complex)
    _require_hermitian(a)
    n = a.shape[0]
    if n > CHAR_POLY_MAX_N:
        raise ValueError(f"char_poly supports n <= {CHAR_POLY_MAX_N}, got {n}")
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    if n and np.max(np.abs(coeffs.imag)) > 1e-8:
        raise RuntimeError("characteristic polynomial is not real within 1e-8")
    return coeffs.real


def four_cycle_gain_graph(a: complex, b: complex) -> GainGraph:
    """The 4-cycle 0-1-2-3-0 with gains gain(0,1)=1, gain(1,2)=a,
    gain(2,3)=1, gain(3,0)=b."""
    a, b = unit(a), unit(b)
    return gain_graph(
        cycle_graph(4),
        {(0, 1): 1.0, (1, 2): a, (2, 3): 1.0, (0, 3): b.conjugate()},
    )


def four_cycle_energy(a: complex, b: complex) -> float:
    """Closed-form energy of the 4-cycle above, as a function of x = Re(a*b):

        2*sqrt(2 + sqrt(2 + 2x)) + 2*sqrt(2 - sqrt(2 + 2x))

    which is >= 4 with equality exactly at x = 1.  x is clamped to [-1, 1]
    to guard the inner square root against rounding overshoot.
    """
    a, b = unit(a), unit(b)
    x = min(1.0, max(-1.0, (a * b).real))
    s = np.sqrt(2.0 + 2.0 * x)
    return float(2.0 * np.sqrt(2.0 + s) + 2.0 * np.sqrt(max(0.0, 2.0 - s)))


@dataclass(frozen=True, eq=False)
class KroneckerCheck:
    """Comparison of product spectra against the factor eigenvalue products."""

    product: GainGraph
    energy: float                   # of the first factor
    spectrum_deviation: float       # max multiset gap, sorted elementwise
    spectrum_ok: bool
    double_energy: float | None     # only when the second factor is K2
    expected_double_energy: float | None
    doubling_ok: bool | None

    @property
    def ok(self) -> bool:
        return self.spectrum_ok and self.doubling_ok is not False


def kronecker_spectrum_check(phi: GainGraph, h: Graph) -> KroneckerCheck:
    """Verify that the product spectrum is the set of pairwise eigenvalue
    products {eta_s * lambda_t}, and for a single-edge second factor that the
    energy doubles.  A product order above ``DENSE_MAX_ORDER`` raises
    ``ValueError`` before the product is built."""
    _require_dense_order(phi.graph.n * h.n)
    first = spectrum(phi)
    eta = first.eigenvalues
    lam = spectrum(all_ones(h)).eigenvalues
    expected = np.sort(np.outer(eta, lam).ravel())
    product = kronecker(phi, h)
    actual_spec = spectrum(product)
    actual = np.sort(actual_spec.eigenvalues)
    deviation = float(np.max(np.abs(expected - actual), initial=0.0))

    double_energy = expected_double = doubling_ok = None
    if h.n == 2 and h.m == 1:
        double_energy = actual_spec.energy
        expected_double = 2.0 * first.energy
        doubling_ok = abs(double_energy - expected_double) <= KRONECKER_TOL

    return KroneckerCheck(
        product=product,
        energy=first.energy,
        spectrum_deviation=deviation,
        spectrum_ok=deviation <= KRONECKER_TOL,
        double_energy=double_energy,
        expected_double_energy=expected_double,
        doubling_ok=doubling_ok,
    )
