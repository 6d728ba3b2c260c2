"""Hermitian adjacency matrices, eigenvalues, energy, and the Kronecker
spectrum check.

The adjacency matrix of a gain graph has A[u, v] = gain(u, v) on edges and
zeros elsewhere; the gain inverse invariant makes it Hermitian, so its
spectrum is real.  Energy is the sum of absolute eigenvalues.

``spectrum`` exploits structure.  The spectrum is the union of the spectra
of the connected components; an isolated vertex contributes a 0, and a
bipartite component, A = [[0, B], [B*, 0]], contributes +-sigma_i(B) plus
|p - q| zeros for its p x q biadjacency block B (Jordan-Wielandt).
``_blocks`` picks each graph's blocks, ``spectra_of`` stacks them by kind
and shape, and ``eigenvalues(adjacency(phi))`` stays the dense reference.

Hermitian matrices go to ``np.linalg.eigh`` (divide and conquer), one call
per stack.  From order ``_MRRR_MIN_ORDER`` (256) each matrix instead goes to
LAPACK's MRRR driver ``zheevr``, bound through ``ctypes`` from the OpenBLAS
library numpy itself loaded; ``np.linalg.eigh`` remains the fallback where
numpy ships no such library.  Both are checked alike.

Tolerance ladder (each layer absorbs the noise of the one below):
    1e-12  Hermitian/construction checks
    1e-8   eigenpair and singular-pair residuals
    1e-7   Kronecker spectrum multiset matching and energy doubling
"""

from __future__ import annotations

import ctypes
import glob
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import graphs
from .gains import GainGraph, all_ones, kronecker
from .graphs import Graph

HERMITIAN_TOL = 1e-12
RESIDUAL_TOL = 1e-8
KRONECKER_TOL = 1e-7
# One complex n x n matrix at this order is 268 MB, and a solve holds several.
DENSE_MAX_ORDER = 4096
# From this order a Hermitian matrix is solved by MRRR (``zheevr``), which
# finds the tridiagonal eigenvectors in O(n^2) work where divide and conquer
# takes O(n^3).  Measured, one BLAS thread, zheevr / eigh time on connected
# gain graphs and dense Hermitian matrices: 1.0-1.2 at n = 128, 0.8-1.15 at
# 192, 0.8-0.95 at 256, 0.7-0.9 at 384, about 0.5 at 512 and 775.
_MRRR_MIN_ORDER = 256


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real eigenvalues sorted descending, in the spectrum's own read-only
    copy, and their absolute sum."""

    eigenvalues: np.ndarray
    energy: float

    def __post_init__(self) -> None:
        values = np.array(self.eigenvalues, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "eigenvalues", values)

    def __reduce__(self):
        # Rebuild through the constructor, so a copy's array is read-only too.
        return (Spectrum, (self.eigenvalues, self.energy))


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
    a[phi.graph.us, phi.graph.vs] = phi.gains
    a[phi.graph.vs, phi.graph.us] = phi.gains.conj()
    return a


def _fail_first(
    bad: np.ndarray, error: type[Exception], message: Callable[[int], str]
) -> None:
    """Raise ``error`` for the first matrix of a stack flagged in ``bad``;
    ``message(k)`` describes matrix k, and the text names k when the stack
    holds more than one matrix."""
    if bad.any():
        k = int(np.argmax(bad))
        where = f"matrix {k} of {len(bad)}: " if len(bad) > 1 else ""
        raise error(where + message(k))


def _zheevr() -> Callable[..., int] | None:
    """LAPACKE's ``zheevr`` from the 64-bit-integer OpenBLAS that numpy's
    wheel ships and has already loaded (so ``OPENBLAS_NUM_THREADS`` pins it
    as it pins ``np.linalg.eigh``), or None unless exactly one such library
    exports it.  Bound afresh on each call, which takes about 50 us, so no
    binding is kept in the module."""
    libs = glob.glob(os.path.join(
        os.path.dirname(np.__file__), os.pardir, "numpy.libs",
        "libscipy_openblas64_*.so",
    ))
    if len(libs) != 1:
        return None
    try:
        fn = ctypes.CDLL(libs[0]).scipy_LAPACKE_zheevr64_
    except (OSError, AttributeError):
        return None
    i64, f64, char = ctypes.c_int64, ctypes.c_double, ctypes.c_char
    flags = ("C_CONTIGUOUS", "WRITEABLE")
    matrix = np.ctypeslib.ndpointer(np.complex128, 2, flags=flags)
    # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w,
    # z, ldz, isuppz
    fn.argtypes = [
        ctypes.c_int, char, char, char, i64, matrix, i64, f64, f64, i64, i64,
        f64, ctypes.POINTER(i64), np.ctypeslib.ndpointer(np.float64, 1, flags=flags),
        matrix, i64, np.ctypeslib.ndpointer(np.int64, 1, flags=flags),
    ]
    fn.restype = i64
    return fn


def _eigenpairs(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and eigenvectors (as columns) of each matrix
    in a Hermitian stack (k, n, n), as ``np.linalg.eigh`` returns them: one
    ``np.linalg.eigh`` call below ``_MRRR_MIN_ORDER`` or when ``zheevr`` is
    not bound, else one ``zheevr`` call per matrix.  Unchecked."""
    k, n = stack.shape[:2]
    zheevr = _zheevr() if n >= _MRRR_MIN_ORDER else None
    if zheevr is None:
        return np.linalg.eigh(stack)
    vals = np.empty((k, n))
    vecs = np.empty((k, n, n), dtype=complex)
    isuppz = np.empty(2 * n, dtype=np.int64)
    info, found = [], []
    m = ctypes.c_int64()
    for i in range(k):
        # In column-major layout (102) LAPACK reads this C-ordered copy as
        # conj(A), whose eigenvectors are the conjugates of A's; it
        # overwrites the copy.
        a = np.array(stack[i], dtype=complex, order="C")
        info.append(zheevr(102, b"V", b"A", b"L", n, a, n, 0.0, 0.0, 0, 0, 0.0,
                           ctypes.byref(m), vals[i], vecs[i], n, isuppz))
        found.append(m.value)
    _fail_first(
        (np.array(info) != 0) | (np.array(found) != n), RuntimeError,
        lambda i: f"zheevr returned info {info[i]} with {found[i]} of {n} eigenpairs",
    )
    np.conjugate(vecs, out=vecs)
    return vals, vecs.swapaxes(1, 2)


def _eigh(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of each Hermitian matrix in a stack (k, n, n),
    from ``_eigenpairs``: one LAPACK call per stack below ``_MRRR_MIN_ORDER``,
    one ``zheevr`` call per matrix from it.  Every matrix is checked as
    ``eigenvalues`` checks one: finite entries, Hermitian within 1e-12, and
    every eigenpair's residual ||A v - lambda v|| <= 1e-8 * ||A||_2."""
    k, n = stack.shape[:2]
    if n == 0:
        return np.empty((k, 0))
    _fail_first(
        ~np.isfinite(stack).all(axis=(1, 2)), ValueError,
        lambda i: "matrix has a non-finite entry",
    )
    asymmetry = np.max(np.abs(stack - stack.conj().swapaxes(1, 2)), axis=(1, 2))
    _fail_first(
        asymmetry > HERMITIAN_TOL, ValueError,
        lambda i: "matrix is not Hermitian within tolerance",
    )
    vals, vecs = _eigenpairs(stack)
    scale = np.max(np.abs(vals), axis=1)
    residual = np.max(
        np.linalg.norm(stack @ vecs - vecs * vals[:, None, :], axis=1), axis=1
    )
    _fail_first(
        (scale > 0.0) & (residual > RESIDUAL_TOL * scale), RuntimeError,
        lambda i: f"eigensolver residual {residual[i]:.3e} exceeds "
        f"{RESIDUAL_TOL:.0e} * ||A||",
    )
    return vals


def _descending_spectra(ascending: np.ndarray) -> list[Spectrum]:
    """The spectra of the rows of ``ascending`` (k, n), each held in a
    descending copy."""
    vals = ascending[:, ::-1]
    energies = np.sum(np.abs(vals), axis=1).tolist()
    return [Spectrum(v, e) for v, e in zip(vals, energies)]


def eigenvalues(a: np.ndarray) -> Spectrum:
    """Eigenvalues of a Hermitian matrix, sorted descending.

    Backed by the LAPACK Hermitian solver (divide and conquer, or MRRR from
    order ``_MRRR_MIN_ORDER``); every solve is verified against the residual
    contract ||A v - lambda v|| <= 1e-8 * ||A||_2 per pair.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return _descending_spectra(_eigh(a[None]))[0]


def _singular_values(b: np.ndarray) -> np.ndarray:
    """Singular values, descending, of each nonzero block in a stack
    (k, p, q), from one LAPACK call, with every singular pair verified:
    ||B v_i - sigma_i u_i|| and ||B* u_i - sigma_i v_i|| <= 1e-8 * ||B||_2
    for the full U and V, so kernel vectors are checked too (sigma_i = 0
    beyond min(p, q))."""
    u, s, vh = np.linalg.svd(b)
    v = vh.conj().swapaxes(1, 2)
    r = s.shape[1]
    bv = b @ v
    bv[:, :, :r] -= u[:, :, :r] * s[:, None, :]
    bu = b.conj().swapaxes(1, 2) @ u
    bu[:, :, :r] -= v[:, :, :r] * s[:, None, :]
    residual = np.maximum(
        np.max(np.linalg.norm(bv, axis=1), axis=1),
        np.max(np.linalg.norm(bu, axis=1), axis=1),
    )
    _fail_first(
        residual > RESIDUAL_TOL * s[:, 0], RuntimeError,
        lambda i: f"singular value residual {residual[i]:.3e} exceeds "
        f"{RESIDUAL_TOL:.0e} * ||B||",
    )
    return s


def _blocks(phi: GainGraph) -> Iterator[tuple[bool, np.ndarray]]:
    """The blocks whose spectra make up the spectrum of ``phi``, each with
    whether it is a bipartite biadjacency block.  An edgeless graph has
    none; below ``graphs.ARRAY_MIN_ORDER`` the one block is ``adjacency(phi)``.
    From that order on each component with an edge, relabelled by one
    ``graphs._induced`` call, gives the adjacency matrix of its induced gain
    subgraph (of a bipartite one, the side-0 x side-1 part), grouped by kind
    and shape in order of first appearance: a singular value 0 gives a -0.0,
    which the sort places by input order.  Isolated vertices and the |p - q|
    kernel of a p x q bipartite block are exact zeros no block holds."""
    if phi.graph.m == 0:
        return
    if phi.graph.n < graphs.ARRAY_MIN_ORDER:
        yield False, adjacency(phi)
        return
    bip = phi.graph._bipartition
    side = np.array(bip.side, dtype=bool)
    split = [(c, b) for c, b in zip(bip.components, bip.exists) if len(c) > 1]
    subs = graphs._induced(phi.graph, [comp for comp, _ in split])
    groups: dict[tuple[bool, tuple[int, ...]], list[np.ndarray]] = {}
    for (comp, bipartite), (sub, e) in zip(split, subs):
        block = adjacency(GainGraph.from_gains(sub, phi.gains[e]))
        if bipartite:
            half = side.take(comp)
            block = block.compress(~half, axis=0).compress(half, axis=1)
        groups.setdefault((bipartite, block.shape), []).append(block)
    for (bipartite, _), blocks in groups.items():
        for block in blocks:
            yield bipartite, block


def _check_sums(vals: np.ndarray, n: int, sizes: Sequence[int]) -> None:
    """The sanity checks of ``spectrum`` on the solved eigenvalue rows
    ``vals`` of gain graphs of order n with ``sizes`` edges: for a gain
    graph the eigenvalues must sum to 0 (zero diagonal) and their squares
    to 2m (unit-modulus off-diagonal entries)."""
    _fail_first(
        np.abs(np.sum(vals, axis=1)) > 1e-8 * n, RuntimeError,
        lambda i: "spectrum sanity: eigenvalue sum is not ~0",
    )
    _fail_first(
        np.abs(np.sum(vals**2, axis=1) - 2.0 * np.asarray(sizes)) > 1e-7 * n,
        RuntimeError,
        lambda i: "spectrum sanity: sum of squares is not ~2m",
    )


def spectra_of(phis: Iterable[GainGraph]) -> list[Spectrum]:
    """The spectrum of each gain graph, as ``spectrum`` gives it, in input
    order.  The ``_blocks`` of every graph are stacked by kind and shape,
    and each stack goes to one ``_eigh`` or ``_singular_values`` call, which
    checks every matrix in it; the eigenvalues are then sorted and checked
    once per order.  Each call solves afresh and returns a new list."""
    phis = list(phis)
    orders: dict[int, list[int]] = {}
    for i, phi in enumerate(phis):
        _require_dense_order(phi.graph.n)
        orders.setdefault(phi.graph.n, []).append(i)
    tables = {n: np.zeros((len(members), n)) for n, members in orders.items()}
    stacks: dict[tuple[bool, tuple[int, ...]], list] = {}
    for n, members in orders.items():
        for row, i in zip(tables[n], members):
            # a row fills in its graph's block order, so the sort sees the
            # same row in any batch
            filled = 0
            for bipartite, block in _blocks(phis[i]):
                width = 2 * min(block.shape) if bipartite else len(block)
                part = row[filled : filled + width]
                stacks.setdefault((bipartite, block.shape), []).append((block, part))
                filled += width
    for key in list(stacks):
        blocks, parts = zip(*stacks.pop(key))
        # a lone block goes as a view, as np.stack would copy it
        stack = blocks[0][None] if len(blocks) == 1 else np.stack(blocks)
        del blocks
        if key[0]:
            s = _singular_values(stack)
            solved = np.concatenate([s, -s], axis=1)
        else:
            solved = _eigh(stack)
        for part, values in zip(parts, solved):
            part[:] = values
    specs: dict[int, Spectrum] = {}
    for n, members in orders.items():
        vals = np.sort(tables[n])
        _check_sums(vals, n, [phis[i].graph.m for i in members])
        specs.update(zip(members, _descending_spectra(vals)))
    return [specs[i] for i in range(len(phis))]


def spectrum(phi: GainGraph) -> Spectrum:
    """Spectrum of a gain graph of order at most ``DENSE_MAX_ORDER``, solved
    block by block (``_blocks``).  A Hermitian block is checked as
    ``eigenvalues`` checks a matrix; a bipartite block gives +-sigma_i of
    its singular values, every singular pair (kernel vectors included)
    residual-checked against 1e-8 times the block's norm.  The eigenvalues
    must sum to 0 (zero diagonal) and their squares to 2m (unit-modulus
    off-diagonal entries), asserted after every solve.  Each call solves
    afresh; ``spectra_of`` solves many graphs at once."""
    return spectra_of([phi])[0]


def energy(phi: GainGraph) -> float:
    """Sum of the absolute eigenvalues of the adjacency matrix."""
    return spectrum(phi).energy


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
