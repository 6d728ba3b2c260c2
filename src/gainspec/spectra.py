"""Hermitian adjacency matrices, eigenvalues, energy, and the Kronecker
spectrum check.

The adjacency matrix of a gain graph has A[u, v] = gain(u, v) on edges and
zeros elsewhere; the gain inverse invariant makes it Hermitian, so its
spectrum is real.  Energy is the sum of absolute eigenvalues.

``spectrum`` exploits structure.  The spectrum is the union of the spectra
of the connected components; an isolated vertex contributes a 0, and a
bipartite component, A = [[0, B], [B*, 0]], contributes +-sigma_i(B) plus
|p - q| zeros for its p x q biadjacency block B (Jordan-Wielandt).
``_blocks`` picks each graph's blocks, ``spectra_of`` stacks them by kind,
dtype and shape, and ``eigenvalues(adjacency(phi))`` stays the dense
reference.

A balanced gain graph is switching equivalent to its underlying graph, and
a signed one to a graph with gains +-1, so each has the spectrum of a real
matrix (Reff, Linear Algebra Appl. 436, 2012).  From
``graphs.ARRAY_MIN_ORDER`` on, each component is switched by the tree
switching ``GainGraph._switching``, Z = diag(zeta); when every switched gain
has |Im| <= ``HERMITIAN_TOL``, its block is the float64 matrix R of their
real parts, solved in real arithmetic (``np.linalg.eigh`` at every order, or
the real SVD), and the rest stay complex.  A real pair is verified against
A itself: with E = A - Z R Z^H, read off the edges,
||A (Z x) - lambda (Z x)|| <= ||R x - lambda x|| + ||E||_F, so each real
residual is charged ||E||_F (||E_B||_F for a biadjacency block), and the
eigenvector of A is Z x.

Hermitian matrices go to ``np.linalg.eigh`` (divide and conquer), one call
per stack.  From order ``_MRRR_MIN_ORDER`` (256) each complex matrix
instead goes to LAPACK's MRRR driver ``zheevr``, bound through ``ctypes``
from the OpenBLAS library numpy itself loaded; ``np.linalg.eigh`` remains
the fallback where numpy ships no such library.  Both are checked alike.  A
real matrix needs no such binding: measured, one BLAS thread, real
``np.linalg.eigh`` of a graph's 0/1 adjacency against ``zheevr`` of the same
graph with random gains took 9 against 20-27 ms at n = 256, 142 against 435
ms at 775 and 0.79 against 2.32 s at 1500.

From that order on, a stack with at most ``_SPARSE_MAX_DENSITY`` (3%) of its
entries nonzero, as the component blocks of sparse graphs are, is checked
from its nonzero entries (i, j, a_ij) instead of dense n x n arrays: the
finiteness and Hermitian checks have the dense outcome exactly (a NaN or an
infinity is nonzero, and a pair of zero entries is symmetric), and every
eigenpair residual A v - lambda v is formed in O(nnz * n) work, a chunk of
eigenvectors at a time, with no dense product A V.  Dense stacks, and all
stacks below ``_MRRR_MIN_ORDER``, keep the BLAS product.  Measured, one BLAS
thread, random gain graphs, median of 15, nonzero / dense check time at n =
256, 400, 775: 0.31, 0.30, 0.15 at 0.16% density; 0.59, 0.44, 0.35 at 1%;
0.79, 0.64, 0.56 at 2%; 0.72, 0.68, 0.74 at 3%; 1.23, 1.33, 1.07 at 4%.

Tolerance ladder (each layer absorbs the noise of the one below):
    1e-12  Hermitian/construction checks, and |Im| of a real block's
           switched gains
    1e-8   eigenpair and singular-pair residuals; a real block's are
           charged ||E||_F <~ 1e-12 * sqrt(2m) <= 1e-12 * sqrt(n) * ||A||_2
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
# From _MRRR_MIN_ORDER on, a stack with at most this share of nonzero
# entries is checked from its nonzeros; the measured crossover lies between
# 3% and 4% at n = 256, 400 and 775 (module docstring).
_SPARSE_MAX_DENSITY = 0.03
# Eigenvectors per chunk of the nonzero residual check.
_RESIDUAL_CHUNK = 32


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real eigenvalues sorted descending, in the spectrum's own copy, which
    cannot be made writable, and their absolute sum."""

    eigenvalues: np.ndarray
    energy: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", graphs._frozen(self.eigenvalues, float))

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
    ``np.linalg.eigh`` call for a real stack, below ``_MRRR_MIN_ORDER`` or
    when ``zheevr`` is not bound, else one ``zheevr`` call per matrix.
    Unchecked."""
    k, n = stack.shape[:2]
    zheevr = _zheevr() if n >= _MRRR_MIN_ORDER and stack.dtype == complex else None
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


def _nonzeros(stack: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray] | None:
    """The nonzero entries of a stack (k, n, n), as the index arrays
    (matrix, row, column) in row-major order and the entries there, when the
    order is at least ``_MRRR_MIN_ORDER`` and at most ``_SPARSE_MAX_DENSITY``
    of the stack's entries are nonzero; else None.  A NaN or an infinity is
    nonzero."""
    if (stack.shape[1] < _MRRR_MIN_ORDER
            or np.count_nonzero(stack) > _SPARSE_MAX_DENSITY * stack.size):
        return None
    at = np.unravel_index(np.flatnonzero(stack), stack.shape)
    return at, stack[at]


def _dense_residuals(stack: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """max_i ||A v_i - lambda_i v_i|| of each matrix A of a stack, from the
    dense product A V."""
    return np.max(
        np.linalg.norm(stack @ vecs - vecs * vals[:, None, :], axis=1), axis=1
    )


def _nonzero_residuals(
    nonzeros: tuple[tuple[np.ndarray, ...], np.ndarray],
    vals: np.ndarray,
    vecs: np.ndarray,
) -> np.ndarray:
    """max_i ||A v_i - lambda_i v_i|| of each matrix A of a stack, from the
    nonzero entries ``_nonzeros`` gives, in O(nnz * n) work.  Each matrix's
    entries are regrouped as jagged diagonals (Saad, Iterative Methods for
    Sparse Linear Systems, sec. 3.4): with the rows permuted to descending
    count, the t-th entries of the rows holding more than t form diagonal t,
    which updates a prefix of the permuted rows; a column norm does not
    depend on the row order.  The columns are formed ``_RESIDUAL_CHUNK``
    eigenvectors at a time, in three buffers reused for every chunk."""
    (which, rows, cols), entries = nonzeros
    k, n = vals.shape
    residual = np.zeros(k)
    buffers = [np.empty(n * min(n, _RESIDUAL_CHUNK), dtype=complex) for _ in range(3)]
    bounds = np.searchsorted(which, np.arange(k + 1)).tolist()
    for m, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        row = rows[lo:hi]
        order = np.argsort(-np.bincount(row, minlength=n), kind="stable")
        place = np.empty(n, dtype=np.intp)
        place[order] = np.arange(n)
        rank = np.arange(hi - lo) - np.searchsorted(row, row)
        jagged = np.argsort(rank * n + place[row], kind="stable")
        col, entry = cols[lo:hi][jagged], entries[lo:hi][jagged, None]
        ends = np.cumsum(np.bincount(rank)).tolist()
        for c in range(0, n, _RESIDUAL_CHUNK):
            w = min(_RESIDUAL_CHUNK, n - c)
            v, out, term = (b[: n * w].reshape(n, w) for b in buffers)
            np.copyto(v, vecs[m, :, c : c + w])
            # every index is in range; "clip" writes straight into ``out``,
            # where "raise" would fill a temporary first
            np.take(v, order, axis=0, out=out, mode="clip")
            out *= vals[m, c : c + w]
            for start, end in zip([0] + ends, ends):
                part = term[: end - start]
                np.take(v, col[start:end], axis=0, out=part, mode="clip")
                part *= entry[start:end]
                out[: end - start] -= part
            parts = out.view(float)
            squares = np.einsum("ij,ij->j", parts, parts)
            residual[m] = max(residual[m], np.max(squares[0::2] + squares[1::2]))
    return np.sqrt(residual)


def _eigh(stack: np.ndarray, charge: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues, ascending, of each Hermitian matrix in a stack (k, n, n),
    from ``_eigenpairs``: one LAPACK call per stack below ``_MRRR_MIN_ORDER``,
    one ``zheevr`` call per complex matrix from it.  Every matrix is checked
    as ``eigenvalues`` checks one: finite entries, Hermitian within 1e-12,
    and every eigenpair's residual ||A v - lambda v|| <= 1e-8 * ||A||_2.  A
    stack that ``_nonzeros`` finds sparse is checked from its nonzero
    entries, with the same outcome for the entry checks, and its residuals
    come from ``_nonzero_residuals``; any other from dense products.  Each
    matrix's ``charge``, if given, is added to each of its residuals."""
    k, n = stack.shape[:2]
    if n == 0:
        return np.empty((k, 0))
    nonzeros = _nonzeros(stack)
    if nonzeros is None:
        nonfinite = ~np.isfinite(stack).all(axis=(1, 2))
    else:
        (which, rows, cols), entries = nonzeros
        nonfinite = np.zeros(k, dtype=bool)
        nonfinite[which[~np.isfinite(entries)]] = True
    _fail_first(
        nonfinite, ValueError, lambda i: "matrix has a non-finite entry",
    )
    if nonzeros is None:
        asymmetry = np.max(np.abs(stack - stack.conj().swapaxes(1, 2)), axis=(1, 2))
    else:
        # a pair of zero entries is symmetric, so the maximum over the
        # nonzeros is the maximum over the whole matrix
        asymmetry = np.zeros(k)
        np.maximum.at(
            asymmetry, which, np.abs(entries - stack[which, cols, rows].conj())
        )
    _fail_first(
        asymmetry > HERMITIAN_TOL, ValueError,
        lambda i: "matrix is not Hermitian within tolerance",
    )
    vals, vecs = _eigenpairs(stack)
    scale = np.max(np.abs(vals), axis=1)
    if nonzeros is None:
        residual = _dense_residuals(stack, vals, vecs)
    else:
        residual = _nonzero_residuals(nonzeros, vals, vecs)
    if charge is not None:
        residual = residual + charge
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


def _singular_values(b: np.ndarray, charge: np.ndarray | None = None) -> np.ndarray:
    """Singular values, descending, of each nonzero block in a stack
    (k, p, q), from one LAPACK call, with every singular pair verified:
    ||B v_i - sigma_i u_i|| and ||B* u_i - sigma_i v_i|| <= 1e-8 * ||B||_2
    for the full U and V, so kernel vectors are checked too (sigma_i = 0
    beyond min(p, q)).  Each block's ``charge``, if given, is added to each
    of its residuals."""
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
    if charge is not None:
        residual = residual + charge
    _fail_first(
        residual > RESIDUAL_TOL * s[:, 0], RuntimeError,
        lambda i: f"singular value residual {residual[i]:.3e} exceeds "
        f"{RESIDUAL_TOL:.0e} * ||B||",
    )
    return s


def _blocks(phi: GainGraph) -> Iterator[tuple[bool, np.ndarray, np.ndarray | None]]:
    """The blocks whose spectra make up the spectrum of ``phi``, in stacks
    (k, p, q), each with whether its blocks are bipartite biadjacency blocks
    and, for a real stack, each block's charge ||E||_F (None for a complex
    stack).  An edgeless graph has none; below ``graphs.ARRAY_MIN_ORDER`` the
    one block is ``adjacency(phi)``.  From that order on each component with
    an edge gives the adjacency matrix of its induced gain subgraph (of a
    bipartite one, the side-0 x side-1 part, both sides ascending),
    scattered from the edge arrays that one ``graphs._grouped`` pass groups
    by component: components of one kind and shape share a pass over their
    edges, in order of first appearance, and a singular value 0 gives a
    -0.0, which the sort places by input order.  A component whose edges
    all switch by ``phi._switching`` (Z = diag(zeta)) to gains with
    |Im| <= ``HERMITIAN_TOL`` gives instead the real matrix R of their real
    parts, with E = A - Z R Z^H read off the edges; the stacks of a group
    are its real blocks, then its complex ones.  Isolated vertices and the
    |p - q| kernel of a p x q bipartite block are exact zeros no block
    holds."""
    g = phi.graph
    if g.m == 0:
        return
    if g.n < graphs.ARRAY_MIN_ORDER:
        yield False, adjacency(phi)[None], None
        return
    bip = g._bipartition
    groups: dict[tuple[bool, int, int], list[list[int]]] = {}
    for comp, bipartite in zip(bip.components, bip.exists):
        if len(comp) > 1:
            if bipartite:  # side 0 first, so side 1 ranks from p
                ranked = [v for v in comp if not bip.side[v]]
                p = len(ranked)
                ranked += [v for v in comp if bip.side[v]]
                key = (True, p, len(comp) - p)
            else:
                ranked, key = list(comp), (False, len(comp), len(comp))
            groups.setdefault(key, []).append(ranked)
    rank, order, stops = graphs._grouped(
        g, [ranked for members in groups.values() for ranked in members])
    zeta = np.array(phi._switching)
    lo, first = 0, 0
    for (bipartite, p, q), members in groups.items():
        ends = stops[first : first + len(members)]
        first += len(members)
        yield from _scattered(phi, zeta, bipartite, (p, q), rank, order[lo : ends[-1]],
                              np.diff([lo] + ends))
        lo = ends[-1]


def _scattered(
    phi: GainGraph, zeta: np.ndarray, bipartite: bool, shape: tuple[int, int],
    rank: np.ndarray, edges: np.ndarray, counts: np.ndarray,
) -> Iterator[tuple[bool, np.ndarray, np.ndarray | None]]:
    """The stacks of ``_blocks`` for components of one kind and shape, whose
    edges are ``edges``, ``counts`` of them per component in turn, and whose
    vertices ``rank`` places (on side 1, from p): the real blocks, then the
    complex ones.  ``zeta`` is ``phi._switching`` as an array.  The
    switching's temporaries over the edges are freed before the blocks are
    scattered."""
    g = phi.graph
    starts = np.cumsum(counts) - counts
    us, vs = g.us[edges], g.vs[edges]
    zu, zv = zeta[us], zeta[vs]
    switched = zu.conj()
    switched *= phi.gains[edges]
    switched *= zv
    real = np.maximum.reduceat(np.abs(switched.imag), starts) <= HERMITIAN_TOL
    if real.any():
        # each edge's entry of E = A - Z R Z^H: z - zeta(u) * R * conj(zeta(v))
        zu *= switched.real
        zu *= np.conjugate(zv, out=zv)
        gap = np.abs(np.subtract(phi.gains[edges], zu, out=zu))
        charge = np.sqrt(np.add.reduceat(gap * gap, starts) * (1.0 if bipartite else 2.0))
    del zu, zv
    rows, cols = rank[us], rank[vs]
    del us, vs
    if bipartite:  # the block holds A[x, y] for x on side 0: conj(z) where u is on side 1
        flip = rows > cols
        rows, cols = np.minimum(rows, cols), np.maximum(rows, cols) - shape[0]
    for dtype in (float, complex):
        take = real if dtype is float else ~real
        if not take.any():
            continue
        # every edge, or the edges of the blocks taken
        on = slice(None) if take.all() else np.repeat(take, counts)
        stack = np.zeros((np.count_nonzero(take), *shape), dtype=dtype)
        k = np.repeat(np.arange(len(stack)), counts[take])
        if dtype is float:
            values, held = switched.real[on], charge[take]
        else:
            values, held = phi.gains[edges[on]], None
            if bipartite:
                np.conjugate(values, out=values, where=flip[on])
        stack[k, rows[on], cols[on]] = values
        if not bipartite:
            stack[k, cols[on], rows[on]] = values.conj()
        yield bipartite, stack, held


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
    order.  The ``_blocks`` of every graph are stacked by kind, dtype and
    shape, and each stack goes to one ``_eigh`` or ``_singular_values``
    call, which checks every matrix in it; the eigenvalues are then sorted
    and checked once per order.  An order whose every row is one Hermitian
    block of the row's full width, ascending as ``_eigh`` returns it, or no
    block at all (zeros) skips the sort.  Each call solves afresh and
    returns a new list."""
    phis = list(phis)
    orders: dict[int, list[int]] = {}
    for i, phi in enumerate(phis):
        _require_dense_order(phi.graph.n)
        orders.setdefault(phi.graph.n, []).append(i)
    tables = {n: np.zeros((len(members), n)) for n, members in orders.items()}
    stacks: dict[tuple[bool, np.dtype, tuple[int, ...]], list] = {}
    unsorted: set[int] = set()
    for n, members in orders.items():
        for row, i in zip(tables[n], members):
            # a row fills in its graph's block order, so the sort sees the
            # same row in any batch
            filled = 0
            for bipartite, stack, charge in _blocks(phis[i]):
                k, p, q = stack.shape
                width = 2 * min(p, q) if bipartite else p
                if bipartite or width < n:
                    unsorted.add(n)
                part = row[filled : filled + k * width].reshape(k, width)
                stacks.setdefault((bipartite, stack.dtype, (p, q)), []).append(
                    (stack, charge, part))
                filled += k * width
    for key in list(stacks):
        blocks, charges, parts = zip(*stacks.pop(key))
        # a lone stack goes as it is, as np.concatenate would copy it
        stack = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        charge = None if charges[0] is None else np.concatenate(charges)
        del blocks
        if key[0]:
            s = _singular_values(stack, charge)
            solved = np.concatenate([s, -s], axis=1)
        else:
            solved = _eigh(stack, charge)
        start = 0
        for part in parts:
            part[:] = solved[start : start + len(part)]
            start += len(part)
    specs: dict[int, Spectrum] = {}
    for n, members in orders.items():
        vals = np.sort(tables[n]) if n in unsorted else tables[n]
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
