"""Reduced density matrices and the entanglement measures computed from them.

Every measure takes a ``(P, 2**L)`` stack of amplitude rows, one state a row
(one state is ``P = 1``); the concurrences take the two-qubit density
matrices.  A :class:`ReportBatch` measures groups of sampled stacks and
finishes their reports together.  Basis conventions come from
:mod:`kicked_ising.statevec`; two-qubit density matrices are ordered (|00>,
|01>, |10>, |11>) with the first-listed qubit in the left slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .statevec import BLOCK_QUBITS, BOUNDARIES, PAULI_Y, blocks

# spin-flip kernel sigma_y (x) sigma_y; identical for either sign convention of sigma_y
_SPIN_FLIP = np.kron(PAULI_Y, PAULI_Y).real.astype(float)

_EIG_FLOOR = -1e-9  # spectra of valid density matrices may only dip this far below 0

_PPT_MARGIN = -10.0 * _EIG_FLOOR  # det rho^{T_B} over t^3 above it proves C = 0; see concurrences

_RDM_CHUNK = 1 << 16  # amplitudes per partial block-RDM product (1 MiB)

_ROW_BLOCK = 1 << 11  # amplitudes of a block of several short rows in n_tangle


def _pair_rdms(amps: np.ndarray, pairs) -> np.ndarray:
    """(P, len(pairs), 4, 4) reduced density matrices of qubits ``(i, j)``,
    qubit ``i`` leftmost, for each row of a ``(P, 2**L)`` stack.

    Fixing the pair's two bits leaves four quarter views of a row, and their
    Gram matrix is one ``np.vecdot`` that broadcasts the quarters against each
    other along the longest of their three axes (:func:`_sliced_vecdots`), so
    no copy of the state is made.  The pair (L-1-d, L-1) has quarters that are
    contiguous runs of 2^(L-1-d).
    """
    p, L = len(amps), amps.shape[-1].bit_length() - 1
    out = np.empty((p, len(pairs), 4, 4), dtype=complex)
    for k, (i, j) in enumerate(pairs):
        if not (0 <= i < L and 0 <= j < L):
            raise IndexError(f"qubit pair ({i}, {j}) out of range for {L} qubits")
        if i == j:
            raise ValueError(f"need two distinct qubits, got ({i}, {j})")
        lo, hi = min(i, j), max(i, j)
        v = amps.reshape(p, 2 ** (L - 1 - hi), 2, 2 ** (hi - lo - 1), 2, 2 ** lo)
        longest = max((5, 3, 1), key=lambda axis: v.shape[axis])  # the contiguous one on ties
        rest = [axis for axis in (1, 3, 5) if axis != longest]
        bits = (2, 4) if i > j else (4, 2)  # qubit i's bit first
        w = v.transpose(0, *rest, *bits, longest)
        (gram,) = _sliced_vecdots((w[..., None, None, :, :, :], w[..., None, None, :]))
        out[:, k] = gram.sum(axis=(1, 2)).reshape(p, 4, 4)
    return out


@lru_cache(maxsize=8)
def _bit_sums(num_bits: int) -> np.ndarray:
    """(2n, 2^n) indicator of the indices m whose bit n-d is s, row 2(d-1)+s."""
    bits = (np.arange(1 << num_bits) >> np.arange(num_bits - 1, -1, -1)[:, None]) & 1
    return np.stack([bits == 0, bits == 1], axis=1).reshape(2 * num_bits, -1).astype(complex)


# where each entry of a ring pair's 4x4 RDM sits among the 20 that
# _ring_pair_rdms gathers a pair: at 2g + s the same-bit sums S00, S11 and S01
# (g = 0, 1, 2) of qubit L-1-d's bit s, at 6 + 2a + b the cross block c[a, b],
# and at 10 on the complex conjugates of those ten
_RING_LAYOUT = np.array([[0, 14, 6, 7], [4, 2, 8, 9], [16, 18, 1, 15], [17, 19, 5, 3]])


def _ring_pair_rdms(amps: np.ndarray) -> np.ndarray:
    """(P, L // 2, 4, 4) reduced density matrices of the pairs (L-1-d, L-1),
    d = 1 .. L // 2, qubit L-1-d leftmost, for each row of a ``(P, 2**L)`` stack.

    Every pair holds qubit L-1, whose bit splits a row into two halves.  With
    each half viewed as (2^(L//2), rest), its qubits L-2 .. L-1-L//2 on the
    first axis, three dot products along ``rest`` give a Gram of the halves
    per first-axis index, and the sums of that Gram over the indices with
    qubit L-1-d's bit at 0 and at 1 are pair d's two same-bit 2x2 blocks.
    The cross block (qubit L-1-d's bit 0 against 1) takes four quarter dot
    products a pair, against the sixteen of :func:`_pair_rdms`.  No copy of
    the state is made.
    """
    p, L = len(amps), amps.shape[-1].bit_length() - 1
    K = L // 2
    halves = amps.reshape(p, 2, 1 << K, -1)
    lo, hi = halves[:, 0], halves[:, 1]
    entries = np.empty((p, K, 20), dtype=complex)  # as _RING_LAYOUT reads them
    # one dot per sum, so that a row's values do not depend on the rows
    # stacked with it, as those of one larger BLAS product could
    for k, gram in enumerate(_sliced_vecdots((lo, lo), (hi, hi), (lo, hi))):
        entries[..., 2 * k:2 * k + 2] = np.vecdot(_bit_sums(K), gram[:, None, :]).reshape(p, K, 2)
    cross = entries[..., 6:10].reshape(p, K, 2, 2)  # a view
    for d in range(1, K + 1):
        v = amps.reshape(p, 2, 1 << (d - 1), 2, -1)  # qubit L-1, qubits between, qubit L-1-d
        (c,) = _sliced_vecdots((v[:, None, :, :, 1], v[:, :, None, :, 0]))
        c.sum(axis=-1, out=cross[:, d - 1])
    np.conjugate(entries[..., :10], out=entries[..., 10:])
    return entries[..., _RING_LAYOUT]


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """``(A + A^dagger)/2`` on the last two axes."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _proven_separable(h: np.ndarray) -> np.ndarray:
    """Which matrices of a ``(N, 4, 4)`` Hermitian stack have det rho^{T_B} >
    ``_PPT_MARGIN`` t^3, t the trace.  NaN reads False.

    The determinant is the Laplace sum, over the six column pairs (a, b),
    of the 2x2 minors of rows 0 and 1 times the minors of rows 2 and 3 on
    the complementary columns (c, d), ordered so that (a, b, c, d) is an
    even permutation."""
    a, b = [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]
    c, d = [2, 3, 1, 0, 2, 0], [3, 1, 2, 3, 0, 1]
    pt = h.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    top = pt[:, 0, a] * pt[:, 1, b] - pt[:, 0, b] * pt[:, 1, a]
    bottom = pt[:, 2, c] * pt[:, 3, d] - pt[:, 2, d] * pt[:, 3, c]
    return (top * bottom).sum(axis=-1).real > _PPT_MARGIN * h.trace(axis1=1, axis2=2).real ** 3


def concurrences(rho: np.ndarray) -> np.ndarray:
    """Wootters concurrences of a ``(..., 4, 4)`` stack of two-qubit density matrices.

    With ``rho = F F^dagger``, ``F = V sqrt(w)`` from the eigendecomposition,
    the eigenvalues of ``rho rho~`` (with ``rho~`` the spin-flipped complex
    conjugate) are the squared singular values of ``S = F^T (sigma_y (x)
    sigma_y) F``.  Taking the singular values directly keeps their error at
    rounding level: a square root of a computed ``rho rho~`` eigenvalue would
    lift rounding noise to ~1e-8 on a separable pair.

    Pairs proven separable skip that spectrum.  rho^{T_B} of a positive rho
    has at most one negative eigenvalue, so det rho^{T_B} > 0 makes all four
    positive, each at most the trace t, and the smallest at least det / t^3:
    rho is PPT, so separable (Peres; Horodecki), and C = 0.  The Wootters
    path's clamp moves rho by at most 1e-9 (``_EIG_FLOOR``) and rho^{T_B} by
    at most 2e-9, so ``det > _PPT_MARGIN t^3`` (1e-8 t^3) keeps the clamped
    matrix PPT with room to spare: it reads exactly 0.0, its spectrum
    checked by ``eigvalsh`` alone.

    Returns the ``(...)`` array of max(s1 - s2 - s3 - s4, 0), with s1 the
    largest: a scalar for one ``(4, 4)`` matrix.  Raises ValueError if the
    last two axes are not (4, 4), if an entry is not finite, or if any
    matrix has an eigenvalue below -1e-9.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a stack of 4x4 density matrices, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("rho has a non-finite entry; input is not a valid density matrix")
    h = _hermitian_part(rho).reshape(-1, 4, 4)
    separable = _proven_separable(h)
    w, v = np.linalg.eigh(h[~separable])
    low = min(np.linalg.eigvalsh(h[separable]).min(initial=0.0), w.min(initial=0.0))
    if low < _EIG_FLOOR:
        raise ValueError(f"rho has eigenvalue {low:.3e} below {_EIG_FLOOR:.0e}; "
                         "input is not a valid density matrix")
    # eigenvalues below the backward-error resolution of the solver are
    # indistinguishable from exact zeros; zeroing them keeps the later square
    # root from amplifying rank-deficiency noise (~1e-16) to the 1e-8 scale
    floor = 32.0 * np.finfo(float).eps * np.maximum(w[..., -1:], 0.0)
    f = v * np.sqrt(np.where(w < floor, 0.0, w))[..., None, :]
    s = np.linalg.svd(f.swapaxes(-1, -2) @ _SPIN_FLIP @ f, compute_uv=False)
    out = np.zeros(len(h))
    out[~separable] = np.maximum(s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3], 0.0)
    return out.reshape(rho.shape[:-2])[()]


@lru_cache(maxsize=BLOCK_QUBITS)
def _bit_pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Block indices ``m`` with bit ``j`` clear and ``m | 2^j``, one row per bit ``j``."""
    m = np.arange(1 << (size - 1))
    j = np.arange(size)[:, None]
    clear = ((m >> j) << (j + 1)) | (m & ((1 << j) - 1))  # a 0 inserted at bit j
    return clear, clear | (1 << j)


def _block_rdm(amplitudes: np.ndarray, lo: int, size: int) -> np.ndarray:
    """2^s x 2^s reduced density matrix of qubits ``lo .. lo+s-1`` per row of a stack.

    Summed over slices of at most ``_RDM_CHUNK`` amplitudes a row, so that no
    temporary is larger than one slice a row.
    """
    d, p = 1 << size, len(amplitudes)
    if lo == 0:  # the block is the fastest axis: (d, rows) x (rows, d) products
        m = amplitudes.reshape(p, -1, d)
        span = max(1, _RDM_CHUNK // d)
        return sum(m[:, r:r + span].swapaxes(1, 2) @ m[:, r:r + span].conj()
                   for r in range(0, m.shape[1], span))
    v = amplitudes.reshape(p, -1, d, 1 << lo)
    rows = max(1, _RDM_CHUNK // v[0, 0].size)
    cols = min(v.shape[3], max(1, _RDM_CHUNK // d))
    parts = (v[:, r:r + rows, :, c:c + cols]
             for r in range(0, v.shape[1], rows) for c in range(0, v.shape[3], cols))
    return sum(np.matmul(q, q.conj().swapaxes(-1, -2)).sum(axis=1) for q in parts)


def _sliced_vecdots(*pairs) -> list[np.ndarray]:
    """sum_k conj(a[..., k]) b[..., k] for each ``(a, b)`` of ``pairs``, summed
    over slices of ``_RDM_CHUNK``, every pair's dot of a slice in turn while
    the slice is in cache.

    Rounding grows with the length of one dot product, so a long one is cut
    into slices whose partial sums are added."""
    sums = [np.vecdot(a[..., :_RDM_CHUNK], b[..., :_RDM_CHUNK]) for a, b in pairs]
    for r in range(_RDM_CHUNK, pairs[0][0].shape[-1], _RDM_CHUNK):
        for out, (a, b) in zip(sums, pairs):
            out += np.vecdot(a[..., r:r + _RDM_CHUNK], b[..., r:r + _RDM_CHUNK])
    return sums


def one_tangles(amps: np.ndarray, shift_invariant: bool = False) -> np.ndarray:
    """The (P, L) one-tangles of a ``(P, 2**L)`` stack: 4 det of each
    single-qubit reduced density matrix clamped to [0, 1], from one RDM per
    block.

    The blocks are those of the kick kernel
    (:func:`~kicked_ising.statevec.blocks`).  Each costs one 2^s x 2^s
    reduced-density-matrix product, whose partial traces give the block's s
    single-qubit RDMs.

    ``shift_invariant`` is the caller's assertion, not checked here, that the
    ring shift maps every row to itself up to a phase, as in :class:`ReportBatch`.
    Every qubit then has the RDM of qubit L-1, from three dot products of the
    two contiguous halves of a row, and the result is a read-only view of it.
    """
    L = amps.shape[-1].bit_length() - 1
    if shift_invariant:
        half = amps.shape[-1] // 2
        lo, hi = amps[:, :half], amps[:, half:]
        lolo, hihi, lohi = _sliced_vecdots((lo, lo), (hi, hi), (lo, hi))
        det = lolo.real * hihi.real - np.abs(lohi) ** 2
        return np.broadcast_to(np.clip(4.0 * det, 0.0, 1.0)[:, None], (len(amps), L))

    def sums(picked):  # along contiguous rows, so that a row's sum does not depend on P
        return np.ascontiguousarray(picked).sum(axis=-1)

    out = np.empty((len(amps), L))
    for lo, size in blocks(L):
        rho = _block_rdm(amps, lo, size)
        clear, isset = _bit_pairs(size)
        p = rho.diagonal(axis1=-2, axis2=-1).real
        coherence = sums(rho[:, clear, isset])
        det = sums(p[:, clear]) * sums(p[:, isset]) - np.abs(coherence) ** 2
        out[:, lo:lo + size] = np.clip(4.0 * det, 0.0, 1.0)
    return out


@lru_cache(maxsize=2)
def _parity_signs(num_qubits: int, dtype=np.int8) -> np.ndarray:
    """(-1)^popcount(b) per basis index b, as ``dtype``: the outer product of
    the signs of the index's two halves, so no temporary outgrows a half."""
    def half(n):
        counts = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
        return np.where(counts & 1, np.int8(-1), np.int8(1))

    out = np.multiply.outer(half(num_qubits - num_qubits // 2), half(num_qubits // 2))
    out = out.reshape(-1).astype(dtype)
    out.setflags(write=False)
    return out


def n_tangle(a: np.ndarray) -> np.ndarray:
    """|<psi| sigma_y^{(x) L} |psi*>|^2, the N-qubit generalization of the
    tangle, per row of a ``(P, 2**L)`` stack: a (P,) array.

    Evaluated in O(2^L) as ``|sum_b psi(b) psi(~b) (-1)^popcount(b)|^2``.  The
    terms of b and ~b are equal for even L, so the sum is twice that over
    b < 2^(L-1), reading ``psi(~b)`` from a reversed view; for odd L they
    cancel, and the n-tangle is 0.  The sum runs over slices of a row of at
    most ``_RDM_CHUNK`` amplitudes, and over blocks of rows of at most
    ``_ROW_BLOCK``, so no temporary outgrows one slice of a row however many
    rows the stack has.  A slice starts at a multiple of its power-of-two width, so its
    signs are one cached complex pattern times the sign of its start.
    """
    p, L = len(a), a.shape[-1].bit_length() - 1
    if L % 2:
        return np.zeros(p)
    half = a.shape[-1] // 2
    cols = 1 << (min(half, _RDM_CHUNK).bit_length() - 1)
    rows = max(1, _ROW_BLOCK // half)
    signs = _parity_signs(cols.bit_length() - 1, complex)
    head, tail = a[:, :half, None], a[:, None, ::-1][..., :half]
    total = np.zeros((p, 1, 1), dtype=complex)
    for c in range(0, half, cols):
        start = -1.0 if bin(c).count("1") & 1 else 1.0
        for r in range(0, p, rows):
            total[r:r + rows] += start * np.matmul(tail[r:r + rows, :, c:c + cols] * signs,
                                                   head[r:r + rows, c:c + cols])
    total = 2.0 * total[:, 0, 0]
    # np.hypot rounds as abs() of a complex does; np.abs can differ in the last bit
    return np.minimum(np.hypot(total.real, total.imag) ** 2, 1.0)


@lru_cache(maxsize=8)
def _bonds(L: int, boundary: str) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of a chain's bonds, each with i < j, in sorted order."""
    num_bonds = L if boundary == "periodic" else L - 1
    bonds = sorted({(min(i, (i + 1) % L), max(i, (i + 1) % L)) for i in range(num_bonds)})
    return tuple(np.array(side) for side in zip(*bonds))


@lru_cache(maxsize=8)
def _table_pairs(L: int, shift_invariant: bool) -> tuple[np.ndarray, np.ndarray, list | None,
                                                         np.ndarray]:
    """The table entries (i, j), i < j, the pairs whose RDMs fill them, and
    each entry's column among those pairs: all pairs, or on a shift-invariant
    ring the L // 2 pairs (L-1-d, L-1), an entry taking its ring distance's."""
    i, j = np.triu_indices(L, k=1)
    if shift_invariant:
        return i, j, None, np.minimum(j - i, L - (j - i)) - 1
    return i, j, list(zip(i.tolist(), j.tolist())), np.arange(len(i))


def _pair_columns(tangles: np.ndarray, tables: np.ndarray, boundary: str) -> dict:
    """The columns a ``(N, L, L)`` batch of pair tables derives with the
    ``(N, L)`` one-tangles, each a list or an array of one entry per report.

    Each reduction runs along the contiguous rows of one report's values, as
    it would for that report alone, so no value depends on its batch.
    """
    per_qubit = (tables ** 2).sum(axis=2)
    residual = tangles - per_qubit
    i, j = _bonds(tables.shape[-1], boundary)
    bonds = np.ascontiguousarray(tables[:, i, j])
    return {"sum_two_tangles_per_qubit": per_qubit, "residual_tangles": residual,
            "sum_two_tangles": per_qubit.mean(axis=1).tolist(),
            "residual_tangle": residual.mean(axis=1).tolist(),
            "nn_concurrence": bonds.mean(axis=1).tolist()}


@dataclass(frozen=True)
class MeasureReport:
    """Every measure of one state at one kick count.

    ``pair_concurrences`` is the symmetric (L, L) concurrence table, or None
    when the pairwise measures were skipped for speed; the columns derived
    from it then read None as well.  ``n_tangle`` is None when it was
    skipped.  ``boundary`` names the chain's bonds that ``nn_concurrence``
    averages over.  A :class:`ReportBatch` builds every report, the table's
    derived columns given with it.  ``q_measure`` is the mean one-tangle, so
    :meth:`value` reads it for ``"q"`` and ``"one_tangle"`` alike.
    """

    t: int
    num_qubits: int
    q_measure: float
    n_tangle: float | None
    one_tangles: np.ndarray
    pair_concurrences: np.ndarray | None = None
    boundary: str = "periodic"
    sum_two_tangles_per_qubit: np.ndarray | None = None
    residual_tangles: np.ndarray | None = None
    sum_two_tangles: float | None = None
    residual_tangle: float | None = None
    nn_concurrence: float | None = None  # mean over the bonds (i, i+1), and (L-1, 0) on a ring

    def value(self, measure: str) -> float:
        """Scalar value of a named measure (for averaging and CSV output)."""
        attr = {"q": "q_measure", "one_tangle": "q_measure"}.get(measure, measure)
        if not hasattr(self, attr):
            raise KeyError(f"unknown measure {measure!r}")
        out = getattr(self, attr)
        if out is None:
            raise ValueError(f"measure {measure!r} was not computed for this report")
        return float(out)


class ReportBatch:
    """Groups of sampled ``(P, 2**L)`` stacks measured as they come, their
    reports finished together.

    :meth:`add` takes a group's one-tangles, its pair RDMs if
    ``pair_measures`` and its n-tangles if ``n_tangle_measure``, and keeps
    nothing of the stack.  :meth:`finish` returns the reports of every group
    added since the last finish, in order, and :meth:`columns` their fields:
    one :func:`concurrences` call and one table fill for them all, and the
    table's derived columns computed once; it reads the pairs that their
    partial transpose proves separable, most of a nonintegrable run's, with
    no Wootters spectrum.  ``pending`` counts the complex
    entries of the pair RDMs waiting for it, so that a caller can bound them.
    A skipped measure reads None.  ``boundary``, the chain's, selects the
    bonds of ``nn_concurrence``.

    ``shift_invariant`` is the caller's assertion, not checked here, that the
    ring shift maps every row to itself up to a phase.  Every qubit then has
    the same one-tangle (see :func:`one_tangles`), and a pair's concurrence
    depends only on its ring distance d, so the table is filled from the
    L // 2 pairs (L-1-d, L-1) (:func:`_ring_pair_rdms`) instead of all
    L (L - 1) / 2 (:func:`_pair_rdms`); a ring started from a shift-invariant
    state and kicked uniformly stays so.  Only a periodic chain has the shift.
    """

    def __init__(self, pair_measures: bool = True, n_tangle_measure: bool = True,
                 boundary: str = "periodic", shift_invariant: bool = False):
        if boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
        if shift_invariant and boundary != "periodic":
            raise ValueError(f"a {boundary} chain has no ring shift to be invariant under")
        self.pair_measures, self.n_tangle_measure = pair_measures, n_tangle_measure
        self.boundary, self.shift_invariant = boundary, shift_invariant
        self.pending = 0
        self._groups = []  # (ts, one-tangles, pair RDMs, n-tangles) per group

    def add(self, amps: np.ndarray, ts) -> None:
        """Measure a stack whose row p is at kick count ``ts[p]``."""
        if len(ts) != len(amps):
            raise ValueError(f"{len(ts)} kick counts for {len(amps)} rows")
        rdms = None
        if self.pair_measures:
            L = amps.shape[-1].bit_length() - 1
            pairs = _table_pairs(L, self.shift_invariant)[2]
            rdms = _ring_pair_rdms(amps) if pairs is None else _pair_rdms(amps, pairs)
            self.pending += rdms.size
        self._groups.append((list(ts), one_tangles(amps, self.shift_invariant), rdms,
                             n_tangle(amps) if self.n_tangle_measure else None))

    def columns(self) -> dict:
        """The fields of the reports :meth:`finish` would return, by name, each
        a list or an array of one entry per report (no fields if no reports)."""
        if not self._groups:
            return {}
        ts, tangles, rdms, ns = zip(*self._groups)
        self._groups, self.pending = [], 0
        tangles = np.concatenate(tangles)
        N, L = tangles.shape
        out = {"t": [t for group in ts for t in group], "num_qubits": [L] * N,
               "q_measure": tangles.mean(axis=1).tolist(), "one_tangles": tangles,
               "n_tangle": np.concatenate(ns).tolist() if self.n_tangle_measure else [None] * N}
        if self.pair_measures:
            i, j, _, column = _table_pairs(L, self.shift_invariant)
            values = concurrences(np.concatenate(rdms))[:, column]
            tables = np.zeros((N, L, L))
            tables[:, i, j] = tables[:, j, i] = values
            out.update(pair_concurrences=tables, **_pair_columns(tangles, tables, self.boundary))
        return out

    def finish(self) -> list[MeasureReport]:
        """The reports of the groups added since the last finish, from :meth:`columns`."""
        columns = self.columns()
        return [MeasureReport(**dict(zip(columns, row)), boundary=self.boundary)
                for row in zip(*columns.values(), strict=True)]
