"""Reduced density matrices and the entanglement measures computed from them.

Every measure takes a ``(P, 2**L)`` stack of amplitude rows, one state a row
(one state is ``P = 1``), and :func:`reports` assembles them; the
concurrences take the two-qubit density matrices.  All are pure functions.
Basis conventions come from :mod:`kicked_ising.statevec`; two-qubit density
matrices are ordered (|00>, |01>, |10>, |11>) with the first-listed qubit in
the left slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .statevec import BLOCK_QUBITS, BOUNDARIES, PAULI_Y, blocks

# spin-flip kernel sigma_y (x) sigma_y; identical for either sign convention of sigma_y
_SPIN_FLIP = np.kron(PAULI_Y, PAULI_Y).real.astype(float)

_EIG_FLOOR = -1e-9  # spectra of valid density matrices may only dip this far below 0

_RDM_CHUNK = 1 << 16  # amplitudes per partial block-RDM product (1 MiB)


def _pair_rdms(amps: np.ndarray, pairs) -> np.ndarray:
    """(P, len(pairs), 4, 4) reduced density matrices of qubits ``(i, j)``,
    qubit ``i`` leftmost, for each row of a ``(P, 2**L)`` stack.

    Fixing the pair's two bits leaves four quarter views of a row, and their
    Gram matrix is one ``np.vecdot`` that broadcasts the quarters against each
    other along the longest of their three axes (:func:`_sliced_vecdot`), so
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
        gram = _sliced_vecdot(w[..., None, None, :, :, :], w[..., None, None, :])
        out[:, k] = gram.sum(axis=(1, 2)).reshape(p, 4, 4)
    return out


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """``(A + A^dagger)/2`` over the last two axes, to shed rounding noise."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _clamped_spectrum(w: np.ndarray) -> np.ndarray:
    """Check and clean a ``(..., n)`` stack of ascending density-matrix spectra."""
    if w.size and w.min() < _EIG_FLOOR:
        raise ValueError(f"rho has eigenvalue {w.min():.3e} below {_EIG_FLOOR:.0e}; "
                         "input is not a valid density matrix")
    # eigenvalues below the backward-error resolution of the solver are
    # indistinguishable from exact zeros; zeroing them keeps the later square
    # root from amplifying rank-deficiency noise (~1e-16) to the 1e-8 scale
    floor = 32.0 * np.finfo(float).eps * np.maximum(w[..., -1:], 0.0)
    return np.where(w < floor, 0.0, w)


def concurrences(rho: np.ndarray) -> np.ndarray:
    """Wootters concurrences of a ``(..., 4, 4)`` stack of two-qubit density matrices.

    With ``rho = F F^dagger``, ``F = V sqrt(w)`` from the eigendecomposition,
    the eigenvalues of ``rho rho~`` (with ``rho~`` the spin-flipped complex
    conjugate) are the squared singular values of ``S = F^T (sigma_y (x)
    sigma_y) F``.  Taking the singular values directly keeps their error at
    rounding level: a square root of a computed ``rho rho~`` eigenvalue would
    lift rounding noise to ~1e-8 on a separable pair.  Each of the two
    decompositions of the whole stack is one LAPACK call.  Returns the
    ``(...)`` array of max(s1 - s2 - s3 - s4, 0), with s1 the largest.
    Raises ValueError if any matrix in the stack has an eigenvalue below -1e-9.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a stack of 4x4 density matrices, got shape {rho.shape}")
    w, v = np.linalg.eigh(_hermitian_part(rho))
    f = v * np.sqrt(_clamped_spectrum(w))[..., None, :]
    s = np.linalg.svd(f.swapaxes(-1, -2) @ _SPIN_FLIP @ f, compute_uv=False)
    return np.maximum(s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3], 0.0)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of one two-qubit density matrix (see :func:`concurrences`)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    return float(concurrences(rho[None])[0])


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


def _sliced_vecdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k conj(a[..., k]) b[..., k], summed over slices of ``_RDM_CHUNK``.

    Rounding grows with the length of one dot product, so a long one is cut
    into slices whose partial sums are added."""
    n = a.shape[-1]
    return sum(np.vecdot(a[..., r:r + _RDM_CHUNK], b[..., r:r + _RDM_CHUNK])
               for r in range(0, n, _RDM_CHUNK))


def one_tangles(amps: np.ndarray, shift_invariant: bool = False) -> np.ndarray:
    """The (P, L) one-tangles of a ``(P, 2**L)`` stack: 4 det of each
    single-qubit reduced density matrix clamped to [0, 1], from one RDM per
    block.

    The blocks are those of the kick kernel
    (:func:`~kicked_ising.statevec.blocks`).  Each costs one 2^s x 2^s
    reduced-density-matrix product, whose partial traces give the block's s
    single-qubit RDMs.

    ``shift_invariant`` is the caller's assertion, not checked here, that the
    ring shift maps every row to itself up to a phase, as in :func:`reports`.
    Every qubit then has the RDM of qubit L-1, whose entries are three dot
    products of the two contiguous halves of a row.
    """
    L = amps.shape[-1].bit_length() - 1
    if shift_invariant:
        half = amps.shape[-1] // 2
        lo, hi = amps[:, :half], amps[:, half:]
        det = (_sliced_vecdot(lo, lo).real * _sliced_vecdot(hi, hi).real
               - np.abs(_sliced_vecdot(lo, hi)) ** 2)
        return np.repeat(np.clip(4.0 * det, 0.0, 1.0)[:, None], L, axis=1)
    out = np.empty((len(amps), L))
    for lo, size in blocks(L):
        rho = _block_rdm(amps, lo, size)
        clear, isset = _bit_pairs(size)
        p = rho.diagonal(axis1=-2, axis2=-1).real
        coherence = rho[:, clear, isset].sum(axis=-1)
        det = p[:, clear].sum(axis=-1) * p[:, isset].sum(axis=-1) - np.abs(coherence) ** 2
        out[:, lo:lo + size] = np.clip(4.0 * det, 0.0, 1.0)
    return out


@lru_cache(maxsize=2)
def _parity_signs(num_qubits: int) -> np.ndarray:
    """(-1)^popcount(b) per basis index b, as int8: the outer product of the
    signs of the index's two halves, so no temporary outgrows a half."""
    def half(n):
        counts = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
        return np.where(counts & 1, np.int8(-1), np.int8(1))

    out = np.multiply.outer(half(num_qubits - num_qubits // 2), half(num_qubits // 2)).reshape(-1)
    out.setflags(write=False)
    return out


def n_tangle(a: np.ndarray) -> np.ndarray:
    """|<psi| sigma_y^{(x) L} |psi*>|^2, the N-qubit generalization of the
    tangle, per row of a ``(P, 2**L)`` stack: a (P,) array.

    Evaluated in O(2^L) as ``|sum_b psi(b) psi(~b) (-1)^popcount(b)|^2``; the
    complement pairing makes it vanish identically for odd L.  The sum runs
    over slices of ``_RDM_CHUNK`` amplitudes, reading ``psi(~b)`` as a
    reversed view, so no temporary is larger than one slice a row.
    """
    signs = _parity_signs(a.shape[-1].bit_length() - 1)
    flipped = a[:, ::-1]
    total = sum(np.matmul((flipped[:, r:r + _RDM_CHUNK] * signs[r:r + _RDM_CHUNK])[:, None, :],
                          a[:, r:r + _RDM_CHUNK, None])[:, 0, 0]
                for r in range(0, a.shape[-1], _RDM_CHUNK))
    # np.hypot rounds as abs() of a complex does; np.abs can differ in the last bit
    return np.minimum(np.hypot(total.real, total.imag) ** 2, 1.0)


@lru_cache(maxsize=8)
def _bonds(L: int, boundary: str) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of a chain's bonds, each with i < j, in sorted order."""
    num_bonds = L if boundary == "periodic" else L - 1
    bonds = sorted({(min(i, (i + 1) % L), max(i, (i + 1) % L)) for i in range(num_bonds)})
    return tuple(np.array(side) for side in zip(*bonds))


@dataclass(frozen=True)
class MeasureReport:
    """Every measure of one state at one kick count.

    ``pair_concurrences`` is the symmetric (L, L) concurrence table, or None
    when the pairwise measures were skipped for speed; the derived scalars
    then come back as None as well.  ``n_tangle`` is None when it was
    skipped.  ``boundary`` names the chain's bonds that ``nn_concurrence``
    averages over.
    """

    t: int
    num_qubits: int
    q_measure: float
    n_tangle: float | None
    one_tangles: np.ndarray
    pair_concurrences: np.ndarray | None
    boundary: str = "periodic"

    @property
    def one_tangle(self) -> float:
        return float(self.one_tangles.mean())

    @cached_property  # read by three of the properties below
    def sum_two_tangles_per_qubit(self) -> np.ndarray | None:
        if self.pair_concurrences is None:
            return None
        return (self.pair_concurrences ** 2).sum(axis=1)

    @property
    def sum_two_tangles(self) -> float | None:
        per_qubit = self.sum_two_tangles_per_qubit
        return None if per_qubit is None else float(per_qubit.mean())

    @property
    def residual_tangles(self) -> np.ndarray | None:
        per_qubit = self.sum_two_tangles_per_qubit
        return None if per_qubit is None else self.one_tangles - per_qubit

    @property
    def residual_tangle(self) -> float | None:
        per_focus = self.residual_tangles
        return None if per_focus is None else float(per_focus.mean())

    @property
    def nn_concurrence(self) -> float | None:
        """Mean concurrence over the bonds (i, i+1), plus (L-1, 0) on a ring."""
        if self.pair_concurrences is None:
            return None
        return float(self.pair_concurrences[_bonds(self.num_qubits, self.boundary)].mean())

    def value(self, measure: str) -> float:
        """Scalar value of a named measure (for averaging and CSV output)."""
        attr = {"q": "q_measure"}.get(measure, measure)
        if not hasattr(self, attr):
            raise KeyError(f"unknown measure {measure!r}")
        out = getattr(self, attr)
        if out is None:
            raise ValueError(f"measure {measure!r} was not computed for this report")
        return float(out)


def reports(amps: np.ndarray, ts, pair_measures: bool = True, n_tangle_measure: bool = True,
            boundary: str = "periodic", shift_invariant: bool = False) -> list[MeasureReport]:
    """The measures of each row of a ``(P, 2**L)`` stack, row p at kick count
    ``ts[p]``, each for the whole stack at once: the one-tangles always, the
    pair table if ``pair_measures`` and the n-tangle if ``n_tangle_measure``;
    a skipped measure reads None.

    ``boundary`` is that of the chain the states live on; it selects the
    bonds of ``nn_concurrence``.

    ``shift_invariant`` is the caller's assertion, not checked here, that the
    ring shift maps every row to itself up to a phase.  Every qubit then has
    the same one-tangle (see :func:`one_tangles`), and a pair's concurrence
    depends only on its ring distance d, so the table is filled from the
    L // 2 pairs (L-1-d, L-1) instead of all L (L - 1) / 2; a ring started
    from a shift-invariant state and kicked uniformly stays so.  Only a
    periodic chain has the shift.
    """
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
    if shift_invariant and boundary != "periodic":
        raise ValueError(f"a {boundary} chain has no ring shift to be invariant under")
    L = amps.shape[-1].bit_length() - 1
    tangles = one_tangles(amps, shift_invariant)
    tables = [None] * len(amps)
    if pair_measures:
        i, j = np.triu_indices(L, k=1)
        if shift_invariant:
            by_distance = concurrences(_pair_rdms(amps, [(L - 1 - d, L - 1)
                                                         for d in range(1, L // 2 + 1)]))
            values = by_distance[:, np.minimum(j - i, L - (j - i)) - 1]
        else:
            values = concurrences(_pair_rdms(amps, list(zip(i.tolist(), j.tolist()))))
        tables = np.zeros((len(amps), L, L))
        tables[:, i, j] = tables[:, j, i] = values
    n_tangles = n_tangle(amps).tolist() if n_tangle_measure else [None] * len(amps)
    return [MeasureReport(t=t, num_qubits=L, q_measure=q, n_tangle=n, one_tangles=row,
                          pair_concurrences=table, boundary=boundary)
            for t, q, n, row, table in zip(ts, tangles.mean(axis=1).tolist(), n_tangles,
                                           tangles, tables, strict=True)]
