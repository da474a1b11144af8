"""A streamed run's first kicks, on its state as two half-chain factors.

A state t kicks away from a product of T terms has Schmidt rank at most
``T 4**t`` across the middle cut of a ring (``T 2**t`` on an open chain), so
a run's state can stay as :class:`Factors`, a high and a low factor of that
rank, for its first few kicks (:class:`FactoredKick`): each kick costs
products of the size of the factors, far below the state's.  A stack is
written from them with one batched matrix product, and the one-tangle of a
shift-invariant stack is read from them directly (:meth:`Factors.half_dots`).
"""

from __future__ import annotations

import numpy as np

from .statevec import (XFrameKick, _block_gates, _bond_phases, _check_norm,
                       _times_diagonal_power, blocks)


class Factors:
    """A ``(P, 2**L)`` stack as two half-chain factors of rank r: row p is
    ``sum_c high[p, c] (x) low[p, c]``, ``high`` a ``(P, r, 2**(L-m))`` stack
    over the qubits ``m .. L-1`` and ``low`` a ``(P, r, 2**m)`` one over the
    qubits below them, ``m = L // 2``."""

    __slots__ = ("high", "low")

    def __init__(self, high: np.ndarray, low: np.ndarray):
        self.high, self.low = high, low

    def __len__(self) -> int:
        return len(self.high)

    @property
    def shape(self) -> tuple[int, int]:
        """``(P, 2**L)``, the stack's."""
        return len(self.high), self.high.shape[-1] * self.low.shape[-1]

    def stack(self, out: np.ndarray | None = None) -> np.ndarray:
        """The stack, one batched matrix product: into ``out``, a C-contiguous
        ``(P, 2**L)`` stack, where given."""
        (P, _, a), b = self.high.shape, self.low.shape[-1]
        if out is None:
            out = np.empty((P, a * b), dtype=complex)
        np.matmul(self.high.swapaxes(1, 2), self.low, out=out.reshape(P, a, b))
        return out

    def half_dots(self) -> list[np.ndarray]:
        """The ``(P,)`` dots ``<0|0>``, ``<1|1>`` and ``<0|1>`` of the two
        halves of each row by its top bit (qubit L-1), from three Gram sums:
        with ``G = low* low^T`` and ``A_0``, ``A_1`` the high factor's halves,
        the dot of halves a and b is ``sum A_a* (G A_b)``."""
        high, low = self.high, self.low
        half = high.shape[-1] // 2
        g = np.matmul(np.matmul(low.conj(), low.swapaxes(1, 2)), high)
        lo, hi = high[..., :half], high[..., half:]
        return [np.vecdot(a, b).sum(axis=-1) for a, b in (
            (lo, g[..., :half]), (hi, g[..., half:]), (lo, g[..., half:]))]


def _squares(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The squared norms of the rows of ``Factors(high, low)``, from the
    factors' Gram matrices: ``sum_cc' G[c, c'] K[c, c']`` with
    ``G = high* high^T`` and ``K = low* low^T``."""
    grams = [np.matmul(f.conj(), f.swapaxes(1, 2)) for f in (high, low)]
    return (grams[0] * grams[1]).reshape(len(high), -1).sum(axis=-1).real


class FactoredKick:
    """The kick of ``kick``, an :class:`~kicked_ising.statevec.XFrameKick`,
    on :class:`Factors` in its frame.

    A kick maps each term's product to a product but for the bonds across
    the cut: (m-1, m), and on a ring (L-1, 0).  Each half takes ``R`` on each
    of its qubits, as the kick's real block products, then a phase table per
    class: its own bonds and frame phases, times a class for each value of
    the bit that a bond across the cut reads on the other half.  The high
    half takes the bond (m-1, m) by the value a of bit m-1 of lo, and on a
    ring a mask of its top bit by the value b; the low half a mask of its
    bit m-1 by a, and the ring's (L-1, 0) by b.  So a kick multiplies the
    rank by ``rank_growth``, 4 on a ring and 2 on an open chain; nothing is
    truncated.
    """

    def __init__(self, kick: XFrameKick):
        L, P, closed = kick.num_qubits, len(kick._frame), kick._closed
        self._kick = kick
        self.rank_growth = 4 if closed else 2
        self._halves = []  # per half, the high then the low: its qubits, gates and table
        for top, n in ((True, L - L // 2), (False, L // 2)):
            x = np.arange(1 << n)
            phases = _times_diagonal_power(_bond_phases(n, kick._j_x, False), kick._frame)
            mask = np.broadcast_to(np.arange(2)[:, None] == x >> (n - 1), (P, 2, 1 << n))
            bond = (kick._bond if top else kick._ring)[:, :, x & 1]
            a, b = (bond, mask) if top else (mask, bond)
            table = phases[:, None] * a
            if closed:
                table = table[:, :, None] * b[:, None]
            self._halves.append((n, _block_gates(blocks(n), kick._rotation),
                                 table.reshape(P, -1, 1 << n)))

    def start(self, terms: list[tuple[int, complex]]) -> Factors:
        """The factors of the kick's start from ``terms`` (``XFrameKick.factors``),
        checked and held to norm 1 as a kick holds its rows."""
        high, low = self._kick.factors(terms)
        return Factors(_check_norm(high, _squares(high, low)), low)

    def __call__(self, f: Factors) -> Factors:
        """The stack of ``f`` kicked, as factors of ``rank_growth`` times its
        rank, a column per class.  The rows are checked and held to norm 1 as
        a kick holds them, from the rotated factors, whose norms the phases
        keep: their Gram matrices are ``rank_growth**2`` times smaller."""
        rotated, P = [], len(f)
        for half, (_, gates, _) in zip((f.high, f.low), self._halves):
            x = np.ascontiguousarray(half).view(float)
            for lo, g in gates:
                x = g[:, None] @ x.reshape(P, -1, g.shape[-1], 2 << lo)
            rotated.append(x)
        squares = _squares(*(x.reshape(P, len(f.high[0]), -1).view(complex) for x in rotated))
        high, low = ((x.reshape(P, -1, 1, 2 << n).view(complex) * table[:, None]).reshape(
            P, -1, 1 << n) for x, (n, _, table) in zip(rotated, self._halves))
        return Factors(_check_norm(high, squares), low)
