"""The kicked-Ising chain's parameters and its evolution kernel.

Basis convention (shared by every module in this package):

* The states of ``L`` qubits are a ``(P, 2**L)`` stack of complex amplitude
  rows, one state a row; one state is ``P = 1``.
* Bit ``k`` of a basis index (least-significant bit first, ``k = 0 .. L-1``)
  encodes qubit ``k``.  Bit value 1 corresponds to the spin-up state ``|1>``
  with ``S^z`` eigenvalue +1/2, so the all-down "vacuum" is basis index 0.
* In this basis ordering ``sigma_z = diag(-1, +1)``; ``sigma_x`` is the usual
  bit flip and ``sigma_y = [[0, 1j], [-1j, 0]]`` completes the Pauli algebra.

One kick of the chain is ``U = U_xx(j_x) . U_field(b, theta)``: the tilted
magnetic-field rotation ``u`` acts first on every qubit, then the
nearest-neighbour Ising coupling ``exp(-i j_x sum_n S^x_n S^x_{n+1})``.  The
coupling is a diagonal phase vector ``D`` in the ``sigma_x`` eigenbasis,
which the Hadamard ``H`` on every qubit reaches, so
``U = H^{(x)L} D (H u)^{(x)L}``.

Every evolution runs in the ``sigma_x`` frame, on ``H^{(x)L} psi``, where a
kick is ``D (H u H)^{(x)L}``.  The field gate splits as
``H u H = diag(l) R diag(r)`` with ``R`` a real rotation, in closed form from
libm's sines and cosines of B/2 and theta, one point at a time, so a run goes
one diagonal further, to ``diag(r)^{(x)L} H^{(x)L} psi``, where a kick is
``R^{(x)L}`` followed by the phases ``D (r l)^{(x)L}`` (:class:`XFrameKick`).
A run builds its start in the frame directly, as a product vector, and never
leaves it: every measure the package reports is invariant under a one-qubit
unitary on each qubit.

The product gate ``R^{(x)L}`` cuts the qubits into blocks of at most five
and applies each block's Kronecker power ``R^{(x)s}`` as one float64 matrix
product on the interleaved real view of the amplitudes.  ``R`` is real, so a
block above the lowest acts on the real and imaginary parts alike: its gate
multiplies an ``(A, 2**s, B)`` view of the real numbers, at half the
arithmetic of a complex product.  The lowest block, the fastest axis,
multiplies by a right factor ``F = g^T``, which may carry complex phases,
with each entry as a real 2x2 block (:func:`_real_factor`).  A kick is one
loop over chunks: the index of a row splits as ``x = hi 2**k + lo``, and each
chunk ``hi`` of ``2**k`` amplitudes, over the whole stack, gets the blocks of
its low qubits, a table of their phases and its share of the norm, in a
buffer that stays in cache.  A row of up to ``_WHOLE_ROW_QUBITS`` qubits is
one chunk (``k = L``).  A longer one has ``k = CHUNK_QUBITS``, and a panel
pass first applies the blocks of the qubits above ``k`` to panels of
``_PANEL_COLUMNS`` columns, read and written where they lie; the phases
factor over the two parts of the index, so each chunk's lowest block also
carries the phases of ``hi``: no array of the state's size besides the
state.  Each row has its own rotation, phase table and frame.
A kick reads one stack and writes another, or the same one in place, and
every operand view of its calls is bound once per pair of stacks
(:meth:`XFrameKick.plan`), so that a small kick, which costs numpy calls
more than arithmetic, pays for no reshape or view a kick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PAULI_Y = np.array([[0, 1j], [-1j, 0]], dtype=complex)

BOUNDARIES = ("periodic", "open")

# a norm further than this from 1 is a bug: a kick that is not unitary
_NORM_ATOL = 1e-10

# a kick rescales a row whose norm is further than this from 1: the rounding of
# the block products drifts it by up to ~2e-15 a kick, which would reach
# _NORM_ATOL within 10**5 kicks; fresh states sit well inside this
_RESCALE_ATOL = 2e-12

# qubits per fused block: a 32x32 gate makes each pass over the state compute-bound
BLOCK_QUBITS = 5

# qubits per chunk: a longer chain is kicked 2**14 amplitudes (256 KiB) at a
# time, so that a chunk, its buffer and its phase table stay in a core's
# cache; chunks of 2**15 kick no faster at 20 to 22 qubits, at twice the tables
CHUNK_QUBITS = 14

# a row of at most this many qubits is one chunk: at 15 and 16 qubits a
# streamed kick takes as long as a whole-row one, from 17 on it is faster
_WHOLE_ROW_QUBITS = 16

# the lowest block of a streamed chunk spans this many qubits; its factor carries complex
# phases, so its embedded product costs twice as much per qubit as the blocks
# above it (at 20 qubits, a kick took 16, 19 and 21 ms with 3, 4 and 5 of them)
_LOWEST_QUBITS = 3

# the columns of a panel of the high qubits, read and written where they lie:
# each row of a panel is a run of 8 KiB.  With runs of 1 KiB a kick at 24
# qubits took 385-436 ms against 314-331, and runs of 16 KiB were level at
# twice the buffer (a 2-core x86 host, one BLAS thread)
_PANEL_COLUMNS = 512


def _check_squared_norms(squares: np.ndarray) -> float:
    """The largest ``|norm - 1|`` of the rows whose squared norms are the
    ``(P,)`` array ``squares``, which must be at most ``_NORM_ATOL``: from the
    largest and the smallest square, as sqrt is monotone.  Either reduction
    passes a NaN on, and ``max`` keeps a NaN given first, so a NaN fails."""
    drift = max(abs(math.sqrt(np.maximum.reduce(squares)) - 1.0),
                abs(math.sqrt(np.minimum.reduce(squares)) - 1.0))
    if not drift <= _NORM_ATOL:
        norm = next(n for n in np.sqrt(squares).tolist() if not abs(n - 1.0) <= _NORM_ATOL)
        raise ValueError(f"state norm {norm!r} is not 1 within {_NORM_ATOL}")
    return drift


def _check_norm(stack: np.ndarray, squares: np.ndarray | None = None) -> np.ndarray:
    """A ``(P, 2**L)`` stack, checked from its rows' squared norms (or
    ``squares``, summed by the caller, for a stack of P rows of any shape),
    each row whose norm has left 1 by more than ``_RESCALE_ATOL`` rescaled
    to norm 1 in place."""
    if squares is None:
        squares = np.vecdot(stack, stack).real
    if _check_squared_norms(squares) > _RESCALE_ATOL:
        for row, norm in zip(stack, np.sqrt(squares).tolist()):
            if abs(norm - 1.0) > _RESCALE_ATOL:
                row *= 1.0 / norm
    return stack


@dataclass(frozen=True)
class ChainParams:
    """All physical knobs of one kick of the chain.

    ``j_x`` and ``b_field`` are dimensionless phases per kick (radians),
    ``theta`` is the tilt of the field in the x-z plane (0 = along the
    coupling axis, pi/2 = transverse).  The kick period is the time unit, so
    time is the integer kick count.
    """

    num_qubits: int
    j_x: float
    b_field: float
    theta: float
    boundary: str = "periodic"

    def __post_init__(self):
        if self.num_qubits < 2:
            raise ValueError(f"need at least 2 qubits, got {self.num_qubits}")
        for name in ("j_x", "b_field", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")


def blocks(num_qubits: int) -> list[tuple[int, int]]:
    """``(lowest qubit, size)`` of the ``ceil(L / BLOCK_QUBITS)`` blocks covering the chain.

    Sizes differ by at most one, the larger blocks lowest.
    """
    out, lo = [], 0
    for remaining in range(-(-num_qubits // BLOCK_QUBITS), 0, -1):
        size = -(-(num_qubits - lo) // remaining)
        out.append((lo, size))
        lo += size
    return out


def _chunk_qubits(num_qubits: int) -> int:
    """Qubits of the chunks a row of ``num_qubits`` qubits is streamed in."""
    return num_qubits if num_qubits <= _WHOLE_ROW_QUBITS else CHUNK_QUBITS


def _block_gates(layout: list[tuple[int, int]], w: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``(lowest qubit, w^{(x)s})`` for each ``(lowest qubit, s)`` block of ``layout``.

    ``w`` may be a ``(P, 2, 2)`` stack, one gate per row of a state stack.  The
    powers are built as outer products, which cost far less than ``np.kron``.
    """
    powers, power = {}, np.ones((1, 1))
    for size in sorted({size for _, size in layout}):
        while (n := power.shape[-1]) < 1 << size:
            power = (power[..., :, None, :, None] * w[..., None, :, None, :]).reshape(
                *w.shape[:-2], 2 * n, 2 * n)
        powers[size] = power
    return [(lo, powers[size]) for lo, size in layout]


def _real_factor(f: np.ndarray) -> np.ndarray:
    """The complex right factor ``f`` (a ``(..., d, d)`` stack) of a product on
    the fastest axis, as a real factor of the interleaved real view of the
    amplitudes: each entry ``f`` becomes ``[[Re f, Im f], [-Im f, Re f]]``."""
    *stack, d, _ = f.shape
    out = np.empty((*stack, d, 2, d, 2))  # [..., row, re/im in, column, re/im out]
    out[..., 0, :, 0] = out[..., 1, :, 1] = f.real
    out[..., 0, :, 1] = f.imag
    np.negative(f.imag, out=out[..., 1, :, 0])
    return out.reshape(*stack, 2 * d, 2 * d)


def _products(source: np.ndarray, target: np.ndarray, gates, spare: np.ndarray):
    """The block products of ``gates`` from ``source`` into ``target``, chunk by
    chunk: steps ``(f, a, b, out)``, each called as ``f(a[i], b[i], out=out[i])``
    for chunk i, and the operand that holds the product once they have run
    (``target`` or the spare, indexed alike).

    ``source`` and ``target`` are ``(n, P, w)`` stacks of n chunks of P rows,
    each row of a chunk contiguous, and ``spare`` a C-contiguous ``(P, w)``
    chunk that every chunk uses in turn.  A chunk's first product reads
    ``source`` into the spare, and the rest alternate between the spare and
    ``target``, so ``source`` is only read and may be ``target`` itself.
    Each gate is an ``(n, P, d, d)`` stack of real gates, one per chunk and
    row, acting on the real view.  The lowest block's gate (``lo == 0``) is
    its right factor on the fastest axis, built by :func:`_real_factor`; an
    ``(n, P, m, d, d)`` factor acts on each of m equal parts of a row.  Every
    operand is a view, whatever n is.
    """
    n, rows = source.shape[:2]
    # every chunk's spare, writable (the spare is C-contiguous)
    spare = np.ndarray((n, *spare.shape), spare.dtype, buffer=spare, strides=(0, *spare.strides))
    steps, now, free = [], source, spare
    for lo, gate in gates:
        if lo == 0:  # the fastest axis: an (A, e) x (e, e) product per row (and factor)
            shape = (n, rows, *gate.shape[2:-2], -1, gate.shape[-1])
            a, b = now.view(float).reshape(shape), gate
        else:  # an amplitude is two reals
            shape = (n, rows, -1, gate.shape[-1], 2 << lo)
            a, b = gate[..., None, :, :], now.view(float).reshape(shape)
        steps.append((np.matmul, a, b, free.view(float).reshape(shape)))
        now, free = free, target if free is spare else spare
    return steps, now


def _bound(steps) -> list:
    """The steps of one chunk with each operand taken out of its chunk axis
    once, here: ``(f, (a,), (b,), (out,))``, indexed as before."""
    return [(f, *((x[0],) for x in operands)) for f, *operands in steps]


def _copy(source: np.ndarray, _, out: np.ndarray) -> None:
    np.copyto(out, source)  # a step that copies, and allocates nothing


def _panel_steps(source: np.ndarray, target: np.ndarray, gates, buffer: np.ndarray):
    """The panel pass that applies the gates of the high qubits to a
    ``(P, 2**h, 2**k)`` view ``source``, writing ``target`` (``source`` itself
    for a kick in place): steps ``(f, a, b, out)``, each called as
    ``f(a[c], b[c], out=out[c])`` for panel c, and the number of panels.

    Panel c is ``_PANEL_COLUMNS`` columns of the view (or all of them, if it
    is narrower), and the gates' lowest qubits count from its middle axis.
    Each product takes its panel as a strided ``(P, A, 2**lo, d, 2 columns)``
    real view with the gate's axis next to last, so that a row of each
    matrix is a contiguous run of the panel and BLAS takes the rest as
    leading dimensions: the first product reads panel c of ``source`` where
    it lies, and the last writes panel c of ``target``.  The products
    between them write panel-sized intermediates in ``buffer``, two in turn
    where there are three gates or more.  In place with one gate, the
    product goes to an intermediate, and a copy writes it back.
    """
    P, high, width = source.shape
    columns = min(width, _PANEL_COLUMNS)
    n, size = width // columns, P * high * columns

    def panels(x, lo=0, d=1):  # x as (n, P, A, 2**lo, d, 2 columns) reals
        view = x.view(float).reshape(P, high // (d << lo), d, 1 << lo, -1, 2 * columns)
        view = view.transpose(4, 0, 1, 3, 2, 5)
        if len(view) < n:  # an intermediate, one panel for every c
            view = np.ndarray((n, *view.shape[1:]), float, x, strides=(0, *view.strides[1:]))
        return view

    copy_back = source is target and len(gates) == 1
    steps, now = [], source
    for i, (lo, gate) in enumerate(gates):
        d = gate.shape[-1]
        out = target if i == len(gates) - 1 and not copy_back else buffer[i % 2 * size:][:size]
        steps.append((np.matmul, np.broadcast_to(gate[:, None, None], (n, P, 1, 1, d, d)),
                      panels(now, lo, d), panels(out, lo, d)))
        now = out
    if copy_back:
        steps.append((_copy, panels(now), panels(now), panels(target)))
    return steps, n


def _bond_phases(num_qubits: int, j_x: np.ndarray, closed: bool) -> np.ndarray:
    """exp(-i (j_x/4) sum_n s_n s_{n+1}) over the bonds inside ``num_qubits``
    qubits, closed into a ring if ``closed``, per basis index: a
    ``(P, 2**num_qubits)`` table, a row per coupling, with s = +/-1 from the bits.

    A basis index with f unequal bonds has alignment n_bonds - 2f, so the
    exponential is taken once per alignment and gathered by the flip counts.
    """
    idx = np.arange(1 << num_qubits, dtype=np.uint32)
    neighbours = idx >> 1  # bit n holds qubit n + 1, and on a ring the top bit qubit 0
    if closed:
        neighbours |= (idx & 1) << num_qubits - 1
    else:
        neighbours ^= idx & 1 << num_qubits - 1  # so the top bit counts no bond
    flips = np.bitwise_count(idx ^ neighbours)
    n_bonds = num_qubits if closed else num_qubits - 1
    alignment = np.arange(n_bonds, -n_bonds - 1, -2, dtype=np.float64)
    return np.take(np.exp(-0.25j * j_x[:, None] * alignment), flips, axis=-1)


def _field_split(b_field, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(l, R, r)`` with ``H u H = diag(l) R diag(r)`` and ``R`` real, per point
    of the ``(P,)`` arrays ``b_field`` (B) and ``theta``, where ``u`` is the
    field gate exp(-i B (cos(theta) S^x + sin(theta) S^z)).

    ``H u H`` is ``[[a, -b*], [b, a*]]``, with ``a = cos(B/2) - i sin(B/2) cos(theta)``
    and ``b = i sin(B/2) sin(theta)``, so with ``R`` the rotation
    ``[[|a|, -|b|], [|b|, |a|]]`` the phases are ``l = (a/|a|, b/|b|)`` and
    ``r = (1, (l_0 l_1)*)``, taking ``arg 0 = 0`` where ``a`` or ``b`` is 0.

    The sines and cosines are libm's, from :mod:`math`, one point at a time:
    NumPy's vector loops need not round them as libm does on every platform,
    and every digit a run reports follows from the gates.  The rest is
    arithmetic that IEEE rounds alike everywhere, on each point's own
    numbers, so the split of a stack is bitwise that of each point alone.
    """
    rows = []  # per point: l as four reals, then R
    for b, t in zip(*(np.asarray(x, dtype=float).tolist() for x in (b_field, theta))):
        cos, sin = math.cos(b / 2), math.sin(b / 2)
        im_a, im_b = -sin * math.cos(t), sin * math.sin(t)
        size_a = math.sqrt(cos * cos + im_a * im_a)
        l_a = (cos / size_a, im_a / size_a) if size_a else (1.0, 0.0)
        l_b = (0.0, math.copysign(1.0, im_b)) if im_b else (1.0, 0.0)  # b / |b| is i or -i
        rows.append((*l_a, *l_b, size_a, -abs(im_b), abs(im_b), size_a))
    table = np.array(rows, dtype=float).reshape(-1, 8)
    left = np.ascontiguousarray(table[:, :4]).view(complex)
    right = np.ones_like(left)
    right[:, 1] = (left[:, 0] * left[:, 1]).conj()
    # C-contiguous, as are the block gates built from it
    return left, np.ascontiguousarray(table[:, 4:]).reshape(-1, 2, 2), right


def _times_diagonal_power(amplitudes: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Multiply row p of a ``(P, 2**L)`` stack in place by ``diag(v_p)^{(x)L}``.

    Two broadcast multiplies on a ``(P, 2**(L-m), 2**m)`` view, by the powers
    of the upper and the lower qubits, so no temporary has the state's size.
    """
    if not amplitudes.flags.c_contiguous:  # a reshape would copy, and drop the multiplies
        raise ValueError("the stack must be C-contiguous to be multiplied in place")
    L = amplitudes.shape[-1].bit_length() - 1
    low, high = L // 2, L - L // 2
    view = amplitudes.reshape(len(amplitudes), 1 << high, 1 << low)
    power = np.ones((len(v), 1), dtype=complex)
    for n in range(1, high + 1):  # power = diag(v)^{(x)n}, the lower qubits' on the way
        power = (v[:, :, None] * power[:, None, :]).reshape(len(v), -1)
        if n == low:
            view *= power[:, None, :]
    view *= power[:, :, None]
    return amplitudes


class _KickPlan:
    """One kick of ``source`` into ``target`` by ``kick``, its operands bound
    (:meth:`XFrameKick.plan`)."""

    __slots__ = ("panels", "steps", "chunks", "target")

    def __init__(self, kick: XFrameKick, source: np.ndarray, target: np.ndarray):
        for stack in (source, target):
            if not stack.flags.c_contiguous:  # a reshape would copy, and drop the writes
                raise ValueError("the stack must be C-contiguous to be changed in place")
        rows = target.reshape(kick._rows)
        into = rows if source is target else source.reshape(kick._rows)
        self.panels = _panel_steps(into, rows, kick._high, kick._buffer) if kick._high else None
        chunks = rows.swapaxes(0, 1)  # chunk hi of every row; a panel pass leaves them here
        steps, out = _products(into.swapaxes(0, 1) if self.panels is None else chunks, chunks,
                               kick._gates, kick._spare)
        phases = kick._low_phases
        steps.append((np.multiply, out, np.broadcast_to(phases, (len(chunks), *phases.shape)),
                      chunks))
        if len(chunks) == 1:  # a row of one chunk: every operand bound here
            steps, chunks = _bound(steps), (chunks[0],)
        # a streamed row's chunk operands stay (n, ...) views, each chunk's view
        # made as it is kicked, so that a plan holds no view per chunk
        self.steps, self.chunks, self.target = steps, chunks, target

    def __call__(self) -> np.ndarray:
        if self.panels is not None:
            steps, n = self.panels
            for c in range(n):
                for f, a, b, out in steps:
                    f(a[c], b[c], out=out[c])
        squares = None
        for hi, chunk in enumerate(self.chunks):
            for f, a, b, out in self.steps:
                f(a[hi], b[hi], out=out[hi])
            share = np.vecdot(chunk, chunk).real
            squares = share if squares is None else squares + share
        return _check_norm(self.target, squares)


class XFrameKick:
    """One kick in the sigma_x frame, with the field gate split into phases and
    a real rotation, for a ``(P, 2**L)`` stack of time series on one chain of
    ``num_qubits`` qubits and ``boundary``, row p at the point
    ``(j_x[p], b_field[p], theta[p])`` of three ``(P,)`` arrays.

    The sigma_x-frame kick is ``D (H u H)^{(x)L}``, and ``H u H`` splits as
    ``diag(l) R diag(r)`` with ``R`` real, in closed form per point
    (:func:`_field_split`).  On ``diag(r)^{(x)L} H^{(x)L} psi`` a kick is
    therefore ``R^{(x)L}``, real block passes, followed by the phases
    ``D (r l)^{(x)L}``, with each row's own ``l``, ``R`` and ``r``.
    :meth:`start` builds a stack in this frame, which a run never leaves.

    :meth:`plan` binds the kick of one stack in the frame into another, or
    into itself (``kick.plan(s, s)()`` kicks ``s`` in place).  A kick checks
    every row's norm (from the largest and the smallest squared norm), with
    each row's index split as ``x = hi 2**k + lo``:
    ``k = L`` for a row of up to ``_WHOLE_ROW_QUBITS`` qubits, else
    ``k = CHUNK_QUBITS``.

    * Where ``k < L`` (``streamed``), the panel pass applies the blocks of the high qubits
      to panels of ``_PANEL_COLUMNS`` columns of the ``(2**(L-k), 2**k)``
      view, reading and writing them where they lie (:func:`_panel_steps`).
    * The chunk pass visits each row ``hi`` of that view once, over the whole
      stack, from the source (or, after a panel pass, the target) into the
      target: the real blocks of the low qubits and the lowest block, then the
      phase table of the low qubits, and the chunk's share of the norm.  In a
      row of one chunk the lowest block goes first and the table holds every
      bond.  Otherwise it goes last, and its complex right factor, one per
      half of the chunk (bit k-1 of lo), also carries the phases of ``hi``'s
      own qubits and of the two bonds that cross the cut (bit k-1 of lo with
      bit 0 of hi, and on a ring bit 0 of lo with the top bit of hi).

    The tables, the lowest blocks' right factors (embedded in real numbers)
    and the buffer are built at the first plan, so a run that is never
    planned holds none.
    A streamed kick reads and writes the state once per pass and holds no
    array of its size.  A row whose norm has drifted from 1 by more than
    ``_RESCALE_ATOL``, by rounding over many kicks, is rescaled to norm 1.
    """

    def __init__(self, num_qubits: int, boundary: str, j_x, b_field, theta):
        left, self._rotation, self._right = _field_split(b_field, theta)
        self._frame = self._right * left
        self._j_x = j_x = np.asarray(j_x, dtype=float)
        self.num_qubits = L = num_qubits
        self._closed = boundary == "periodic"
        # bond[p, s, s'] is a bond's phase between bits s and s'; ring the
        # closing bond's, ones on an open chain
        self._bond = np.exp(-0.25j * j_x[:, None, None] * (1.0 - 2.0 * np.eye(2)[::-1]))
        self._ring = self._bond if self._closed else np.ones_like(self._bond)
        k = _chunk_qubits(L)
        self._rows = (len(left), 1 << (L - k), 1 << k)  # the stack's view, a row hi a chunk
        self.streamed = k < L  # a row has a panel pass
        self._gates = None

    def _build(self) -> None:
        """The chunk pass's gates and phase table, the panel pass's gates, and the buffer."""
        (P, rows, width), rotation, frame = self._rows, self._rotation, self._frame
        h, k = rows.bit_length() - 1, width.bit_length() - 1
        layout = blocks(k) if not h else [(0, _LOWEST_QUBITS)] + [
            (_LOWEST_QUBITS + lo, size) for lo, size in blocks(k - _LOWEST_QUBITS)]
        (_, lowest), *low = _block_gates(layout, rotation)
        lowest = lowest.swapaxes(-1, -2)  # the right factor
        self._high = _block_gates(blocks(h), rotation)
        if not h:  # one chunk: the lowest block first, as blocks(L) lists it
            self._gates = [(0, _real_factor(lowest)[None]), *((lo, g[None]) for lo, g in low)]
        else:  # row hi's gates: the low blocks, then the lowest, with a factor per half
            hi = np.arange(rows)
            # per row hi and half t of its chunk (bit k-1 of lo): hi's own phases
            # and the cut bond; per output index a: the ring bond, from a's bit 0
            scale = (_times_diagonal_power(_bond_phases(h, self._j_x, False), frame)[:, :, None]
                     * self._bond[:, :, hi & 1].swapaxes(1, 2))
            closing = self._ring[:, np.arange(1 << _LOWEST_QUBITS) & 1][:, :, hi >> (h - 1)]
            factors = _real_factor(lowest[:, None, None]
                                   * closing.swapaxes(1, 2)[:, :, None, None, :]
                                   * scale[:, :, :, None, None])
            self._gates = [*((lo, np.broadcast_to(g, (rows, *g.shape))) for lo, g in low),
                           (0, factors.swapaxes(0, 1))]
        self._low_phases = _times_diagonal_power(
            _bond_phases(k, self._j_x, self._closed and not h), frame)
        # the chunks' spare, and the panel pass's intermediate: a panel of 2**h
        # rows, or two where the high qubits make three blocks or more (from 25
        # qubits); 512 KiB a row at 20 qubits, 2 MiB at 22 and 8 MiB at 24
        width = max(width, (1 if len(self._high) < 3 else 2) * min(width, _PANEL_COLUMNS) * rows)
        self._buffer = np.empty(P * width, dtype=complex)
        self._spare = self._buffer[:P << k].reshape(P, -1)

    def factors(self, terms: list[tuple[int, complex]]) -> tuple[np.ndarray, np.ndarray]:
        """The high and the low factor of rank ``len(terms)``, unchecked, of
        the stack whose row p is ``diag(r_p)^{(x)L} H^{(x)L} sum a |b>`` over
        the ``(b, a)`` of ``terms``, built in the frame: row p is
        ``sum_c high[p, c] (x) low[p, c]``, ``high`` a ``(P, r, 2**(L-m))``
        stack over the qubits ``m .. L-1`` and ``low`` a ``(P, r, 2**m)`` one
        over the qubits below them, ``m = L // 2``.

        ``H^{(x)L} |b> = 2^{-L/2} (x)_n (1, (-1)^{b_n})``, so each term is a
        product vector ``(x)_n (r_0, (-1)^{b_n} r_1)``, and as ``r_0 = 1`` its
        amplitude x is ``(-1)^{popcount(x & b)} r_1^{popcount(x)}``: a gather
        from the powers of ``r_1``, a factor per term on each half.
        """
        L, m = self.num_qubits, self.num_qubits // 2
        P, h = len(self._right), L - m
        powers = np.ones((P, h + 1), dtype=complex)
        for k in range(1, h + 1):
            powers[:, k] = self._right[:, 1] * powers[:, k - 1]
        signed = np.stack([powers, -powers], 1)  # [p, parity, count]
        bits = np.array([b for b, _ in terms])[:, None]
        x = np.arange(1 << h)  # the high half's indices; the low half's are a prefix
        low, high = (np.ascontiguousarray(  # the gather's rows would be strided
            signed[:, np.bitwise_count(x[:1 << n] & b) & 1, np.bitwise_count(x[:1 << n])])
            for n, b in ((m, bits), (h, bits >> m)))
        low *= (np.array([a for _, a in terms]) * 2.0 ** (-L / 2))[:, None]
        return high, low

    def start(self, terms: list[tuple[int, complex]], out: np.ndarray | None = None) -> np.ndarray:
        """The stack of :meth:`factors`, one matrix product, checked and held
        to norm 1 as a kick holds its rows: into ``out``, a C-contiguous
        ``(P, 2**L)`` stack, where given, with no temporary of its size.
        The squared norms are ``sum_cc' G[c, c'] K[c, c']``, from the factors'
        Gram matrices ``G[c, c'] = <high_c, high_c'>`` and ``K`` alike, which
        round far less than a sum over the stack."""
        high, low = self.factors(terms)
        if out is None:
            out = np.empty((len(high), high.shape[-1] * low.shape[-1]), dtype=complex)
        np.matmul(high.swapaxes(1, 2), low, out=out.reshape(len(high), high.shape[-1], -1))
        grams = [np.vecdot(f[:, :, None], f[:, None]) for f in (high, low)]
        return _check_norm(out, (grams[0] * grams[1]).reshape(len(out), -1).sum(axis=-1).real)

    def plan(self, source: np.ndarray, target: np.ndarray) -> _KickPlan:
        """The kick of the stack ``source`` into ``target``, as a call.

        ``target`` is ``source``, for a kick in place, or a stack of its shape
        that does not overlap it; either way the call writes only ``target``
        and the kick's buffer, and returns ``target``.
        Every operand view of the passes, the phase multiplies and the norm
        sums is bound here, once, so a run that kicks between the same
        stacks again calls the same plan.
        """
        if self._gates is None:
            self._build()
        return _KickPlan(self, source, target)
