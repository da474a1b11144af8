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
columns; the phases factor over the two parts of the index, so each chunk's
lowest block also carries the phases of ``hi``: no array of the state's size
besides the state.  Each row has its own rotation, phase table and frame.
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

# the fewest columns of a panel of the high qubits: each row of a panel is a
# run of 1 KiB; runs of 256 B made the pass half again as slow at 24 qubits
_PANEL_COLUMNS = 64


def _check_norm(amplitudes: np.ndarray) -> None:  # each row of a stack
    _check_squared_norms(np.vecdot(amplitudes, amplitudes).real)


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

    @property
    def num_bonds(self) -> int:
        return self.num_qubits if self.boundary == "periodic" else self.num_qubits - 1


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


def _panel_steps(source: np.ndarray, target: np.ndarray, gates, buffer: np.ndarray):
    """The panel pass that applies the gates of the high qubits to a
    ``(P, 2**h, 2**k)`` view ``source``, writing ``target`` (which may be
    ``source``): ``(columns in, columns out, panel, steps, result)``.

    The gates' lowest qubits count from the view's middle axis.  Panel c of
    ``columns in`` is copied into ``panel``, one half of ``buffer``, passed
    through the steps with the other half as the spare, and ``result`` is
    copied to panel c of ``columns out``.
    """
    P, high, width = source.shape
    columns = min(width, 1 << (len(buffer) // (2 * P * high)).bit_length() - 1)
    size = P * high * columns
    panel, spare = buffer[:size].reshape(1, P, -1), buffer[size:2 * size].reshape(P, -1)
    shift = columns.bit_length() - 1  # the view's middle axis, in qubits of a panel row
    steps, out = _products(panel, panel, [(lo + shift, gate[None]) for lo, gate in gates], spare)
    shape = (P, high, width // columns, columns)
    panels_in, panels_out = (x.reshape(shape).transpose(2, 0, 1, 3) for x in (source, target))
    one = (P, high, columns)
    return panels_in, panels_out, panel[0].reshape(one), _bound(steps), out[0].reshape(one)


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
        rows, into = (stack.reshape(kick._rows) for stack in (target, source))
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
            panels_in, panels_out, panel, steps, out = self.panels
            for c in range(len(panels_in)):
                np.copyto(panel, panels_in[c])
                for f, a, b, product in steps:
                    f(a[0], b[0], out=product[0])
                np.copyto(panels_out[c], out)
        squares = None
        for hi, chunk in enumerate(self.chunks):
            for f, a, b, out in self.steps:
                f(a[hi], b[hi], out=out[hi])
            share = np.vecdot(chunk, chunk).real
            squares = share if squares is None else squares + share
        if _check_squared_norms(squares) > _RESCALE_ATOL:  # the drifted rows, to norm 1
            for row, norm in zip(self.target, np.sqrt(squares).tolist()):
                if abs(norm - 1.0) > _RESCALE_ATOL:
                    row *= 1.0 / norm
        return self.target


class XFrameKick:
    """One kick in the sigma_x frame, with the field gate split into phases and
    a real rotation, for a ``(P, 2**L)`` stack of time series on one chain of
    ``num_qubits`` qubits and ``boundary``, row p at the point
    ``(j_x[p], b_field[p], theta[p])`` of three ``(P,)`` arrays.

    The sigma_x-frame kick is ``D (H u H)^{(x)L}``, and ``H u H`` splits as
    ``diag(l) R diag(r)`` with ``R`` real, in closed form per point
    (:func:`_field_split`).  On ``diag(r)^{(x)L} H^{(x)L} psi`` a kick is
    therefore ``R^{(x)L}``, real block passes, followed by the phases
    ``D (r l)^{(x)L}``, with each row's own ``l``, ``R`` and ``r``.  :meth:`start` builds a stack in this frame,
    which a run never leaves.

    :meth:`plan` binds the kick of one stack in the frame into another, or
    into itself, and calling it kicks a stack in place; either checks every
    row's norm (from the largest and the smallest squared norm), with each
    row's index split as ``x = hi 2**k + lo``:
    ``k = L`` for a row of up to ``_WHOLE_ROW_QUBITS`` qubits, else
    ``k = CHUNK_QUBITS``.

    * Where ``k < L``, the panel pass applies the blocks of the high qubits
      to panels of columns of the ``(2**(L-k), 2**k)`` view, through a small
      buffer.
    * The chunk pass visits each row ``hi`` of that view once, over the whole
      stack, from the source (or, after a panel pass, the target) into the
      target: the real blocks of the low qubits and the lowest block, then the
      phase table of the low qubits, and the chunk's share of the norm.  In a
      row of one chunk the lowest block goes first and the table holds every
      bond.  Otherwise it goes last, and its complex right factor, one per
      half of the chunk (bit k-1 of lo), also carries the phases of ``hi``'s
      own qubits and of the two bonds that cross the cut (bit k-1 of lo with
      bit 0 of hi, and on a ring bit 0 of lo with the top bit of hi).

    Each lowest block's right factor is embedded in real numbers once, here.
    A streamed kick reads and writes the state once per pass and holds no
    array of its size.  A row whose norm has drifted from 1 by more than
    ``_RESCALE_ATOL``, by rounding over many kicks, is rescaled to norm 1.
    """

    def __init__(self, num_qubits: int, boundary: str, j_x, b_field, theta):
        left, rotation, self._right = _field_split(b_field, theta)
        frame = self._right * left
        j_x, P = np.asarray(j_x, dtype=float), len(left)
        self.num_qubits = L = num_qubits
        k = _chunk_qubits(L)
        h = L - k
        self._rows = (P, 1 << h, 1 << k)  # the stack's view, a row hi a chunk
        layout = blocks(L) if not h else [(0, _LOWEST_QUBITS)] + [
            (_LOWEST_QUBITS + lo, size) for lo, size in blocks(k - _LOWEST_QUBITS)]
        (_, lowest), *low = _block_gates(layout, rotation)
        lowest = lowest.swapaxes(-1, -2)  # the right factor
        self._high = _block_gates(blocks(h), rotation)
        if not h:  # one chunk: the lowest block first, as blocks(L) lists it
            self._gates = [(0, _real_factor(lowest)[None]), *((lo, g[None]) for lo, g in low)]
        else:  # row hi's gates: the low blocks, then the lowest, with a factor per half
            # bond[p, s, s'] is a bond's phase between bits s and s'
            bond = np.exp(-0.25j * j_x[:, None, None] * (1.0 - 2.0 * np.eye(2)[::-1]))
            ring = bond if boundary == "periodic" else np.ones_like(bond)
            hi = np.arange(1 << h)
            # per row hi and half t of its chunk (bit k-1 of lo): hi's own phases
            # and the cut bond; per output index a: the ring bond, from a's bit 0
            scale = (_times_diagonal_power(_bond_phases(h, j_x, False), frame)[:, :, None]
                     * bond[:, :, hi & 1].swapaxes(1, 2))
            closing = ring[:, np.arange(1 << _LOWEST_QUBITS) & 1][:, :, hi >> (h - 1)]
            factors = _real_factor(lowest[:, None, None]
                                   * closing.swapaxes(1, 2)[:, :, None, None, :]
                                   * scale[:, :, :, None, None])
            self._gates = [*((lo, np.broadcast_to(g, (1 << h, *g.shape))) for lo, g in low),
                           (0, factors.swapaxes(0, 1))]
        self._low_phases = _times_diagonal_power(
            _bond_phases(k, j_x, boundary == "periodic" and not h), frame)
        # the chunks' spare, and where there are high qubits two panels of 2**k
        # amplitudes or more: at 20 qubits, 20-30% faster than panels half as wide
        width = max(2 << k, 2 * _PANEL_COLUMNS << h) if h else 1 << k
        self._buffer = np.empty(P * width, dtype=complex)
        self._spare = self._buffer[:P << k].reshape(P, -1)

    def start(self, terms: list[tuple[int, complex]], out: np.ndarray | None = None) -> np.ndarray:
        """The stack whose row p is ``diag(r_p)^{(x)L} H^{(x)L} sum a |b>`` over the
        ``(b, a)`` of ``terms``, built in the frame.

        ``H^{(x)L} |b> = 2^{-L/2} (x)_n (1, (-1)^{b_n})``, so each term is a
        product vector ``(x)_n (r_0, (-1)^{b_n} r_1)``, and as ``r_0 = 1`` its
        amplitude x is ``(-1)^{popcount(x & b)} r_1^{popcount(x)}``: a gather
        from the powers of ``r_1``.  The stack is one matrix product of the
        terms' vectors over the high qubits by those over the low qubits: one
        write per amplitude, and no temporary of its size: into ``out``, a
        C-contiguous ``(P, 2**L)`` stack, where given.
        """
        L, m = self.num_qubits, self.num_qubits // 2
        powers = np.ones((len(self._right), L - m + 1), dtype=complex)
        for k in range(1, L - m + 1):
            powers[:, k] = self._right[:, 1] * powers[:, k - 1]
        signed = np.stack([powers, -powers], 1)  # [p, parity, count]
        bits = np.array([b for b, _ in terms])[:, None]
        x = np.arange(1 << (L - m))  # the high half's indices; the low half's are a prefix
        low, high = (signed[:, np.bitwise_count(x[:1 << n] & b) & 1, np.bitwise_count(x[:1 << n])]
                     for n, b in ((m, bits), (L - m, bits >> m)))
        low *= (np.array([a for _, a in terms]) * 2.0 ** (-L / 2))[:, None]
        if out is None:
            out = np.empty((len(powers), 1 << L), dtype=complex)
        np.matmul(high.swapaxes(1, 2), low, out=out.reshape(len(out), 1 << (L - m), 1 << m))
        _check_norm(out)  # once a run: each kick checks the rows it returns
        return out

    def plan(self, source: np.ndarray, target: np.ndarray) -> _KickPlan:
        """The kick of the stack ``source`` into ``target``, as a call.

        ``target`` is ``source``, for a kick in place, or a stack of its shape
        that does not overlap it; either way the call writes only ``target``
        and the kick's buffer, and returns ``target``.
        Every operand view of the passes, the phase multiplies and the norm
        sums is bound here, once, so a run that kicks between the same
        stacks again calls the same plan.
        """
        return _KickPlan(self, source, target)

    def __call__(self, amplitudes: np.ndarray) -> np.ndarray:
        """Kick the stack ``amplitudes`` in place: the plan from it into itself."""
        return self.plan(amplitudes, amplitudes)()
