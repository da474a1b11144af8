"""Pure-state representation and the kicked-Ising evolution kernels.

Basis convention (shared by every module in this package):

* A state of ``L`` qubits is a length ``2**L`` complex amplitude array.
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

Every product gate ``w^{(x)L}`` (the Walsh-Hadamard transform and the
kick's field rotation) goes through one kernel.  It cuts the chain into
``ceil(L / 5)`` blocks of at most five qubits and applies each block's
Kronecker power ``w^{(x)s}`` as one matrix product on an ``(A, 2**s, B)``
view of the amplitudes: ``ceil(L / 5)`` passes over the state, not ``L``.
Its gates are real.  The lowest block, the fastest axis, takes a complex
product; every block above it acts on the real and imaginary parts alike, so
its product runs on the real view of the amplitudes, at half the arithmetic.

Every evolution runs in the ``sigma_x`` frame, on ``H^{(x)L} psi``, where a
kick is ``D (H u H)^{(x)L}``.  The field gate splits as
``H u H = diag(l) R diag(r)`` with ``R`` a real rotation, so a run goes one
diagonal further, to ``diag(r)^{(x)L} H^{(x)L} psi``, where a kick is
``R^{(x)L}`` followed by the phase vector ``D (r l)^{(x)L}``, built once
(:class:`XFrameKick`).  It acts on a ``(P, 2**L)`` stack of states with one
row, rotation, phases and frame per parameter point.  :func:`step` enters the
frame and leaves it around one kick; a time series never leaves it, as every
measure the package reports is invariant under a one-qubit unitary on each
qubit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, 1j], [-1j, 0]], dtype=complex)
PAULI_Z = np.array([[-1, 0], [0, 1]], dtype=complex)

BOUNDARIES = ("periodic", "open")

_NORM_ATOL = 1e-10  # fresh states sit at 1e-12; long runs may drift towards this

# qubits per fused block: a 32x32 gate makes each pass over the state compute-bound
BLOCK_QUBITS = 5

# The Walsh-Hadamard gate is _SIGN / sqrt(2).  The kernels keep _SIGN's exact
# +-1 entries and gather the powers of 1/sqrt(2) into exact powers of 1/2
# wherever they can, so a long run's norm does not drift one rounding per pass.
_SIGN = np.array([[1.0, 1.0], [1.0, -1.0]])

# the signs of the rotation [[|a|, -|b|], [|b|, |a|]], flattened
_ROTATION_SIGNS = np.array([1.0, -1.0, 1.0, 1.0])


def _check_norm(amplitudes: np.ndarray) -> None:  # one state or each row of a stack
    for norm in np.sqrt(np.vecdot(amplitudes, amplitudes).real).reshape(-1).tolist():
        if not abs(norm - 1.0) <= _NORM_ATOL:  # so a NaN norm fails too
            raise ValueError(f"state norm {norm!r} is not 1 within {_NORM_ATOL}")


@dataclass(frozen=True)
class PureState:
    """Unit-norm pure state of ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 2:
            raise ValueError(f"need at least 2 qubits, got {self.num_qubits}")
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape != (2 ** self.num_qubits,):
            raise ValueError(
                f"amplitude array of shape {self.amplitudes.shape} does not match "
                f"num_qubits={self.num_qubits}"
            )
        _check_norm(amps)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


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
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")

    @property
    def num_bonds(self) -> int:
        return self.num_qubits if self.boundary == "periodic" else self.num_qubits - 1


def make_basis_state(num_qubits: int, bits: str) -> PureState:
    """Computational basis state from a bitstring in ket order.

    The leftmost character of ``bits`` is qubit ``L-1``, the rightmost is
    qubit 0, i.e. the basis index is ``int(bits, 2)``.
    """
    if num_qubits < 2:
        raise ValueError(f"need at least 2 qubits, got {num_qubits}")
    if len(bits) != num_qubits or any(c not in "01" for c in bits):
        raise ValueError(f"bits must be a 0/1 string of length {num_qubits}, got {bits!r}")
    amps = np.zeros(2 ** num_qubits, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return PureState(num_qubits, amps)


def make_vacuum(num_qubits: int) -> PureState:
    """All spins down: basis index 0."""
    return make_basis_state(num_qubits, "0" * num_qubits)


def make_ghz(num_qubits: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if num_qubits < 2:
        raise ValueError(f"need at least 2 qubits, got {num_qubits}")
    amps = np.zeros(2 ** num_qubits, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return PureState(num_qubits, amps)


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


def _block_gates(num_qubits: int, w: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``(lowest qubit, w^{(x)s})`` for each block of :func:`blocks`.

    ``w`` may be a ``(P, 2, 2)`` stack, one gate per row of a state stack.  The
    powers are built as outer products, which cost far less than ``np.kron``.
    """
    gates, power = [], np.ones((1, 1))
    for lo, size in reversed(blocks(num_qubits)):  # sizes ascend
        while (n := power.shape[-1]) < 1 << size:
            power = (power[..., :, None, :, None] * w[..., None, :, None, :]).reshape(
                *w.shape[:-2], 2 * n, 2 * n)
        gates.append((lo, power))
    return gates[::-1]


def _fused_pass(amps: np.ndarray, gates, spare: np.ndarray):
    """Apply every block gate, alternating between ``amps`` and ``spare``.

    ``amps`` may be a ``(P, 2**L)`` stack and each gate a real ``(P, d, d)``
    stack; above the lowest block it multiplies the real view of ``amps``.
    Returns ``(result, spare)``: the buffer that holds the product and the
    one left free.
    """
    rows = amps.size // amps.shape[-1]
    real = np.finfo(amps.dtype).dtype
    reals, spare_reals = amps.view(real), spare.view(real)
    per_amp = reals.shape[-1] // amps.shape[-1]  # 2 for complex amplitudes, 1 for real ones
    for lo, gate in gates:
        d = gate.shape[-1]
        if lo == 0:  # the block is the fastest axis: one (A, d) x (d, d) product per row;
            # with a transposed view as its right factor numpy would stage it in a copy
            gate = gate.astype(amps.dtype, copy=False)  # mixed dtypes also cost a copy
            np.matmul(amps.reshape(rows, -1, d), np.ascontiguousarray(gate.swapaxes(-1, -2)),
                      out=spare.reshape(rows, -1, d))
        else:
            shape = (rows, -1, d, per_amp << lo)
            np.matmul(gate[..., None, :, :], reals.reshape(shape), out=spare_reals.reshape(shape))
        amps, spare = spare, amps
        reals, spare_reals = spare_reals, reals
    return amps, spare


def fwht_inplace(amplitudes: np.ndarray) -> np.ndarray:
    """In-place normalized fast Walsh-Hadamard transform, H^{tensor L}.

    Applies ``H = [[1, 1], [1, -1]]/sqrt(2)`` on every qubit through the
    fused product-gate kernel; the transform is involutive.  The array length
    (the row length of a ``(P, 2**L)`` stack) must be a power of two.
    """
    n = amplitudes.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"length {n} is not a power of two")
    L = n.bit_length() - 1
    gates = _block_gates(L, _SIGN)
    if gates:  # the whole 2^(-L/2), exact for even L, goes into the first gate
        gates[0] = (0, gates[0][1] * 2.0 ** (-L / 2))
    out, _ = _fused_pass(amplitudes, gates, np.empty_like(amplitudes))
    if out is not amplitudes:
        amplitudes[...] = out
    return amplitudes


@lru_cache(maxsize=2)
def _bond_flips(num_qubits: int, boundary: str) -> np.ndarray:
    """How many bonds join unequal bits, per basis index, as uint8.

    Built from the two halves of the index ``hi 2^m + lo``, each of ``2^(L/2)``
    values: their own counts, plus the bond across the cut and, on a ring,
    the bond that closes it, in broadcast uint8 adds.
    """
    def half(n):  # an n-bit half's own unequal bonds, and its lowest and highest bits
        idx = np.arange(1 << n, dtype=np.uint32)
        count = np.bitwise_count((idx ^ (idx >> 1)) & ((1 << (n - 1)) - 1)).astype(np.uint8)
        return count, (idx & 1).astype(np.uint8), (idx >> (n - 1)).astype(np.uint8)

    m = num_qubits // 2
    lo, lo_first, lo_last = half(m)
    hi, hi_first, hi_last = half(num_qubits - m)
    out = hi[:, None] + lo[None, :]
    out += hi_first[:, None] ^ lo_last[None, :]
    if boundary == "periodic":
        out += hi_last[:, None] ^ lo_first[None, :]
    out = out.reshape(-1)
    out.setflags(write=False)
    return out


def _ising_phase_vector(num_qubits: int, j_x, boundary: str) -> np.ndarray:
    """exp(-i (j_x/4) sum_n s_n s_{n+1}) per sigma_x eigenbasis index (a row per j_x),
    with s = +/-1 from the bits.

    A basis index with k unequal bonds has alignment n_bonds - 2k, so the
    exponential is taken once per alignment and gathered by the flip counts.
    """
    n_bonds = num_qubits if boundary == "periodic" else num_qubits - 1
    alignment = np.arange(n_bonds, -n_bonds - 1, -2, dtype=np.float64)
    table = np.exp(-0.25j * np.asarray(j_x, dtype=float)[..., None] * alignment)
    return np.take(table, _bond_flips(num_qubits, boundary), axis=-1)


def field_unitary(b_field: float, theta: float) -> np.ndarray:
    """The 2x2 one-qubit rotation exp(-i b (cos(theta) S^x + sin(theta) S^z))."""
    axis = math.cos(theta) * PAULI_X + math.sin(theta) * PAULI_Z
    return math.cos(b_field / 2) * np.eye(2) - 1j * math.sin(b_field / 2) * axis


def _split_field_gates(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(l, R, r)`` with ``H u H = diag(l) R diag(r)`` and ``R`` real, per row of a
    ``(P, 2, 2)`` stack of field gates ``u``.

    ``w = H u H`` is in SU(2), ``[[a, -b*], [b, a*]]``, so with ``R`` the
    rotation ``[[|a|, -|b|], [|b|, |a|]]`` the phases are
    ``l = (e^{i arg a}, e^{i arg b})`` and ``r = (1, e^{-i(arg a + arg b)})``,
    taking ``arg 0 = 0`` where ``a`` or ``b`` is 0.
    """
    column = u.sum(axis=-1) @ _SIGN / 2.0  # (a, b) = H u H e_0, and H e_0 = (1, 1) / sqrt(2)
    size = np.abs(column)
    left = np.divide(column, size, out=np.ones_like(column), where=size > 0)
    right = np.ones_like(left)
    right[:, 1] = (left[:, 0] * left[:, 1]).conj()
    rotation = (size[:, [0, 1, 1, 0]] * _ROTATION_SIGNS).reshape(-1, 2, 2)
    return left, rotation, right


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


def step(state: PureState, params: ChainParams) -> PureState:
    """One kick ``U = U_xx(j_x) . U_field(b, theta)``: the kick of
    :class:`XFrameKick` between the Walsh-Hadamard transforms and phases that
    enter and leave its frame."""
    if state.num_qubits != params.num_qubits:
        raise ValueError(
            f"state has {state.num_qubits} qubits but params expect {params.num_qubits}"
        )
    kick = XFrameKick([params])
    kicked = kick(kick.enter(fwht_inplace(state.amplitudes[None].copy())))
    return PureState(state.num_qubits, fwht_inplace(kick.leave(kicked))[0])


class XFrameKick:
    """One kick in the sigma_x frame, with the field gate split into phases and
    a real rotation, for a stack of time series.

    The sigma_x-frame kick is ``D (H u H)^{(x)L}``, and ``H u H`` splits as
    ``diag(l) R diag(r)`` with ``R`` real (:func:`_split_field_gates`).  On
    ``diag(r)^{(x)L} H^{(x)L} psi`` a kick is therefore ``R^{(x)L}``, real
    block passes, followed by the phase vector ``D (r l)^{(x)L}``, built once.
    :meth:`enter` takes a ``(P, 2**L)`` stack whose row p is
    ``H^{(x)L} psi_p`` into this frame, with ``points[p]``'s own ``r``, and
    :meth:`leave` takes it back out.

    Calling it kicks a stack in the frame and returns it in either the array
    it was given or its spare one, after checking every row's norm.  The
    points share one chain (qubit count and boundary).  It owns its phases and
    spare buffer, so neither outlives the run.
    """

    def __init__(self, points: list[ChainParams]):
        L, boundary = points[0].num_qubits, points[0].boundary
        if any((p.num_qubits, p.boundary) != (L, boundary) for p in points):
            raise ValueError("the points of a stack must share qubit count and boundary")
        u = np.array([field_unitary(p.b_field, p.theta) for p in points])
        left, rotation, self._right = _split_field_gates(u)
        self._gates = _block_gates(L, rotation)
        # the lowest block multiplies complex amplitudes: cast its gate once, not per kick
        self._gates[0] = (0, self._gates[0][1].astype(complex))
        self._phases = _times_diagonal_power(
            _ising_phase_vector(L, [p.j_x for p in points], boundary), self._right * left)
        self._spare = np.empty_like(self._phases)

    def enter(self, amplitudes: np.ndarray) -> np.ndarray:
        """``diag(r)^{(x)L}`` on each row, in place: from ``H^{(x)L} psi`` into the frame."""
        return _times_diagonal_power(amplitudes, self._right)

    def leave(self, amplitudes: np.ndarray) -> np.ndarray:
        """The inverse of :meth:`enter`, in place."""
        return _times_diagonal_power(amplitudes, self._right.conj())

    def __call__(self, amplitudes: np.ndarray) -> np.ndarray:
        amps, self._spare = _fused_pass(amplitudes, self._gates, self._spare)
        amps *= self._phases
        _check_norm(amps)
        return amps
