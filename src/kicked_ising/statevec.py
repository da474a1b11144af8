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
fused kick gate ``H u H``) goes through one kernel.  It cuts the chain into
``ceil(L / 5)`` blocks of at most five qubits and applies each block's
Kronecker power ``w^{(x)s}`` as one matrix product on an ``(A, 2**s, B)``
view of the amplitudes: ``ceil(L / 5)`` passes over the state, not ``L``.

Every evolution runs in the ``sigma_x`` frame, on ``H^{(x)L} psi``, where a
kick is ``D (H u H)^{(x)L}``: one fused pass and one phase multiply
(:class:`XFrameKick`), on a ``(P, 2**L)`` stack of states with one row, block
gates and phases per parameter point.  :func:`step` transforms one state in
and back out; a time series never transforms back, as every measure the
package reports is invariant under ``H`` on each qubit.
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

    ``amps`` may be a ``(P, 2**L)`` stack and each gate a ``(P, d, d)`` stack.
    Returns ``(result, spare)``: the buffer that holds the product and the
    one left free.
    """
    rows = amps.size // amps.shape[-1]
    for lo, gate in gates:
        gate = gate.astype(amps.dtype, copy=False)  # mixed dtypes also cost a copy
        d = gate.shape[-1]
        if lo == 0:  # the block is the fastest axis: one (A, d) x (d, d) product per row;
            # with a transposed view as its right factor numpy would stage it in a copy
            np.matmul(amps.reshape(rows, -1, d), np.ascontiguousarray(gate.swapaxes(-1, -2)),
                      out=spare.reshape(rows, -1, d))
        else:
            np.matmul(gate[..., None, :, :], amps.reshape(rows, -1, d, 1 << lo),
                      out=spare.reshape(rows, -1, d, 1 << lo))
        amps, spare = spare, amps
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
    """How many bonds join unequal bits, per basis index, as uint8."""
    idx = np.arange(2 ** num_qubits, dtype=np.uint32)
    if boundary == "periodic":
        neighbour = (idx >> 1) | ((idx & 1) << (num_qubits - 1))
        out = np.bitwise_count(idx ^ neighbour)
    else:
        out = np.bitwise_count((idx ^ (idx >> 1)) & ((1 << (num_qubits - 1)) - 1))
    out = out.astype(np.uint8, copy=False)
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


def step(state: PureState, params: ChainParams) -> PureState:
    """One kick ``U = U_xx(j_x) . U_field(b, theta)``: the sigma_x-frame kick of
    :class:`XFrameKick` between two Walsh-Hadamard transforms."""
    if state.num_qubits != params.num_qubits:
        raise ValueError(
            f"state has {state.num_qubits} qubits but params expect {params.num_qubits}"
        )
    kicked = XFrameKick([params])(fwht_inplace(state.amplitudes[None].copy()))
    return PureState(state.num_qubits, fwht_inplace(kicked)[0])


class XFrameKick:
    """One kick in the sigma_x frame, ``D (H u H)^{(x)L}``, for a stack of time series.

    Call it on the ``(P, 2**L)`` stack whose row p is ``H^{(x)L} psi_p`` (see
    :func:`fwht_inplace`), to kick it at ``points[p]``; the points share one
    chain (qubit count and boundary).  It returns the kicked stack in the same
    frame, in either the array it was given or its spare one, and checks every
    row's norm.  It owns its phases and spare buffer, so neither outlives the run.
    """

    def __init__(self, points: list[ChainParams]):
        L, boundary = points[0].num_qubits, points[0].boundary
        if any((p.num_qubits, p.boundary) != (L, boundary) for p in points):
            raise ValueError("the points of a stack must share qubit count and boundary")
        u = np.array([field_unitary(p.b_field, p.theta) for p in points])
        self._gates = _block_gates(L, _SIGN @ u @ _SIGN / 2.0)
        self._phases = _ising_phase_vector(L, [p.j_x for p in points], boundary)
        self._spare = np.empty_like(self._phases)

    def __call__(self, amplitudes: np.ndarray) -> np.ndarray:
        amps, self._spare = _fused_pass(amplitudes, self._gates, self._spare)
        amps *= self._phases
        _check_norm(amps)
        return amps
