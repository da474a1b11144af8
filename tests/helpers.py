"""Independent brute-force oracles for the test suite.

Everything here is built from dense matrices and explicit index sums, on
purpose: none of it shares code paths with the package (no Walsh-Hadamard
trick, no reshape-based partial traces, and the concurrence comes from the
non-Hermitian product spectrum rather than the package's singular values
of F^T (sigma_y (x) sigma_y) F), so agreement is meaningful.  Single-qubit
unitaries come from eigendecompositions of their generators rather than trig
closed forms, and the Ising kick from its phases between dense Kronecker
powers of the Hadamard gate.  The one input taken from the package is the
list of a run's start terms (:func:`z_start`); the field-gate and kernel
references at the end keep earlier package forms verbatim, :func:`samples`
reads the package's own runs one state at a time, and :func:`batch_reports`
measures a stack as a run's report batch does.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from kicked_ising.harness import _evolve, _start_terms
from kicked_ising.measures import ReportBatch
from kicked_ising.statevec import XFrameKick

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, 1j], [-1j, 0]], dtype=complex)
SZ = np.array([[-1, 0], [0, 1]], dtype=complex)  # |1> is spin up
I2 = np.eye(2, dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def op_on(op: np.ndarray, k: int, L: int) -> np.ndarray:
    """Embed a one-qubit operator on qubit k (bit k of the basis index)."""
    out = np.array([[1.0 + 0j]])
    for pos in range(L - 1, -1, -1):
        out = np.kron(out, op if pos == k else I2)
    return out


def expm_herm(h: np.ndarray) -> np.ndarray:
    """exp(-i h) for Hermitian h, via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def field_kick_dense(L: int, b: float, theta: float) -> np.ndarray:
    g = (b / 2.0) * (np.cos(theta) * SX + np.sin(theta) * SZ)
    u = expm_herm(g)
    out = np.array([[1.0 + 0j]])
    for _ in range(L):
        out = np.kron(out, u)
    return out


def ising_kick_dense(L: int, j_x: float, boundary: str = "periodic") -> np.ndarray:
    """exp(-i (j_x/4) sum_n X_n X_{n+1}): the coupling is diagonal in the
    sigma_x basis, so it is (H^{(x)L} diag(exp(-i (j_x/4) alignment))) @ H^{(x)L},
    with H^{(x)L} a dense Kronecker power."""
    h = np.array([[1.0]])
    for _ in range(L):
        h = np.kron(h, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    return (h * np.exp(-0.25j * j_x * ising_alignment(L, boundary))) @ h


def step_dense(L: int, j_x: float, b: float, theta: float,
               boundary: str = "periodic") -> np.ndarray:
    return ising_kick_dense(L, j_x, boundary) @ field_kick_dense(L, b, theta)


def apply_one_qubit_gate(psi: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """The 2x2 gate g on qubit k, as two linear combinations of the halves of a
    reshaped copy; no product-gate kernel."""
    v = psi.reshape(-1, 2, 2 ** k)
    out = np.empty_like(v, dtype=complex)
    out[:, 0] = g[0, 0] * v[:, 0] + g[0, 1] * v[:, 1]
    out[:, 1] = g[1, 0] * v[:, 0] + g[1, 1] * v[:, 1]
    return out.reshape(psi.shape)


def ising_alignment(L: int, boundary: str = "periodic") -> np.ndarray:
    """sum_n s_n s_{n+1} per basis index, with s = +/-1 from the bits, summed bond by bond."""
    idx = np.arange(2 ** L)
    n_bonds = L if boundary == "periodic" else L - 1
    out = np.full(2 ** L, n_bonds, dtype=np.int64)
    for n in range(n_bonds):
        out -= 2 * (((idx >> n) ^ (idx >> ((n + 1) % L))) & 1)
    return out


def kick_reference(psi: np.ndarray, L: int, j_x: float, b: float, theta: float,
                   boundary: str = "periodic") -> np.ndarray:
    """One kick in O(L 2^L), for chains beyond the dense matrices: the field's
    u, then H, on each qubit by reshape, the Ising phases per index, and H on
    each qubit again."""
    u = expm_herm((b / 2.0) * (np.cos(theta) * SX + np.sin(theta) * SZ))
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
    for k in range(L):
        psi = apply_one_qubit_gate(psi, h @ u, k)
    psi = psi * np.exp(-0.25j * j_x * ising_alignment(L, boundary))
    for k in range(L):
        psi = apply_one_qubit_gate(psi, h, k)
    return psi


def brute_rdm1(psi: np.ndarray, k: int, L: int) -> np.ndarray:
    """Partial trace onto qubit k by explicit index summation."""
    rho = np.zeros((2, 2), dtype=complex)
    mask = 1 << k
    for a in (0, 1):
        for c in (0, 1):
            acc = 0j
            for rest in range(2 ** L):
                if rest & mask:
                    continue
                acc += psi[rest | (a << k)] * np.conj(psi[rest | (c << k)])
            rho[a, c] = acc
    return rho


def brute_rdm2(psi: np.ndarray, i: int, j: int, L: int) -> np.ndarray:
    """Partial trace onto qubits (i, j), i leftmost, by explicit index
    summation, each entry one sum over the indices of the other qubits."""
    rest = np.arange(2 ** L)
    rest = rest[(rest & ((1 << i) | (1 << j))) == 0]
    rho = np.zeros((4, 4), dtype=complex)
    for a, b, c, d in itertools.product((0, 1), repeat=4):
        bra = rest | (a << i) | (b << j)
        ket = rest | (c << i) | (d << j)
        rho[2 * a + b, 2 * c + d] = np.sum(psi[bra] * np.conj(psi[ket]))
    return rho


def concurrence_oracle(rho: np.ndarray) -> float:
    """Wootters concurrence through the non-Hermitian product spectrum.

    Eigenvalues below 64 eps of the largest are rounding noise of a
    rank-deficient product; they are zeroed before the square root, which
    would otherwise lift their ~1e-17 to ~1e-8.
    """
    flip = np.kron(SY, SY)
    lam = np.linalg.eigvals(rho @ flip @ rho.conj() @ flip).real
    lam = np.sqrt(np.where(lam < 64 * np.finfo(float).eps * max(lam.max(), 0.0), 0.0, lam))
    lam[::-1].sort()
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def pair_factor(psi: np.ndarray, i: int, j: int, L: int) -> np.ndarray:
    """The 4 x 2^(L-2) factor Psi of the pair (i, j), i leftmost, with
    rho = Psi Psi^dagger as :func:`brute_rdm2` sums it: row 2a + b holds the
    amplitudes with bit i = a and bit j = b, by explicit index."""
    rest = np.arange(2 ** L)
    rest = rest[(rest & ((1 << i) | (1 << j))) == 0]
    return np.array([psi[rest | (a << i) | (b << j)] for a, b in itertools.product((0, 1), repeat=2)])


def concurrence_factor_oracle(factor: np.ndarray) -> float:
    """Wootters concurrence of rho = Psi Psi^dagger from its factor Psi, through
    the non-Hermitian spectrum of rho rho~ taken in ``mpmath`` at 50 digits.

    Built from its factor at that precision, rho keeps its rank, so the zero
    eigenvalues of a rank-deficient product stay near 1e-50 and their square
    roots near 1e-25, where :func:`concurrence_oracle`, reading a rounded rho,
    lifts them to ~1e-8.  ``mpmath`` is not a declared dependency: without it
    the calling test is skipped.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        psi = mpmath.matrix(factor.tolist())
        rho = psi * psi.H
        flip = mpmath.matrix(np.kron(SY, SY).real.tolist())
        spectrum = mpmath.eig(rho * flip * rho.conjugate() * flip, left=False, right=False)
        lam = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in spectrum), reverse=True)
        return float(max(0, lam[0] - lam[1] - lam[2] - lam[3]))


def sz_profile_dense(psi: np.ndarray, L: int) -> np.ndarray:
    p = np.abs(psi) ** 2
    idx = np.arange(2 ** L)
    return np.array([np.sum(p * (((idx >> l) & 1) - 0.5)) for l in range(L)])


def v_q_block(j_x: float, b: float, q: float) -> np.ndarray:
    """Even-parity 2x2 block of the mode unitary in the (|0>, |-q q>) basis."""
    pairing = np.array([[0.0, np.sin(q)], [np.sin(q), 2.0 * np.cos(q)]])
    number = np.diag([0.0, 2.0])
    return expm_herm((j_x / 2.0) * pairing) @ expm_herm(b * number)


def z_start(num_qubits: int, initial: str) -> np.ndarray:
    """A run's named or bitstring start as a ``(1, 2**L)`` z-basis stack, from
    the terms the package names it by (``harness._start_terms``): the one
    package input here, so that a test walks the run's own start."""
    amps = np.zeros((1, 2 ** num_qubits), dtype=complex)
    for index, amplitude in _start_terms(num_qubits, initial):
        amps[0, index] = amplitude
    return amps


def random_state(L: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=2 ** L) + 1j * rng.normal(size=2 ** L)
    return psi / np.linalg.norm(psi)


def random_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    qmat, r = np.linalg.qr(m)
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


def apply_local_unitaries(psi: np.ndarray, unitaries: list[np.ndarray]) -> np.ndarray:
    L = len(unitaries)
    full = np.array([[1.0 + 0j]])
    for k in range(L - 1, -1, -1):
        full = np.kron(full, unitaries[k])
    return full @ psi


# ---------------------------------------------------------- kernel references
# Earlier forms of three package kernels, kept verbatim: the package's forms
# change only the array handling, so they must agree bit for bit.

_PI_LO = 1.2246467991473532e-16  # pi - float(pi)


def dirichlet_reference(hi, lo, steps: int):
    """The window mean (1/T) sum_{t=1..T} cos 2ht at h = hi + lo, as one
    ``np.where`` over the series and the tangent form of the kernel."""
    turns = np.rint(hi / np.pi)
    d = (hi - turns * np.pi) + (lo - turns * _PI_LO)
    tan_d, tan_dt = np.tan(d), np.tan(d * steps)
    small = np.abs(d) * steps < 1e-6
    ratio = np.where(small, 1.0 + (steps * steps - 1.0) * d * d / 3.0,
                     tan_dt / (steps * np.where(small, 1.0, tan_d)))
    return ratio / (1.0 + tan_dt * tan_dt) * (1.0 - tan_d * tan_dt)


def product_vectors_reference(factors: np.ndarray) -> np.ndarray:
    """``(x)_n factors[..., n, :]``, qubit 0 fastest: a ``(..., 2**n)`` table from
    a ``(..., n, 2)`` stack of one-qubit vectors, one qubit at a time."""
    out = np.ones((*factors.shape[:-2], 1), dtype=factors.dtype)
    for n in range(factors.shape[-2]):
        out = (factors[..., n, :, None] * out[..., None, :]).reshape(*factors.shape[:-2], -1)
    return out


def x_frame_start_reference(right: np.ndarray, num_qubits: int, terms) -> np.ndarray:
    """The stack of ``XFrameKick.start`` from each term's product vector
    ``(x)_n (r_0, (-1)^{b_n} r_1)``, per row of the ``(P, 2)`` frame ``right``."""
    L, m = num_qubits, num_qubits // 2
    signs = 1 - 2 * ((np.array([b for b, _ in terms])[:, None] >> np.arange(L)) & 1)
    factors = right[:, None, None, :] * np.stack([np.ones_like(signs), signs], -1)
    amplitude = np.array([a for _, a in terms]) * 2.0 ** (-L / 2)
    low = product_vectors_reference(factors[:, :, :m]) * amplitude[:, None]
    high = product_vectors_reference(factors[:, :, m:])
    return np.matmul(high.swapaxes(1, 2), low).reshape(len(factors), -1)


def field_unitary_reference(b_field: float, theta: float) -> np.ndarray:
    """The 2x2 field gate exp(-i b (cos(theta) S^x + sin(theta) S^z)) of one
    point, from ``math`` scalars, as the package built it before its split
    took a closed form."""
    axis = math.cos(theta) * SX + math.sin(theta) * SZ
    return math.cos(b_field / 2) * np.eye(2) - 1j * math.sin(b_field / 2) * axis


def chain_arrays(points) -> tuple:
    """``(num_qubits, boundary, j_x, b_field, theta)`` of a list of
    ``ChainParams`` on one chain, the parameters as ``(P,)`` arrays: the
    arguments that ``XFrameKick`` and the kick loop take."""
    return (points[0].num_qubits, points[0].boundary,
            *(np.array([getattr(p, name) for p in points]) for name in ("j_x", "b_field", "theta")))


def kick_of(points) -> XFrameKick:
    """The package's kick of the stack whose row p is at ``points[p]``."""
    return XFrameKick(*chain_arrays(points))


def samples(points, initial: str, steps: int, sample_every: int = 1):
    """The package's run (``harness._evolve``) one sample at a time: ``(t, stack)``
    per sampled kick, a view of the ``(P, 2**L)`` stack in the run's group,
    which later kicks overwrite once the run has gone past the group."""
    for ts, amps in _evolve(*chain_arrays(points), initial, steps, sample_every):
        yield from zip(ts, amps.reshape(len(ts), len(points), -1))


def batch_reports(amps, ts, **options):
    """The package's reports of a ``(P, 2**L)`` stack, row p at kick count
    ``ts[p]``: one group of a ``ReportBatch`` made with ``options``."""
    batch = ReportBatch(**options)
    batch.add(amps, ts)
    return batch.finish()
