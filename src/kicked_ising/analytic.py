"""Closed-form results: zero-field cluster dynamics and the free-fermion
solution of the transverse-field kicked chain.

The cluster formulas take continuous time (the zero-field map is a flow); the
fermionic mode formulas take integer kick counts.  Everything here is an
independent oracle for the numerical evolution in :mod:`kicked_ising.statevec`
and is cross-validated against it in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_DEGENERATE_EPS = 1e-12


class DegenerateModeError(ValueError):
    """The generic mode eigenvectors divide by sin(q) sin(B) sin(j_x/2)."""


def _require_even(num_qubits: int, minimum: int = 2) -> None:
    if num_qubits % 2 or num_qubits < minimum:
        raise ValueError(f"need an even qubit count >= {minimum}, got {num_qubits}")


# --------------------------------------------------------------------- cluster

def cluster_q(j_x: float, t, boundary: str = "periodic", num_qubits: int | None = None):
    """Entanglement Q of the chain evolved from a fully polarized product state.

    Periodic: ``1 - cos^4(j_x t / 2)``, independent of the chain length.
    Open:     the same minus ``sin^2(j_x t) / (2 L)``; for L = 2 this reduces
    to ``sin^2(j_x t / 2)``.
    """
    tau = np.asarray(t, dtype=float) * j_x / 2.0
    if boundary == "periodic":
        if num_qubits is not None and num_qubits < 3:
            raise ValueError("periodic closed form needs at least 3 qubits")
        out = 1.0 - np.cos(tau) ** 4
    elif boundary == "open":
        if num_qubits is None:
            raise ValueError("open-chain Q depends on the qubit count")
        if num_qubits < 2:
            raise ValueError(f"need at least 2 qubits, got {num_qubits}")
        out = 1.0 - np.cos(tau) ** 4 - np.sin(2.0 * tau) ** 2 / (2.0 * num_qubits)
    else:
        raise ValueError(f"unknown boundary {boundary!r}")
    return out if out.ndim else float(out)


def cluster_nn_concurrence(j_x: float, t):
    """Nearest-neighbour concurrence of the cluster evolution.

    ``max(0, (|sin(j_x t)| - sin^2(j_x t / 2)) / 2)``; vanishes exactly where
    ``|tan(j_x t / 2)| > 2`` and at every maximum of Q.
    """
    tau = np.asarray(t, dtype=float) * j_x
    out = np.maximum(0.0, 0.5 * (np.abs(np.sin(tau)) - np.sin(tau / 2.0) ** 2))
    return out if out.ndim else float(out)


def cluster_n_tangle(j_x: float, t, num_qubits: int):
    """n-tangle of the cluster evolution: ``sin^L(j_x t) / 2^(L-2)``, even L >= 4."""
    _require_even(num_qubits, minimum=4)
    tau = np.asarray(t, dtype=float) * j_x
    out = np.sin(tau) ** num_qubits / 2.0 ** (num_qubits - 2)
    return out if out.ndim else float(out)


def sym_cluster_n_tangle(j_x: float, t, num_qubits: int):
    """n-tangle of the spin-symmetrized (GHZ-seeded) cluster evolution.

    ``|cos^(L/2)(j_x t / 2) + i^(L/2) sin^(L/2)(j_x t / 2)|^4`` with the
    complex ``i^(L/2)`` factor kept; returns to exactly 1 at ``j_x t = k pi``.
    """
    _require_even(num_qubits)
    half = num_qubits // 2
    tau = np.asarray(t, dtype=float) * j_x / 2.0
    val = np.cos(tau) ** half + (1j ** half) * np.sin(tau) ** half
    out = np.abs(val) ** 4
    return out if out.ndim else float(out)


# ------------------------------------------------------------------- fermions

@dataclass(frozen=True)
class JWMode:
    """One momentum mode of the fermionized transverse-field kick.

    ``theta_q`` is the quasi-energy angle; ``(a_plus, b_plus)`` and
    ``(a_minus, b_minus)`` are the eigenvectors of the even-parity 2x2 block
    of the mode unitary in the (|0>, |-q q>) basis, for eigenphases
    ``exp(-i((j_x/2) cos q + B)) exp(+/- i theta_q)``.  The special q = 0, pi
    modes of the odd sector are diagonal: a_plus = 1 and
    theta_q = B +/- j_x/2 so that zeta reproduces their pure phase.
    """

    q: float
    theta_q: float
    a_plus: float
    a_minus: float
    b_plus: complex
    b_minus: complex

    def zeta(self, t):
        """Particle-conserving coefficient of the Heisenberg-evolved mode operator."""
        phase = np.exp(-1j * self.theta_q * np.asarray(t, dtype=float))
        return self.a_plus ** 2 * phase + self.a_minus ** 2 * np.conj(phase)

    def eta(self, t):
        """Pair-creating coefficient; |zeta|^2 + |eta|^2 = 1 at all times."""
        phase = np.exp(-1j * self.theta_q * np.asarray(t, dtype=float))
        return self.a_plus * self.b_plus * phase + self.a_minus * self.b_minus * np.conj(phase)


@dataclass(frozen=True)
class JWModeSet:
    """The momentum grid of one fermion-parity sector (L even).

    Even sector: q = pi/L, 3pi/L, ..., (L-1)pi/L (each standing for the
    +/- q pair).  Odd sector: q = 0, 2pi/L, ..., (L-2)pi/L, pi.
    """

    num_qubits: int
    sector: str
    modes: tuple[JWMode, ...]


def _mode_arrays(q: np.ndarray, j_x, b_field):
    """``(theta_q, a_plus, a_minus, b_plus, b_minus)`` of the generic modes as
    arrays over (point, q): ``j_x`` and ``b_field`` of shape (P, 1) broadcast
    against the (Q,) momenta ``q``."""
    c, s = np.cos(j_x / 2.0), np.sin(j_x / 2.0)
    cos_b, sin_b = np.cos(b_field), np.sin(b_field)
    cq, sq = np.cos(q), np.sin(q)
    if np.any(np.abs(sq * sin_b * s) < _DEGENERATE_EPS):
        raise DegenerateModeError(f"sin(q) sin(B) sin(j_x/2) vanishes for a mode at "
                                  f"b_field={b_field!r}, j_x={j_x!r}")
    cos_th = cos_b * c - cq * sin_b * s
    # |cos| <= 1 holds identically: (c cos B, -s cos q sin B) has norm < 1.
    # math.acos element by element: np.arccos can differ from it in the last bit
    theta = np.vectorize(math.acos, otypes=[float])(np.clip(cos_th, -1.0, 1.0))
    sin_th = np.sin(theta)
    # Eigenvector ratios b/a of the even-parity block, one per eigenphase
    # branch exp(+/- i theta); r_plus r_minus = -1 makes them orthogonal.
    r_plus = (c * sin_b + s * cq * cos_b - sin_th) / (s * sq)
    r_minus = (c * sin_b + s * cq * cos_b + sin_th) / (s * sq)
    a_plus = 1.0 / np.sqrt(1.0 + r_plus * r_plus)
    a_minus = 1.0 / np.sqrt(1.0 + r_minus * r_minus)
    phase = cos_b + 1j * sin_b  # e^{iB}, common to both
    return theta, a_plus, a_minus, a_plus * r_plus * phase, a_minus * r_minus * phase


def jw_modes(num_qubits: int, j_x: float, b_field: float, sector: str = "even") -> JWModeSet:
    """All positive-q modes of one parity sector of the fermionized kick."""
    _require_even(num_qubits, minimum=4)
    L = num_qubits
    if sector == "even":
        qs = (2 * np.arange(1, L // 2 + 1) - 1) * math.pi / L
    elif sector == "odd":
        qs = 2 * np.arange(1, L // 2) * math.pi / L
    else:
        raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")
    arrays = _mode_arrays(qs, float(j_x), float(b_field))
    modes = tuple(JWMode(float(q), float(th), float(ap), float(am), complex(bp), complex(bm))
                  for q, th, ap, am, bp, bm in zip(qs, *arrays))
    if sector == "odd":
        diag0 = JWMode(q=0.0, theta_q=b_field + j_x / 2.0, a_plus=1.0, a_minus=0.0,
                       b_plus=0j, b_minus=0j)
        diag_pi = JWMode(q=math.pi, theta_q=b_field - j_x / 2.0, a_plus=1.0, a_minus=0.0,
                         b_plus=0j, b_minus=0j)
        modes = (diag0,) + modes + (diag_pi,)
    return JWModeSet(num_qubits=L, sector=sector, modes=modes)


def jw_q_vacuum(num_qubits: int, j_x: float, b_field: float, t):
    """Exact Q(t) for the transverse kick started from the vacuum: 4x(1-x).

    ``x = (1/L) sum_q |eta_q(t)|^2`` over both signs of q.  The parameter
    lines where the generic mode formulas degenerate are served by their own
    closed forms: a trivial coupling (sin(j_x/2) = 0) never entangles, and a
    trivial field (sin(B) = 0) commutes with the coupling, reducing to the
    zero-field cluster result.
    """
    _require_even(num_qubits, minimum=4)
    t_arr = np.asarray(t, dtype=float)
    if abs(math.sin(j_x / 2.0)) < _DEGENERATE_EPS:
        out = np.zeros_like(t_arr)
        return out if out.ndim else float(out)
    if abs(math.sin(b_field)) < _DEGENERATE_EPS:
        return cluster_q(j_x, t, "periodic", num_qubits)
    modes = jw_modes(num_qubits, j_x, b_field, "even")
    x = sum(np.abs(m.eta(t_arr)) ** 2 for m in modes.modes) * (2.0 / num_qubits)
    out = 4.0 * x * (1.0 - x)
    return out if out.ndim else float(out)


def jw_q_average(num_qubits: int, j_x, b_field, steps: int) -> np.ndarray:
    """Mean of :func:`jw_q_vacuum` over kicks 1..steps at the P points of (P,) arrays.

    ``x(t) = X0 + (4/L) Re S(t)`` with ``S(t) = sum_q A_q conj(B_q) e^{-2i theta_q t}``
    (``A = a_plus b_plus``, ``B = a_minus b_minus``); for t = m k + r, S over the
    window is one (k, q) x (q, r) product of exact phases per point.
    """
    _require_even(num_qubits, minimum=4)
    L = num_qubits
    j_x, b_field = np.asarray(j_x, dtype=float), np.asarray(b_field, dtype=float)
    coupled = np.abs(np.sin(j_x / 2.0)) >= _DEGENERATE_EPS  # else it never entangles
    fielded = np.abs(np.sin(b_field)) >= _DEGENERATE_EPS
    cluster, generic = coupled & ~fielded, coupled & fielded
    out = np.zeros(j_x.shape)
    ts = np.arange(1, steps + 1)
    out[cluster] = cluster_q(j_x[cluster][:, None], ts, "periodic", L).mean(axis=1)
    theta, a_plus, a_minus, b_plus, b_minus = _mode_arrays(
        (2 * np.arange(1, L // 2 + 1) - 1) * math.pi / L,  # the even sector
        j_x[generic][:, None], b_field[generic][:, None])
    a, b = a_plus * b_plus, a_minus * b_minus
    m = math.isqrt(steps) + 1
    k = m * np.arange(steps // m + 1)
    turn = -2j * theta[..., None]
    coarse = (a * b.conj())[..., None] * np.exp(turn * k)
    s = (coarse.swapaxes(1, 2) @ np.exp(turn * np.arange(m))).reshape(-1, k.size * m)
    x0 = (np.abs(a) ** 2 + np.abs(b) ** 2).sum(axis=1) * (2.0 / L)
    x = x0[:, None] + (4.0 / L) * s[:, 1:steps + 1].real
    out[generic] = (4.0 * x * (1.0 - x)).mean(axis=1)
    return out


def jw_sz_profile(num_qubits: int, j_x: float, b_field: float,
                  initial_sites, t: int) -> np.ndarray:
    """Site-resolved <S^z_l(t)> for an even number of fermions dropped on
    ``initial_sites`` (spin-up sites) and kicked transversally ``t`` times.

    Uses the position transforms of the mode coefficients,
    ``zeta(d) = (2/L) sum_{q>0} zeta_q cos(q d)`` and
    ``eta(d) = (2/L) sum_{q>0} eta_q sin(q d)``.  The pair coefficients of the
    +q and -q partners carry opposite signs, so the pairing transform is the
    sine series (validated against brute-force state evolution).
    """
    _require_even(num_qubits, minimum=4)
    L = num_qubits
    sites = sorted(int(s) for s in initial_sites)
    if len(sites) % 2:
        raise ValueError(f"need an even number of occupied sites, got {len(sites)}")
    if len(set(sites)) != len(sites):
        raise ValueError("occupied sites must be distinct")
    if sites and not (0 <= sites[0] and sites[-1] < L):
        raise ValueError(f"sites {sites} out of range for {L} qubits")

    if abs(math.sin(j_x / 2.0)) < _DEGENERATE_EPS:
        # coupling acts as a global phase; the field conserves every occupation
        out = np.full(L, -0.5)
        out[sites] = 0.5
        return out

    modes = jw_modes(L, j_x, b_field, "even").modes
    qs = np.array([m.q for m in modes])
    zeta_q = np.array([m.zeta(t) for m in modes])
    eta_q = np.array([m.eta(t) for m in modes])

    x = 2.0 / L * float(np.sum(np.abs(eta_q) ** 2))
    out = np.full(L, -0.5 + x)
    if not sites:
        return out
    d = np.arange(L)[:, None] - np.array(sites)[None, :]  # (site l, initial site)
    zeta_d = (2.0 / L) * np.einsum("q,qls->ls", zeta_q, np.cos(qs[:, None, None] * d))
    eta_d = (2.0 / L) * np.einsum("q,qls->ls", eta_q, np.sin(qs[:, None, None] * d))
    out += (np.abs(zeta_d) ** 2 - np.abs(eta_d) ** 2).sum(axis=1)
    return out
