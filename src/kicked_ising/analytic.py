"""Closed-form results: zero-field cluster dynamics and the free-fermion
solution of the transverse-field kicked chain.

The cluster formulas take continuous time (the zero-field map is a flow); the
fermionic mode formulas take integer kick counts.  Everything here is an
independent oracle for the numerical evolution in :mod:`kicked_ising.statevec`
and is cross-validated against it in the test suite.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_PI_LO = 1.2246467991473532e-16  # pi - math.pi


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

def _even_momenta(num_qubits: int) -> np.ndarray:
    """q = pi/L, 3pi/L, ..., (L-1)pi/L: the even sector, where the vacuum lies."""
    return (2 * np.arange(1, num_qubits // 2 + 1) - 1) * math.pi / num_qubits


def _kick_counts(t) -> np.ndarray:
    """``t`` as floats, each a whole number >= 0 of kicks: the modes are exact only there."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr) & (t_arr >= 0.0) & (t_arr == np.rint(t_arr))):
        raise ValueError(f"t must be whole kick counts >= 0, got {t!r}")
    return t_arr


def _mode_arrays(q: np.ndarray, j_x, b_field):
    """``(theta_q, cos_2phi, sin_2phi)`` of the modes at the (Q,) momenta ``q``,
    broadcast against ``j_x`` and ``b_field`` (scalars or (P, 1)): each mode's
    quasi-energy angle theta_q and Bogoliubov angle phi_q.

    The even-parity 2x2 block of the mode unitary in the (|0>, |-q q>) basis
    has eigenphases ``exp(-i((j_x/2) cos q + B)) exp(+/- i theta_q)``.  With
    P = cos(j_x/2) sin B + sin(j_x/2) cos q cos B and g = sin(j_x/2) sin q,
    cos^2(theta_q) + P^2 + g^2 = 1 identically, so sin(theta_q) = hypot(P, g),
    theta_q = atan2(sin, cos) and (cos 2phi, sin 2phi) = (P, g) / sin(theta_q),
    free of cancellation at every (j_x, B).  The block's orthonormal
    eigenvectors (a_+, b_+) and (a_-, b_-), for exp(+/- i theta_q), have real
    a_+/-, and b_+/- that share the factor e^{iB}; they reduce to the angle:
    a_+ b_+ = -a_- b_- = -(sin 2phi / 2) e^{iB} and a_+^2 - a_-^2 = cos 2phi.
    The common e^{iB} cancels from every quantity reported here.  At
    sin(theta_q) = 0 the mode does not move and (1, 0) is taken.
    """
    c, s = np.cos(j_x / 2.0), np.sin(j_x / 2.0)
    cos_b, sin_b = np.cos(b_field), np.sin(b_field)
    cq = np.cos(q)
    p, g = c * sin_b + s * cq * cos_b, s * np.sin(q)
    sin_th = np.hypot(p, g)
    theta = np.arctan2(sin_th, cos_b * c - cq * sin_b * s)
    moves = sin_th > 0.0
    sin_th = np.where(moves, sin_th, 1.0)
    return theta, np.where(moves, p / sin_th, 1.0), g / sin_th


def _vacuum_series(num_qubits: int, j_x, b_field):
    """``(w, theta)`` of the vacuum's pair density
    ``x(t) = (1/L) sum_q w_q (1 - cos 2 theta_q t)``, over the last axis q.

    ``x = (1/L) sum_q |eta_q(t)|^2`` over both signs of q, and
    ``|eta_q(t)| = |sin 2phi_q sin theta_q t|``, so ``w = sin^2 2phi``;
    ``j_x`` and ``b_field`` as for :func:`_mode_arrays`.
    """
    _require_even(num_qubits, minimum=4)
    theta, _, sin_2phi = _mode_arrays(_even_momenta(num_qubits), j_x, b_field)
    return sin_2phi ** 2, theta


def jw_q_vacuum(num_qubits: int, j_x: float, b_field: float, t):
    """Exact Q(t) for the transverse kick started from the vacuum: 4x(1-x).

    ``x = (2/L) sum_q w_q sin^2(theta_q t)`` is the series of
    :func:`_vacuum_series`, summed one mode at a time so memory stays linear
    in ``t``.  The modes hold at every (j_x, B): on sin(B) = 0, where the
    field commutes with the coupling, this is the zero-field
    :func:`cluster_q`, and on sin(j_x/2) = 0 it is 0.
    """
    w, theta = _vacuum_series(num_qubits, float(j_x), float(b_field))
    t_arr = _kick_counts(t)
    x = np.zeros(t_arr.shape)
    for w_q, theta_q in zip(w, theta):
        x += w_q * np.sin(theta_q * t_arr) ** 2
    x *= 2.0 / num_qubits
    out = 4.0 * x * (1.0 - x)
    return out if out.ndim else float(out)


def _two_sum(a, b):
    """``(s, e)`` with s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    a_part = s - b
    return s, (a - a_part) + (b - (s - a_part))


def _dirichlet(hi, lo, steps: int):
    """The window mean (1/T) sum_{t=1..T} cos 2ht at h = hi + lo, T = steps,
    where hi + lo is the exact sum of two doubles and |hi| <= 2 pi.

    It has period pi in h, so h is first reduced to its distance d from the
    nearest multiple of pi, exactly but for the rounding of d itself: k pi
    and hi - k pi are exact for |k| <= 2, and the low part of pi enters with
    ``lo``.  Then K = cos(d(T+1)) sin(dT) / (T sin d)
    = tan(dT) / (T tan d) (1 - tan d tan dT) / (1 + tan^2 dT), with the
    series 1 + (T^2-1) d^2 / 3 for the first factor where |d| T < 1e-6.
    """
    turns = np.rint(hi / math.pi)
    d = np.asarray((hi - turns * math.pi) + (lo - turns * _PI_LO))
    tan_d, tan_dt = np.tan(d), np.tan(d * steps)
    small = np.abs(d) * steps < 1e-6
    # empty_like keeps d's memory order, which sets the order a caller's sums add in
    ratio = np.divide(tan_dt, steps * tan_d, out=np.empty_like(d), where=~small)
    ratio[small] = 1.0 + (steps * steps - 1.0) * d[small] * d[small] / 3.0
    ratio /= 1.0 + tan_dt * tan_dt
    ratio *= 1.0 - tan_d * tan_dt
    return ratio


@functools.lru_cache(maxsize=16)
def _pairs(modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs q < r of ``modes`` modes, read-only: every sweep chunk shares them."""
    q, r = np.triu_indices(modes, 1)
    q.flags.writeable = r.flags.writeable = False
    return q, r


def jw_q_average(num_qubits: int, j_x, b_field, steps: int) -> np.ndarray:
    """Mean of :func:`jw_q_vacuum` over kicks 1..steps at the P points of (P,) arrays.

    Every term of Q(t) is a constant or a cos 2ht, whose window mean is the
    Dirichlet kernel of :func:`_dirichlet`, so the cost of a point does not
    depend on ``steps``.  With :func:`_vacuum_series`, ``x(t) = x0 - C(t)``,
    ``x0 = (1/L) sum_q w_q`` and ``C(t) = (1/L) sum_q w_q cos 2 theta_q t``,
    and mean Q = 4(<x> - <x^2>) needs kernels at theta_q for <C>, and at
    2 theta_q and theta_q +/- theta_r for <C^2>: the pair sum is symmetric,
    so (L/2)^2 + L/2 kernels a point.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    L = num_qubits
    j_x, b_field = np.asarray(j_x, dtype=float), np.asarray(b_field, dtype=float)
    w, theta = _vacuum_series(L, j_x[:, None], b_field[:, None])
    u = w / L
    q, r = _pairs(L // 2)
    theta_q, theta_r = theta[:, q], theta[:, r]
    k_pairs = _dirichlet(*_two_sum(theta_q, theta_r), steps)
    k_pairs += _dirichlet(*_two_sum(theta_q, -theta_r), steps)
    x0 = u.sum(axis=1)
    mean_c = (u * _dirichlet(theta, 0.0, steps)).sum(axis=1)
    mean_c2 = (0.5 * (u * u * (1.0 + _dirichlet(2.0 * theta, 0.0, steps))).sum(axis=1)
               + (u[:, q] * u[:, r] * k_pairs).sum(axis=1))
    mean_x = x0 - mean_c
    mean_x2 = x0 * x0 - 2.0 * x0 * mean_c + mean_c2
    return 4.0 * (mean_x - mean_x2)


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

    qs = _even_momenta(L)
    theta, cos_2phi, sin_2phi = _mode_arrays(qs, float(j_x), float(b_field))
    t = float(_kick_counts(t))
    cos_t, sin_t = np.cos(theta * t), np.sin(theta * t)
    # particle-conserving and pair-creating coefficients, the latter without
    # its phase i e^{iB}, which no |.|^2 below sees; |zeta|^2 + |eta|^2 = 1
    zeta_q = cos_t - 1j * cos_2phi * sin_t
    eta_q = sin_2phi * sin_t

    x = 2.0 / L * float(np.sum(eta_q ** 2))
    out = np.full(L, -0.5 + x)
    if not sites:
        return out
    d = np.arange(L)[:, None] - np.array(sites)[None, :]  # (site l, initial site)
    zeta_d = (2.0 / L) * np.einsum("q,qls->ls", zeta_q, np.cos(qs[:, None, None] * d))
    eta_d = (2.0 / L) * np.einsum("q,qls->ls", eta_q, np.sin(qs[:, None, None] * d))
    out += (np.abs(zeta_d) ** 2 - np.abs(eta_d) ** 2).sum(axis=1)
    return out
