#!/usr/bin/env python3
"""Transverse-field kicks: exact free-fermion solution vs direct evolution.

With the field perpendicular to the coupling the kicked chain maps onto free
fermions, so Q(t) and the magnetization profile have closed forms.  This
script overlays them on the numerical state-vector evolution, and visits the
self-dual point j_x = pi, B = pi/2 where Q(t) is all-or-nothing.
"""

import numpy as np

from kicked_ising import (
    ChainParams,
    jw_q_vacuum,
    jw_sz_profile,
    make_basis_state,
    make_vacuum,
    q_measure,
    step,
)


def sz_numeric(state):
    p = np.abs(state.amplitudes) ** 2
    idx = np.arange(state.dim)
    return np.array([np.sum(p * (((idx >> l) & 1) - 0.5)) for l in range(state.num_qubits)])


def main():
    L, jx, b = 10, np.pi / 2, np.pi / 3
    params = ChainParams(L, jx, b, np.pi / 2)

    print(f"transverse kicks: L={L}, j_x=pi/2, B=pi/3, vacuum start")
    print(f"{'t':>3} {'Q numeric':>12} {'Q formula':>12}")
    state = make_vacuum(L)
    trace = []
    for t in range(0, 41):
        if t:
            state = step(state, params)
        q = q_measure(state)
        trace.append(q)
        if t <= 12 or t % 10 == 0:
            print(f"{t:>3} {q:>12.8f} {jw_q_vacuum(L, jx, b, t):>12.8f}")
    worst = max(abs(trace[t] - jw_q_vacuum(L, jx, b, t)) for t in range(41))
    print(f"max |numeric - formula| over t <= 40: {worst:.2e}")

    print("\nself-dual point j_x=pi, B=pi/2: Q alternates between 1 and exact 0")
    qs = jw_q_vacuum(L, np.pi, np.pi / 2, np.arange(0, 21))
    print("  Q(t), t=0..20:", np.array2string(np.round(qs, 6), max_line_width=100))
    print("  zeros exactly at t = k*L/2 =", [t for t in range(21) if qs[t] < 1e-9])

    print("\nmagnetization spreading from two flipped spins at sites 3 and 4 (L=8)")
    L2, jx2, b2 = 8, 1.1, 0.4
    params2 = ChainParams(L2, jx2, b2, np.pi / 2)
    state = make_basis_state(L2, "00011000")  # sites 3 and 4 up
    print(f"{'t':>3}  " + "  ".join(f"site {l}" for l in range(L2)))
    for t in range(0, 7):
        if t:
            state = step(state, params2)
        closed = jw_sz_profile(L2, jx2, b2, [3, 4], t)
        line = "  ".join(f"{v:+.3f}" for v in closed)
        check = np.max(np.abs(closed - sz_numeric(state)))
        print(f"{t:>3}  {line}   (vs numeric: {check:.1e})")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\n(matplotlib not available; skipping the figure)")
        return

    fig, ax = plt.subplots(figsize=(7, 4))
    ts = np.arange(0, 41)
    ax.plot(ts, jw_q_vacuum(L, jx, b, ts), "-", label="free-fermion formula")
    ax.plot(ts, trace, "k.", label="state-vector evolution")
    ax.set_xlabel("time (kicks)")
    ax.set_ylabel("Q")
    ax.set_title(f"kicked transverse chain, L={L}, j_x=pi/2, B=pi/3")
    ax.legend()
    fig.tight_layout()
    fig.savefig("transverse_field_exact.png", dpi=120)
    print("\nwrote transverse_field_exact.png")


if __name__ == "__main__":
    main()
