#!/usr/bin/env python3
"""Transverse-field kicks: exact free-fermion solution vs direct evolution.

With the field perpendicular to the coupling the kicked chain maps onto free
fermions, so Q(t) and the magnetization profile have closed forms.  This
script overlays the Q(t) form on the numerical state-vector evolution, visits
the self-dual point j_x = pi, B = pi/2 where Q(t) is all-or-nothing, and
prints the closed-form magnetization profile.  The evolution runs in a rotated
frame that keeps every entanglement measure but not S^z, so the profile is
checked against brute force in the test suite
(tests/test_analytic.py::TestSzProfile::test_matches_brute_force_evolution).
"""

import numpy as np

from kicked_ising import ChainParams, RunConfig, jw_q_vacuum, jw_sz_profile, run_time_series


def main():
    L, jx, b = 10, np.pi / 2, np.pi / 3
    params = ChainParams(L, jx, b, np.pi / 2)

    print(f"transverse kicks: L={L}, j_x=pi/2, B=pi/3, vacuum start")
    print(f"{'t':>3} {'Q numeric':>12} {'Q formula':>12}")
    series = run_time_series(RunConfig(params, 40, measures=frozenset({"q"})))
    trace = [r.q_measure for r in series]
    for t, q in enumerate(trace):
        if t <= 12 or t % 10 == 0:
            print(f"{t:>3} {q:>12.8f} {jw_q_vacuum(L, jx, b, t):>12.8f}")
    worst = max(abs(trace[t] - jw_q_vacuum(L, jx, b, t)) for t in range(41))
    print(f"max |numeric - formula| over t <= 40: {worst:.2e}")

    print("\nself-dual point j_x=pi, B=pi/2: Q alternates between 1 and exact 0")
    qs = jw_q_vacuum(L, np.pi, np.pi / 2, np.arange(0, 21))
    print("  Q(t), t=0..20:", np.array2string(np.round(qs, 6), max_line_width=100))
    print("  zeros exactly at t = k*L/2 =", [t for t in range(21) if qs[t] < 1e-9])

    print("\nmagnetization spreading from two flipped spins at sites 3 and 4 (L=8),")
    print("closed form (checked against brute-force evolution by TestSzProfile::"
          "test_matches_brute_force_evolution)")
    L2, jx2, b2 = 8, 1.1, 0.4
    print(f"{'t':>3}  " + "  ".join(f"site {l}" for l in range(L2)))
    for t in range(0, 7):
        closed = jw_sz_profile(L2, jx2, b2, [3, 4], t)
        print(f"{t:>3}  " + "  ".join(f"{v:+.3f}" for v in closed))

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
