#!/usr/bin/env python3
"""Zero-field kicks: cluster-state entanglement and its closed forms.

The bare nearest-neighbour coupling turns a product state into a highly
entangled state and back, periodically.  This script evolves the chain
numerically, checks every measure against its closed form, and shows how
the spin-symmetrized (GHZ-seeded) states keep both Q and the n-tangle high.
"""

import numpy as np

from kicked_ising import (
    ChainParams,
    RunConfig,
    cluster_n_tangle,
    cluster_nn_concurrence,
    cluster_q,
    run_time_series,
    sym_cluster_n_tangle,
)


def main():
    L, jx = 6, 0.4
    params = ChainParams(L, jx, 0.0, 0.0)

    print(f"cluster evolution: L={L}, j_x={jx}, periodic, vacuum start")
    print(f"{'t':>3} {'Q':>10} {'Q form':>10} {'C_nn':>10} {'C form':>10} "
          f"{'n-tangle':>10} {'nt form':>10}")
    rows = []
    for r in run_time_series(RunConfig(params, 24)):
        rows.append((r.t, r.q_measure, r.nn_concurrence, r.n_tangle))
        print(f"{r.t:>3} {r.q_measure:>10.6f} {cluster_q(jx, r.t, 'periodic', L):>10.6f} "
              f"{r.nn_concurrence:>10.6f} {cluster_nn_concurrence(jx, r.t):>10.6f} "
              f"{r.n_tangle:>10.6f} {cluster_n_tangle(jx, r.t, L):>10.6f}")

    t_star = np.pi / jx
    print(f"\nat j_x*t = pi (t ~ {t_star:.1f}) Q is maximal while every two-qubit")
    print("concurrence vanishes: the entanglement is genuinely multipartite.")

    print("\nsymmetrized states: GHZ seed under the same coupling")
    print(f"{'t':>3} {'Q':>10} {'n-tangle':>10} {'nt form':>10}")
    for r in run_time_series(RunConfig(params, 16, "ghz", frozenset({"q", "n_tangle"}))):
        print(f"{r.t:>3} {r.q_measure:>10.6f} {r.n_tangle:>10.6f} "
              f"{sym_cluster_n_tangle(jx, r.t, L):>10.6f}")
    print("\nQ stays pinned at 1 and the n-tangle returns to 1 at j_x*t = k*pi,")
    print("instead of decaying like 2^-(L-2) as it does for the bare cluster states.")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\n(matplotlib not available; skipping the figure)")
        return

    ts = np.linspace(0, 25, 600)
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(ts, cluster_q(jx, ts, "periodic", L), label="Q")
    ax.plot(ts, cluster_nn_concurrence(jx, ts), label="nearest-neighbour concurrence")
    ax.plot(ts, cluster_n_tangle(jx, ts, L), label="n-tangle")
    got = np.array(rows)
    ax.plot(got[:, 0], got[:, 1], "k.", ms=5)
    ax.plot(got[:, 0], got[:, 2], "k.", ms=5)
    ax.plot(got[:, 0], got[:, 3], "k.", ms=5, label="numerical (kicks)")
    ax.set_xlabel("time (kicks)")
    ax.set_ylabel("entanglement measure")
    ax.set_title(f"zero-field kicked chain, L={L}, j_x={jx}")
    ax.legend()
    fig.tight_layout()
    fig.savefig("cluster_states.png", dpi=120)
    print("\nwrote cluster_states.png")


if __name__ == "__main__":
    main()
