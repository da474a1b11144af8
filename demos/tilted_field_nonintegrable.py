#!/usr/bin/env python3
"""Tilted field: how breaking integrability changes the entanglement budget.

Between the parallel (theta = 0) and transverse (theta = pi/2) integrable
extremes, the kicked chain is nonintegrable.  The Q trace then stops
returning to zero, and the time-averaged two-body correlations collapse:
the extra multipartite entanglement comes out of the pairwise budget.
"""

import numpy as np

from kicked_ising import ChainParams, RunConfig, run_time_series, time_average


def main():
    L, jx, b = 10, 0.1, 0.1
    window = 300

    print(f"Q traces: L={L}, j_x={jx}, B={b}, vacuum start, {window} kicks")
    print(f"{'theta':>8} {'min Q (t>=20)':>14} {'mean Q':>9} {'avg two-tangle sum':>19}")
    for theta, label in [(0.0, "0"), (np.pi / 8, "pi/8"), (np.pi / 4, "pi/4"),
                         (3 * np.pi / 8, "3pi/8"), (np.pi / 2, "pi/2")]:
        cfg = RunConfig(params=ChainParams(L, jx, b, theta), steps=window,
                        measures=frozenset({"q", "sum_two_tangles"}))
        series = run_time_series(cfg)[1:]  # kicks 1 .. window
        qs = [r.q_measure for r in series]
        twos = [r.sum_two_tangles for r in series]
        print(f"{label:>8} {min(qs[19:]):>14.6f} {np.mean(qs):>9.4f} {np.mean(twos):>19.6f}")

    print("\nthe parallel trace unentangles almost completely (it is the cluster")
    print("formula in disguise), while intermediate tilts hold Q up and push the")
    print("pairwise concurrences toward zero.")

    print("\ntime-averaged Q vs tilt at two field strengths (L=8, j_x=pi/4, 400 kicks)")
    thetas = np.linspace(0, np.pi / 2, 13)
    curves = {}
    for b_mag in (np.pi / 4, np.pi / 2):
        avg = []
        for theta in thetas:
            cfg = RunConfig(params=ChainParams(8, np.pi / 4, b_mag, float(theta)),
                            steps=400, measures=frozenset({"q"}))
            avg.append(time_average(run_time_series(cfg), "q"))
        curves[b_mag] = avg
        line = " ".join(f"{v:.3f}" for v in avg)
        print(f"  B={b_mag:.4f}: {line}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\n(matplotlib not available; skipping the figure)")
        return

    fig, ax = plt.subplots(figsize=(7, 4))
    for b_mag, avg in curves.items():
        ax.plot(thetas, avg, "o-", label=f"B = {b_mag:.3f}")
    ax.set_xlabel("tilt angle theta")
    ax.set_ylabel("time-averaged Q")
    ax.set_title("average entanglement vs tilt (L=8, j_x=pi/4)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("tilted_field_nonintegrable.png", dpi=120)
    print("\nwrote tilted_field_nonintegrable.png")


if __name__ == "__main__":
    main()
