"""Outage probability vs mean SNR for three backup-RF fading laws.

Sweeps the (equal) mean link SNR from 0 to 40 dB for K = 3 uplinks with best
selection, compares the exact expression against its high-SNR asymptote, and
prints the diversity order that sets each curve's slope. A Monte-Carlo column
(2e6 trials, fixed seed) cross-checks the analysis.
"""

from relaylink import (
    AlphaMuParams,
    McConfig,
    SchedulingSpec,
    SystemConfig,
    at_snr_db,
    classify_asymptotics,
    sweep,
)

LAWS = [
    ("Nakagami-m (m=2)", 2.0, 2.0),
    ("Rayleigh", 2.0, 1.0),
    ("exponential envelope", 1.0, 1.0),
]


def main():
    grid = range(0, 41, 5)
    mc = McConfig(trials=2_000_000, seed=20240915, workers=4)
    for name, alpha, mu in LAWS:
        c = SystemConfig(scheduling=SchedulingSpec(3, 1, 1.0, 1.0),
                         sr_model=AlphaMuParams(alpha, mu, 1.0),
                         rs_model=AlphaMuParams(alpha, mu, 1.0),
                         gamma_th=1.0)
        report = classify_asymptotics(c)
        print(f"\n{name}: diversity order {report.diversity_order:g} "
              f"(dominant high-SNR terms: {sorted(report.dominant)})")
        print(f"{'SNR dB':>7} {'exact':>12} {'asymptotic':>12} {'monte carlo':>12}")
        points = [(db, at_snr_db(c, db)) for db in grid]
        for row in sweep(points, mc=mc):
            print(f"{row.value:>7.0f} {row.exact.value:>12.4e} {row.asymptotic.value:>12.4e} "
                  f"{row.mc.value:>12.4e}")


if __name__ == "__main__":
    main()
