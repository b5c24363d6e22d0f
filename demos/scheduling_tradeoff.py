"""Scheduling trade-offs: selection order N and node count K.

Serving the N-th best uplink instead of the best trades outage for fairness.
This demo measures the SNR penalty of worst-node scheduling (N = K) at a
target outage of 1e-3, then shows that adding source nodes beyond K ~ 5 buys
essentially nothing once the relay-destination hops limit performance.
"""

from relaylink import (
    AlphaMuParams,
    SchedulingSpec,
    SystemConfig,
    at_snr_db,
    total_outage,
)


def config(k, n, alpha, mu, snr=1.0):
    return SystemConfig(scheduling=SchedulingSpec(k, n, snr, snr),
                        sr_model=AlphaMuParams(alpha, mu, snr),
                        rs_model=AlphaMuParams(alpha, mu, snr),
                        gamma_th=1.0)


def snr_db_at(c, target, lo=0.0, hi=90.0):
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if total_outage(at_snr_db(c, mid)).value > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def main():
    target = 1e-3
    print(f"SNR penalty of worst-node scheduling at outage {target:g}:")
    for name, alpha, mu in [("Nakagami-m (m=2) backup RF", 2.0, 2.0),
                            ("severe optical turbulence", 0.5373, 4.0034)]:
        best = snr_db_at(config(3, 1, alpha, mu), target)
        worst = snr_db_at(config(3, 3, alpha, mu), target)
        print(f"  {name:<28} best {best:6.2f} dB, worst {worst:6.2f} dB "
              f"-> penalty {worst - best:.2f} dB")

    print("\nSNR needed for outage 1e-3 vs node count K (best selection, "
          "Nakagami-m backup RF):")
    prev = None
    for k in range(1, 11):
        need = snr_db_at(config(k, 1, 2.0, 2.0), target)
        gain = f"  (gain {prev - need:+.3f} dB)" if prev is not None else ""
        print(f"  K = {k:>2}: {need:6.2f} dB{gain}")
        prev = need
    print("\nThe per-node gain collapses once the fixed relay hops dominate.")


if __name__ == "__main__":
    main()
