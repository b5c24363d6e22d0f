"""Fit alpha-mu fading parameters to Gamma-Gamma turbulence conditions.

The optical hops are modeled by Gamma-Gamma irradiance with large- and
small-scale parameters (eta, beta). Matching the first three moments yields
an alpha-mu envelope model that the closed-form outage/ASEP machinery can
consume. This demo fits the five standard turbulence conditions and reports
the fit quality (the largest relative residual of log r2 and log r3 - 3 log r2,
r_n = E[X^n]/E[X]^n, which the fit solves; the Kolmogorov-Smirnov distance
to the Gamma-Gamma law, computed by quadrature; the relative error of the
fourth moment the fit never saw).
"""

from relaylink import GammaGammaParams, fit_alpha_mu, fit_diagnostics

CONDITIONS = [
    ("very weak", 21.5, 19.8),
    ("weak (a)", 9.70, 8.2),
    ("weak (b)", 8.65, 7.14),
    ("severe (a)", 4.0, 1.84),
    ("severe (b)", 4.34, 1.30),
]


def main():
    print(f"{'condition':<12} {'eta':>6} {'beta':>6} {'alpha':>8} {'mu':>8} "
          f"{'rho_bar':>8} {'residual':>10} {'KS':>9} {'m4 err':>8}")
    for name, eta, beta in CONDITIONS:
        gg = GammaGammaParams(eta=eta, beta=beta)
        fit = fit_alpha_mu(gg)
        diag = fit_diagnostics(fit, gg)
        print(f"{name:<12} {eta:>6.2f} {beta:>6.2f} {fit.alpha:>8.4f} "
              f"{fit.mu:>8.4f} {fit.rho_bar:>8.4f} {fit.residual_norm:>10.2e} "
              f"{diag.ks_distance:>9.2e} {diag.fourth_moment_rel_error:>8.1e}")
    print("\nSmaller KS / m4 error = better distributional agreement; the fit "
          "only constrains the first three moments.")


if __name__ == "__main__":
    main()
