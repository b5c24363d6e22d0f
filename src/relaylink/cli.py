"""Command-line front end.

Subcommands:
    fit     --eta E --beta B [--json]        turbulence -> alpha-mu fit report
    outage  SCENARIO [--sweep-snr a:b:s] ... outage CSV (exact/asymptotic/MC)
    asep    SCENARIO [--sweep-snr a:b:s] ... symbol-error CSV (quadrature/MC)
    ksweep  SCENARIO --k A..B [--n-equals-k] outage vs number of nodes

outage, asep and ksweep build their (value, SystemConfig) points and take
every row from analysis.sweep, which computes the Monte-Carlo column first,
in as few passes as the points allow. A negative START is written
--sweep-snr=-10:0:2, since argparse reads "-10:..." as an option.

Exit codes: 0 success, 1 usage or scenario error (including a --sweep-snr grid
that is empty, non-finite, over SWEEP_MAX_POINTS or has coinciding points, a
--k range over SWEEP_MAX_POINTS, and a dB value too large for a float), 2
solver failure (a fit that does not converge), 3 self-check failure
(Monte-Carlo, or a fit's KS distance over FIT_KS_LIMIT). The Monte-Carlo seed
is --seed, else the RELAYLINK_SEED environment variable, else the scenario's
[mc] seed, else a fixed default; fit ignores the first two.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

from scipy.special import bdtr, bdtrc, ndtr

from . import analysis
from .channels import GammaGammaParams
from .errors import NonConvergenceError
from .ggfit import fit_alpha_mu, fit_diagnostics
from .mcsim import McConfig
from .scenario import ScenarioError, linear_to_db, load_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONCONVERGENCE = 2
EXIT_SELFCHECK = 3
FIT_KS_LIMIT = 0.01
SWEEP_MAX_POINTS = 1_000_000  # checked before a --sweep-snr grid or --k range is built

_SELFCHECK_TAIL = float(ndtr(-5.0))


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse's default is 2, reserved here for solver failure)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="relaylink",
                     description="Two-way relay network performance toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_fit = sub.add_parser("fit", help="fit alpha-mu parameters to a "
                                       "Gamma-Gamma turbulence pair")
    p_fit.add_argument("--eta", type=float, required=True,
                       help="large-scale turbulence parameter (> 0)")
    p_fit.add_argument("--beta", type=float, required=True,
                       help="small-scale turbulence parameter (> 0)")
    p_fit.add_argument("--json", action="store_true", help="machine-readable output")
    p_fit.add_argument("--seed", type=int, default=None,
                       help="ignored: the KS diagnostic is computed, not sampled")

    for name, help_text in (("outage", "outage probability sweep"),
                            ("asep", "average symbol error probability sweep")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="scenario INI file")
        p.add_argument("--sweep-snr", metavar="START:STOP:STEP", default=None,
                       help="mean-SNR sweep in dB (omit for a single point)")
        p.add_argument("--mc", type=int, default=None, metavar="TRIALS",
                       help="add a Monte-Carlo column with this many trials")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.add_argument("--seed", type=int, default=None, help="Monte-Carlo seed")
        p.add_argument("--workers", type=int, default=None,
                       help="Monte-Carlo worker threads")
        p.add_argument("--progress", action="store_true",
                       help="progress lines on standard error")

    p_k = sub.add_parser("ksweep", help="outage vs number of source nodes K")
    p_k.add_argument("scenario", help="scenario INI file")
    p_k.add_argument("--k", required=True, metavar="A..B",
                     help="inclusive K range, e.g. 1..10")
    p_k.add_argument("--n-equals-k", action="store_true",
                     help="select the worst (N = K) uplink at every K")
    p_k.add_argument("--out", default=None, help="output CSV path (default stdout)")
    return parser


def _mc_config(args, scenario_mc):
    """The scenario's [mc] fields, with --mc, --seed (else RELAYLINK_SEED) and
    --workers over them by name; None if neither asks for Monte Carlo."""
    seed, env = args.seed, os.environ.get("RELAYLINK_SEED")
    if seed is None and env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ScenarioError(f"RELAYLINK_SEED must be an integer, got {env!r}") from exc
    flags = {"trials": args.mc, "seed": seed, "workers": args.workers}
    if args.mc is None and scenario_mc is None:
        return None
    return McConfig(**{**(vars(scenario_mc) if scenario_mc else {}),
                       **{name: x for name, x in flags.items() if x is not None}})


def _parse_snr_sweep(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ScenarioError(f"--sweep-snr expects START:STOP:STEP, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ScenarioError(f"--sweep-snr values must be numbers: {spec!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise ScenarioError(f"--sweep-snr values must be finite: {spec!r}")
    if step <= 0:
        raise ScenarioError("--sweep-snr step must be positive")
    # the slack, relative to STEP, keeps a STOP that START + i * STEP reaches
    # only up to rounding; the first point is START itself, so -0 stays -0.0
    span = (stop - start) / step + 1e-9
    if not span >= 0:
        raise ScenarioError(f"--sweep-snr grid is empty (START > STOP): {spec!r}")
    if not span < SWEEP_MAX_POINTS:  # floor(span) + 1 points
        raise ScenarioError(f"--sweep-snr has more than {SWEEP_MAX_POINTS:,} points: {spec!r}")
    grid = [start + i * step if i else start for i in range(math.floor(span) + 1)]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ScenarioError(f"--sweep-snr points coincide: {spec!r}")
    return grid


def _fmt(x):
    return "" if x is None else repr(float(x))


def _write_csv(path, header, rows):
    fh = sys.stdout if path is None else open(path, "w", encoding="utf-8", newline="")
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, (float, type(None))) else str(v)
                             for v in row])
    finally:
        if path is not None:
            fh.close()


def cmd_fit(args) -> int:
    gg = GammaGammaParams(eta=args.eta, beta=args.beta)
    try:
        fit = fit_alpha_mu(gg)
    except NonConvergenceError as exc:
        print(f"relaylink fit: non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    diag = fit_diagnostics(fit, gg)
    if args.json:  # strict JSON: a non-finite value raises instead of printing Infinity
        print(json.dumps({
            "eta": args.eta, "beta": args.beta,
            "alpha": fit.alpha, "mu": fit.mu, "rho_bar": fit.rho_bar,
            "residual_norm": fit.residual_norm, "iterations": fit.iterations,
            "ks_distance": diag.ks_distance, "ks_at": diag.ks_at,
            "fourth_moment_rel_error": diag.fourth_moment_rel_error,
        }, allow_nan=False))
    else:
        print(f"eta      = {args.eta:.6g}")
        print(f"beta     = {args.beta:.6g}")
        print(f"alpha    = {fit.alpha:.6f}")
        print(f"mu       = {fit.mu:.6f}")
        print(f"rho_bar  = {fit.rho_bar:.6f}")
        print(f"residual = {fit.residual_norm:.3e}")
        print(f"KS dist  = {diag.ks_distance:.4f}  (at x = {diag.ks_at:.6g})")
    if diag.ks_distance > FIT_KS_LIMIT:
        print(f"relaylink fit: self-check failed: KS distance {diag.ks_distance:.4g}"
              f" > {FIT_KS_LIMIT}", file=sys.stderr)
        return EXIT_SELFCHECK
    return EXIT_OK


_HEADERS = {
    "outage": ["snr_db", "outage_exact", "outage_asymptotic", "outage_mc", "mc_stderr"],
    "asep": ["snr_db", "asep_quadrature", "asep_mc", "mc_stderr"],
}


def _selfcheck_failure(row):
    """Monte-Carlo estimate against the analytic value: None if it passes,
    else the statistic that failed. Outage: a two-sided exact binomial test
    of the hit count, each tail at the one-sided 5-sigma normal level; unlike
    a normal approximation it stays valid when few trials are expected to
    hit. ASEP: the z-score, failing beyond 5 of the estimate's standard
    errors."""
    est, p = row.mc, row.exact.value
    if row.exact.method == "quadrature":
        z = (est.value - p) / max(est.std_error, 1e-300)
        return f"z = {z:.4g}, beyond 5 sigma" if abs(z) > 5.0 else None
    hits = round(est.value * est.trials)
    below = bdtr(hits, est.trials, p)                                # P(X <= hits)
    above = bdtrc(hits - 1, est.trials, p) if hits > 0 else 1.0      # P(X >= hits)
    tail = min(below, above)
    return (f"binomial tail probability {tail:.4g} < {_SELFCHECK_TAIL:.4g}"
            if tail < _SELFCHECK_TAIL else None)


def cmd_curve(args) -> int:
    """outage and asep: one CSV row per mean-SNR point, from analysis.sweep.
    Its Monte-Carlo column comes first, from as few passes as the points
    allow, so that each progress line marks a finished row."""
    metric = args.command
    sc = load_scenario(args.scenario)
    mc_cfg = _mc_config(args, sc.mc)
    if args.sweep_snr is None:
        # single point at the scenario's own (possibly unequal) link SNRs
        points = [(linear_to_db(sc.system.scheduling.uplink_mean_snr), sc.system)]
    else:
        points = [(db, analysis.at_snr_db(sc.system, db))
                  for db in _parse_snr_sweep(args.sweep_snr)]
    rows, failures = [], []
    for i, ((db, _), row) in enumerate(zip(points, analysis.sweep(points, metric, mc_cfg))):
        cols = [row.value, row.exact.value] + ([row.asymptotic.value] if metric == "outage" else [])
        rows.append(cols + ([row.mc.value, row.mc.std_error] if row.mc else [None, None]))
        failure = _selfcheck_failure(row) if row.mc is not None else None
        if failure:  # row.exact.method names the analytic value: exact or quadrature
            failures.append(f"at {db!r} dB: MC vs {row.exact.method} {failure}")
        if args.progress:
            print(f"{metric}: point {i + 1}/{len(points)} done", file=sys.stderr)
    _write_csv(args.out, _HEADERS[metric], rows)
    for failure in failures:
        print(f"relaylink {metric}: Monte-Carlo self-check failed {failure}",
              file=sys.stderr)
    return EXIT_SELFCHECK if failures else EXIT_OK


def _parse_k_range(spec: str):
    try:
        lo_s, hi_s = spec.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise ScenarioError(f"--k expects A..B with integers, got {spec!r}") from exc
    if not 1 <= lo <= hi:
        raise ScenarioError(f"--k range must satisfy 1 <= A <= B, got {spec!r}")
    if hi - lo + 1 > SWEEP_MAX_POINTS:
        raise ScenarioError(f"--k has more than {SWEEP_MAX_POINTS:,} points: {spec!r}")
    return list(range(lo, hi + 1))


def cmd_ksweep(args) -> int:
    sc = load_scenario(args.scenario)
    points = []
    for k in _parse_k_range(args.k):
        n = k if args.n_equals_k else sc.system.scheduling.n_order
        if n > k:
            raise ScenarioError(
                f"scenario n_order={n} exceeds K={k}; "
                f"raise the lower --k bound or use --n-equals-k")
        sched = dataclasses.replace(sc.system.scheduling, k_total=k, n_order=n)
        points.append((k, dataclasses.replace(sc.system, scheduling=sched)))
    rows = [[k, row.exact.value] for (k, _), row in zip(points, analysis.sweep(points))]
    _write_csv(args.out, ["K", "outage_exact"], rows)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"fit": cmd_fit, "outage": cmd_curve, "asep": cmd_curve,
                "ksweep": cmd_ksweep}
    try:
        return handlers[args.command](args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"relaylink {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
