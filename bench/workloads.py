"""The three benchmark workloads: their inputs, one round of operations, and
the checks of every output.

Set-up here uses relaylink alone, so a fresh interpreter that runs it (see
``setup_probe.py``) measures the program's own start-up. The reference
(``reference.py``, SciPy only) is imported after the timed work.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
import time

import numpy as np
import relaylink as rl

SCENARIOS = ("rf_backup_baseline", "rf_backup_exponential", "rf_backup_worst_node",
             "optical_very_weak", "optical_severe")
# the Gamma-Gamma (eta, beta) rows of acceptance criterion 1
ROWS = (("very_weak", 21.5, 19.8), ("weak_a", 9.70, 8.2), ("weak_b", 8.65, 7.14),
        ("severe_a", 4.0, 1.84), ("severe_b", 4.34, 1.30))
SNR_GRID_DB = tuple(range(0, 41, 2))
K_SWEEP = tuple(range(1, 17))  # both sides of nth_best_cdf's K <= 12 branch
DIAGNOSTIC_DRAWS = 200_000  # as `relaylink fit` uses

# Fitted-turbulence ASEP points that analysis.asep gets wrong today (see
# README.md, "Failing operations"). Only these may fail; a later change that
# fixes them simply stops counting them as failed.
KNOWN_FAULTS = frozenset(
    [f"asep fit:weak_a@{db}dB" for db in (0,)]
    + [f"asep fit:weak_b@{db}dB" for db in (0, 2)]
    + [f"asep fit:severe_a@{db}dB" for db in SNR_GRID_DB if db != 14]
    + [f"asep fit:severe_b@{db}dB" for db in (34, 36, 38, 40)])

OUTAGE_RTOL = 1e-10
ASEP_RTOL = 1e-6
MC_SIGMAS = 5.0
FIT_RESIDUAL = 1e-8
KS_LIMIT = 0.01


@dataclasses.dataclass(frozen=True)
class Op:
    kind: str    # outage | asep
    label: str   # "<kind> <curve>@<point>"
    curve: str
    x: float     # the swept value: SNR in dB or K
    cfg: object
    mc: object = None


def scenario_path(root, name):
    return os.path.join(root, "scenarios", f"{name}.ini")


def at_snr_db(cfg, db):
    """All four link averages set to one SNR, as `--sweep-snr` does."""
    snr = 10.0 ** (db / 10.0)
    return dataclasses.replace(
        cfg,
        scheduling=dataclasses.replace(cfg.scheduling, uplink_mean_snr=snr,
                                       downlink_mean_snr=snr),
        sr_model=dataclasses.replace(cfg.sr_model, mean_snr=snr),
        rs_model=dataclasses.replace(cfg.rs_model, mean_snr=snr))


def with_hops(cfg, alpha, mu):
    hop = rl.AlphaMuParams(alpha=alpha, mu=mu, mean_snr=cfg.sr_model.mean_snr)
    return dataclasses.replace(cfg, sr_model=hop, rs_model=hop)


def with_k(cfg, k, n):
    return dataclasses.replace(
        cfg, scheduling=dataclasses.replace(cfg.scheduling, k_total=k, n_order=n))


def fit_rows(rows, seed):
    """Fit each Gamma-Gamma row and run its KS diagnostic, as set-up does."""
    fits = {}
    for i, (name, eta, beta) in enumerate(rows):
        gg = rl.GammaGammaParams(eta=eta, beta=beta)
        fit = rl.fit_alpha_mu(gg)
        diag = rl.fit_diagnostics(fit, gg, draws=DIAGNOSTIC_DRAWS,
                                  rng=np.random.default_rng((seed, i)))
        fits[name] = (eta, beta, fit, diag)
    return fits


# -- analytic_curves ----------------------------------------------------------

def setup_analytic(root, seed):
    base = {n: rl.load_scenario(scenario_path(root, n)).system for n in SCENARIOS}
    fits = fit_rows(ROWS, seed)
    ops = []
    for name, cfg in base.items():
        for db in SNR_GRID_DB:
            c = at_snr_db(cfg, db)
            ops += [Op(k, f"{k} ini:{name}@{db}dB", f"ini:{name}", db, c)
                    for k in ("outage", "asep")]
    rf_side = base["rf_backup_baseline"]
    for name, (_, _, fit, _) in fits.items():
        fitted = with_hops(rf_side, fit.alpha, fit.mu)
        for db in SNR_GRID_DB:
            c = at_snr_db(fitted, db)
            ops += [Op(k, f"{k} fit:{name}@{db}dB", f"fit:{name}", db, c)
                    for k in ("outage", "asep")]
    for k in K_SWEEP:
        for n, tag in ((1, "N=1"), (k, "N=K")):
            if tag == "N=K" and k == 1:
                continue
            c = with_k(rf_side, k, n)
            ops += [Op(kind, f"{kind} k:{tag}@K={k}", f"k:{tag}", k, c)
                    for kind in ("outage", "asep")]
    # first-call caches (the Hermite rule) through the public API, on a
    # fixed point so that set-up does the same work for every seed
    rl.asep(ops[0].cfg)
    random.Random(seed).shuffle(ops)
    return {"ops": ops, "fits": fits}


def _run_point(op):
    if op.kind == "outage":
        est = rl.total_outage(op.cfg)
        mc = rl.simulate_outage(op.cfg, op.mc) if op.mc else None
    else:
        est = rl.asep(op.cfg)
        mc = rl.simulate_asep(op.cfg, op.mc) if op.mc else None
    return (est.value,) if mc is None else (est.value, mc.value, mc.std_error)


def run_points(state, tracer=None):
    """One round over the op list: (outputs, seconds per kind)."""
    outputs, spent = [], {"outage": 0.0, "asep": 0.0}
    for op in state["ops"]:
        if tracer is not None:
            tracer.context = op.kind
        t0 = time.perf_counter()
        try:
            out = (tracer.call("bench.point", _run_point, op) if tracer
                   else _run_point(op))
        except Exception as exc:  # a failed operation, checked and counted below
            out = (type(exc).__name__, str(exc))
        spent[op.kind] += time.perf_counter() - t0
        outputs.append(out)
    return outputs, spent


def _rel(value, ref):
    return abs(value - ref) / abs(ref) if ref else abs(value)


def check_points(state, outputs):
    """Check every point against the reference. Returns (failed labels,
    problems that make the run incorrect)."""
    import reference

    failed, problems = [], []
    curves = {}
    for op, out in zip(state["ops"], outputs):
        ok = isinstance(out[0], float)
        why = f"raised {out[0]}: {out[1]}" if not ok else ""
        if ok:
            value = out[0]
            if op.kind == "outage":
                ref, tol, cap = reference.outage(op.cfg), OUTAGE_RTOL, 1.0
            else:
                ref, tol, cap = reference.asep(op.cfg), ASEP_RTOL, op.cfg.mod_a / 2.0
            if not 0.0 <= value <= cap:
                ok, why = False, f"{value!r} outside [0, {cap}]"
            elif _rel(value, ref) > tol:
                ok, why = False, f"{value!r} vs reference {ref!r}: {_rel(value, ref):.2e} relative"
            if len(out) == 3 and abs(out[1] - ref) > MC_SIGMAS * out[2]:
                ok, why = False, f"MC {out[1]!r} +- {out[2]:.2e} vs reference {ref!r}"
        if ok:
            curves.setdefault((op.kind, op.curve), []).append((op.x, out[0]))
        else:
            failed.append(op.label)
            if op.label not in KNOWN_FAULTS:
                problems.append(f"{op.label}: {why}")
    for (kind, curve), pts in curves.items():
        if curve == "k:N=K":
            continue  # serving the worst of K gets worse as K grows
        pts.sort()
        for (x0, v0), (x1, v1) in zip(pts, pts[1:]):
            if v1 > v0 * (1.0 + 1e-12):
                problems.append(f"{kind} {curve}: rises from {v0!r} at {x0} to {v1!r} at {x1}")
    return failed, problems


def check_fits(fits):
    import reference

    problems = []
    for name, (eta, beta, fit, _) in fits.items():
        resid = reference.moment_ratio_residual(eta, beta, fit.alpha, fit.mu)
        if resid > FIT_RESIDUAL:
            problems.append(f"fit {name}: moment-ratio residual {resid:.2e}")
    return problems


# -- mc_validation ------------------------------------------------------------

MC_TRIALS = 2_000_000  # two default-size batches, so both workers have one
MC_WORKERS = 2
MC_OUTAGE_DB = (0, 5, 10, 15, 20)
MC_ASEP_DB = (10,)


def setup_mc(root, seed):
    rf = rl.load_scenario(scenario_path(root, "rf_backup_baseline")).system
    fits = fit_rows([r for r in ROWS if r[0] in ("very_weak", "severe_b")], seed)
    curves = {
        "nakagami_K3": rf,
        "nakagami_K10": with_k(rf, 10, 1),
        "fit:very_weak": with_hops(rf, fits["very_weak"][2].alpha, fits["very_weak"][2].mu),
        "fit:severe_b": with_hops(rf, fits["severe_b"][2].alpha, fits["severe_b"][2].mu),
    }
    mc = rl.McConfig(trials=MC_TRIALS, seed=seed, workers=MC_WORKERS)
    ops = []
    for curve, cfg in curves.items():
        ops += [Op("outage", f"outage {curve}@{db}dB", curve, db, at_snr_db(cfg, db), mc)
                for db in MC_OUTAGE_DB]
        ops += [Op("asep", f"asep {curve}@{db}dB", curve, db, at_snr_db(cfg, db), mc)
                for db in MC_ASEP_DB]
    rl.asep(next(op.cfg for op in ops if op.kind == "asep"))  # first-call caches
    # no shuffle: the seed already sets every MC stream
    return {"ops": ops, "fits": fits}


def fanout_times(state):
    """Seconds for the first MC ASEP point at 1 and at 2 workers."""
    op = next(o for o in state["ops"] if o.kind == "asep")
    times = {}
    for workers in (1, MC_WORKERS):
        mc = dataclasses.replace(op.mc, workers=workers)
        t0 = time.perf_counter()
        rl.simulate_asep(op.cfg, mc)
        times[workers] = time.perf_counter() - t0
    return {"point": op.label, "trials": op.mc.trials, "seconds_by_workers": times}


# -- cli_commands -------------------------------------------------------------

CLI_MC_TRIALS = 200_000
CLI_PAIR_TRIALS = 2_000_000  # two batches, so --workers 2 has work to share


def cli_commands(seed, out_dir):
    """(name, kind, argv, csv path or None, expected rows)."""
    base = os.path.join("scenarios", "rf_backup_baseline.ini")
    weak = os.path.join("scenarios", "optical_very_weak.ini")
    s = str(seed)

    def out(name):
        return os.path.join(out_dir, f"{name}.csv")

    return [
        ("fit", "fit", ["fit", "--eta", "4.0", "--beta", "1.84", "--json", "--seed", s],
         None, 0),
        ("outage", "outage", ["outage", base, "--sweep-snr", "0:40:2", "--out", out("outage")],
         out("outage"), 21),
        ("outage_mc", "outage", ["outage", base, "--sweep-snr", "0:30:2", "--mc",
                                 str(CLI_MC_TRIALS), "--workers", "2", "--seed", s,
                                 "--out", out("outage_mc")], out("outage_mc"), 16),
        ("asep", "asep", ["asep", weak, "--sweep-snr", "0:30:2", "--out", out("asep")],
         out("asep"), 16),
        ("asep_mc", "asep", ["asep", weak, "--sweep-snr", "0:20:4", "--mc",
                             str(CLI_MC_TRIALS), "--workers", "2", "--seed", s,
                             "--out", out("asep_mc")], out("asep_mc"), 6),
        ("ksweep", "outage", ["ksweep", base, "--k", "1..16", "--out", out("ksweep")],
         out("ksweep"), 16),
        ("outage_mc_w1", "outage", ["outage", base, "--mc", str(CLI_PAIR_TRIALS),
                                    "--workers", "1", "--seed", s, "--out", out("pair_w1")],
         out("pair_w1"), 1),
        ("outage_mc_w2", "outage", ["outage", base, "--mc", str(CLI_PAIR_TRIALS),
                                    "--workers", "2", "--seed", s, "--out", out("pair_w2")],
         out("pair_w2"), 1),
    ]


def child_env(root):
    env = dict(os.environ)
    env.pop("RELAYLINK_SEED", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_round(commands, env, trace_dir=None):
    """Run each command once, one process at a time. Returns
    {name: (seconds, returncode, stdout, stderr, csv bytes)}."""
    results = {}
    here = os.path.dirname(os.path.abspath(__file__))
    for name, _, argv, csv_path, _ in commands:
        if csv_path and os.path.exists(csv_path):
            os.remove(csv_path)
        if trace_dir is None:
            cmd = [sys.executable, "-m", "relaylink.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(here, "cli_traced.py"),
                   os.path.join(trace_dir, f"{name}.json"), name, *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
        dt = time.perf_counter() - t0
        data = b""
        if csv_path and os.path.exists(csv_path):
            with open(csv_path, "rb") as fh:
                data = fh.read()
        results[name] = (dt, proc.returncode, proc.stdout, proc.stderr, data)
    return results


def _csv_rows(data):
    lines = data.decode().splitlines()
    header = lines[0].split(",") if lines else []
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_cli(commands, results, root):
    """Check each command's output. Returns (failed names, problems)."""
    import reference

    failed, problems = [], []
    for name, _, argv, _, n_rows in commands:
        _, code, stdout, stderr, data = results[name]
        if code != 0:
            why = [f"exit {code}: {stderr.decode(errors='replace').strip()[-300:]}"]
        elif name == "fit":
            why = _check_fit_json(stdout, reference)
        else:
            base = rl.load_scenario(os.path.join(root, argv[1])).system
            why = _check_cli_csv(name, argv, data, n_rows, base, reference)
        if why:
            failed.append(name)
            problems.append(f"cli {name}: " + "; ".join(why))
    if results["outage_mc_w1"][4] != results["outage_mc_w2"][4]:
        problems.append("cli outage --mc: --workers 1 and --workers 2 CSVs differ")
    return failed, problems


def _check_fit_json(stdout, reference):
    try:
        rep = json.loads(stdout)
        resid = reference.moment_ratio_residual(rep["eta"], rep["beta"],
                                                rep["alpha"], rep["mu"])
        ks = rep["ks_distance"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable --json output: {exc}"]
    why = []
    if resid > FIT_RESIDUAL:
        why.append(f"moment-ratio residual {resid:.2e}")
    if not ks < KS_LIMIT:
        why.append(f"KS distance {ks}")
    return why


def _check_cli_csv(name, argv, data, n_rows, base, reference):
    try:
        rows = _csv_rows(data)
    except UnicodeDecodeError as exc:
        return [f"unreadable CSV: {exc}"]
    if len(rows) != n_rows:
        return [f"{len(rows)} rows, expected {n_rows}"]
    why, prev = [], None
    for row in rows:
        try:
            why += _check_cli_row(name, argv, row, base, reference, prev)
            prev = float(row["outage_exact" if argv[0] != "asep" else "asep_quadrature"])
        except (KeyError, ValueError) as exc:
            why.append(f"unreadable row {row}: {exc!r}")
    return why


def _check_cli_row(name, argv, row, base, reference, prev):
    why = []
    if name == "ksweep":
        cfg = with_k(base, int(row["K"]), base.scheduling.n_order)
        value, ref, tol = float(row["outage_exact"]), reference.outage(cfg), OUTAGE_RTOL
    else:
        cfg = at_snr_db(base, float(row["snr_db"])) if "--sweep-snr" in argv else base
        if argv[0] == "outage":
            value, ref, tol = float(row["outage_exact"]), reference.outage(cfg), OUTAGE_RTOL
            asym = row["outage_asymptotic"]
            if asym and not 0.0 <= float(asym) <= 1.0:
                why.append(f"asymptote {asym} outside [0, 1]")
        else:
            value, ref, tol = float(row["asep_quadrature"]), reference.asep(cfg), ASEP_RTOL
        mc_col = "outage_mc" if argv[0] == "outage" else "asep_mc"
        if row.get(mc_col):
            mc, err = float(row[mc_col]), float(row["mc_stderr"])
            if abs(mc - ref) > MC_SIGMAS * err:
                why.append(f"MC {mc!r} +- {err:.2e} vs reference {ref!r}")
    if not 0.0 <= value <= 1.0:
        why.append(f"{value!r} outside [0, 1]")
    if _rel(value, ref) > tol:
        why.append(f"{value!r} vs reference {ref!r}")
    if prev is not None and value > prev * (1.0 + 1e-12):
        why.append(f"rises from {prev!r} to {value!r}")
    return why
