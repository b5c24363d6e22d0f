"""relaylink benchmark: analytic curves, Monte-Carlo validation and cold CLI
runs, each output checked against a reference computed apart from the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports relaylink from ``src/``. It
repeats whole rounds of the workload's operations until S seconds have passed
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

WORKLOADS = ("analytic_curves", "mc_validation", "cli_commands")
SETUP_PROBES = 5
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_out")

CALLS, VALUES, TOTAL, SELF = range(4)


def measure_setup(workload, seed):
    """Median time from starting a fresh interpreter to the workload being
    ready, over several cold starts."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


def _rounds_until(seconds, run_round, trace):
    """Whole rounds until `seconds` have passed. With tracing, rounds
    alternate untraced / traced so both are measured."""
    rounds = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        result = run_round(traced)
        rounds.append((traced, time.perf_counter() - t0, result))
        if time.perf_counter() - start >= seconds and (not trace or len(rounds) >= 2):
            return rounds


def _identical(rounds, key):
    first = repr(key(rounds[0][2]))
    return all(repr(key(r[2])) == first for r in rounds[1:])


def layer_metrics(stats, n_rounds):
    """Per-layer metrics from the tracer's aggregates: set-up work once plus
    the per-round average of the work done in rounds."""
    def total(field, names=None, prefix=None, context=None):
        acc = 0.0
        for (name, ctx), rec in stats.items():
            if names is not None and name not in names:
                continue
            if prefix is not None and not name.startswith(prefix):
                continue
            if context is not None and ctx != context:
                continue
            acc += rec[field] / (1 if ctx == "setup" else n_rounds)
        return acc

    trials = total(VALUES, {"mcsim.simulate_outage", "mcsim.simulate_asep"})
    asep_points = total(CALLS, {"analysis.asep"}, context="asep")
    return {
        "specfun.incgamma_calls": total(VALUES, {"specfun.reg_lower_inc_gamma"}),
        "specfun.incgamma_s": total(SELF, {"specfun.reg_lower_inc_gamma"}),
        "specfun.hermite_rule_s": total(TOTAL, {"specfun.hermite_rule"}),
        "specfun.simpson_evals": total(VALUES, {"analysis.simpson_integrand"}),
        "specfun.simpson_s": total(SELF, {"specfun.adaptive_simpson"}),
        "channels.cdf_values": total(VALUES, prefix="channels."),
        "channels.cdf_s": total(SELF, prefix="channels."),
        "selection.cdf_values": total(VALUES, prefix="selection."),
        "selection.cdf_s": total(SELF, prefix="selection."),
        "analysis.outage_s": total(SELF, prefix="analysis.", context="outage"),
        "analysis.asep_s": total(SELF, prefix="analysis.", context="asep"),
        "analysis.asep_evals_per_point": (
            total(VALUES, {"analysis._total_outage_value"}, context="asep") / asep_points
            if asep_points else 0.0),
        "mcsim.trials": trials,
        "mcsim.draw_s": total(SELF, {"mcsim.rng_stream", "mcsim._draw_uniforms"}),
        "mcsim.inverse_s": total(SELF, {"mcsim._alpha_mu_bulk", "mcsim.gammaincinv"}),
        "mcsim.inverse_values_per_trial": (
            total(VALUES, {"mcsim.gammaincinv"}) / trials if trials else 0.0),
        "mcsim.other_s": total(SELF, {"mcsim.simulate_outage", "mcsim.simulate_asep",
                                      "mcsim.block", "mcsim._end_to_end_snr"}),
        "ggfit.fit_s": total(SELF, {"ggfit.fit_alpha_mu"}),
        "ggfit.fit_iterations": total(VALUES, {"ggfit.fit_alpha_mu"}),
        "ggfit.diagnostics_s": total(SELF, {"ggfit.fit_diagnostics"}),
        "scenario.load_s": total(TOTAL, {"scenario.load_scenario"}),
    }


def run_inprocess(workload, seed, seconds, trace):
    import workloads as wl
    from tracing import Tracer

    tracer = Tracer() if trace else None
    if trace:
        tracer.install()
    state = (wl.setup_analytic if workload == "analytic_curves" else wl.setup_mc)(ROOT, seed)
    if trace:
        tracer.uninstall()

    def run_round(traced):
        if traced:
            tracer.install()
        try:
            return wl.run_points(state, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()

    rounds = _rounds_until(seconds, run_round, trace)
    failed, problems = wl.check_points(state, rounds[0][2][0])
    problems += wl.check_fits(state["fits"])
    if not _identical(rounds, lambda r: r[0]):
        problems.append("outputs differ between rounds" + (" (traced vs untraced)" if trace else ""))
    n_ops = len(state["ops"])
    counts = {"attempted": n_ops * len(rounds), "failed": len(failed) * len(rounds)}
    if trace:
        n_traced = sum(1 for traced, _, _ in rounds if traced)
        metrics = layer_metrics(tracer.stats(), n_traced)
        fanout = wl.fanout_times(state) if workload == "mc_validation" else None
        by_workers = fanout["seconds_by_workers"] if fanout else {}
        metrics["mcsim.fanout_speedup"] = (
            by_workers[1] / by_workers[wl.MC_WORKERS] if fanout else 0.0)
        metrics.update({k: 0.0 for k in CLI_METRICS})
        metrics["trace.overhead_s"] = _overhead(rounds)
        tracer.dump(_trace_path(workload), {"failed_ops": failed, "fanout": fanout,
                                            "round_s": [(t, w) for t, w, _ in rounds]})
        return counts, problems, metrics
    n_kind = {k: sum(1 for op in state["ops"] if op.kind == k) * len(rounds)
              for k in ("outage", "asep")}
    spent = {k: sum(r[2][1][k] for r in rounds) for k in ("outage", "asep")}
    metrics = {
        "outage_pts_per_s": n_kind["outage"] / spent["outage"],
        "asep_pts_per_s": n_kind["asep"] / spent["asep"],
        "round_s": statistics.median(wall for _, wall, _ in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return counts, problems, metrics


CLI_METRICS = ("cli.import_s", "cli.fit_s", "cli.outage_s", "cli.outage_mc_s",
               "cli.asep_s", "cli.asep_mc_s", "cli.ksweep_s")


def run_cli(seed, seconds, trace):
    import workloads as wl

    out_dir = os.path.join(OUT_DIR, "cli")
    trace_dir = os.path.join(OUT_DIR, "cli_trace")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    commands = wl.cli_commands(seed, os.path.relpath(out_dir, ROOT))
    env = wl.child_env(ROOT)
    child_traces = []

    def run_round(traced):
        res = wl.run_cli_round(commands, env, trace_dir if traced else None)
        if traced:
            for name, *_ in commands:
                path = os.path.join(trace_dir, f"{name}.json")
                if os.path.exists(path):
                    with open(path, encoding="utf-8") as fh:
                        child_traces.append(json.load(fh))
                    os.remove(path)
        return res

    rounds = _rounds_until(seconds, run_round, trace)
    failed, problems = wl.check_cli(commands, rounds[0][2], ROOT)
    if not _identical(rounds, lambda r: {n: v[1:] for n, v in r.items()}):
        problems.append("outputs differ between rounds" + (" (traced vs untraced)" if trace else ""))
    counts = {"attempted": len(commands) * len(rounds), "failed": len(failed) * len(rounds)}
    if trace:
        return counts, problems, _cli_layer_metrics(rounds, child_traces)
    points = {"outage": 0, "asep": 0}
    spent = {"outage": 0.0, "asep": 0.0}
    for _, _, res in rounds:
        for name, kind, _, _, n_rows in commands:
            if kind in points:
                points[kind] += n_rows
                spent[kind] += res[name][0]
    metrics = {
        "outage_pts_per_s": points["outage"] / spent["outage"],
        "asep_pts_per_s": points["asep"] / spent["asep"],
        "round_s": statistics.median(wall for _, wall, _ in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    return counts, problems, metrics


def _cli_layer_metrics(rounds, child_traces):
    n_traced = sum(1 for traced, _, _ in rounds if traced)
    stats, main_s, sim_s, import_s = {}, {}, {}, []
    for tr in child_traces:
        cmd = tr["command"]
        import_s.append(tr["import_s"])
        for name, ctx, *rec in tr["stats"]:
            acc = stats.setdefault((name, ctx), [0, 0, 0.0, 0.0])
            for i in range(4):
                acc[i] += rec[i]
            if name == "cli.main":
                main_s[cmd] = main_s.get(cmd, 0.0) + rec[TOTAL] / n_traced
            elif name == "mcsim.simulate_outage":
                sim_s[cmd] = sim_s.get(cmd, 0.0) + rec[TOTAL]
    metrics = layer_metrics(stats, n_traced)
    # same trials and seed in both commands, so the time ratio is the rate ratio
    w1, w2 = sim_s.get("outage_mc_w1", 0.0), sim_s.get("outage_mc_w2", 0.0)
    metrics["mcsim.fanout_speedup"] = w1 / w2 if w1 and w2 else 0.0
    metrics.update({
        "cli.import_s": statistics.mean(import_s) if import_s else 0.0,
        "cli.fit_s": main_s.get("fit", 0.0),
        "cli.outage_s": main_s.get("outage", 0.0),
        "cli.outage_mc_s": sum(main_s.get(k, 0.0)
                               for k in ("outage_mc", "outage_mc_w1", "outage_mc_w2")),
        "cli.asep_s": main_s.get("asep", 0.0),
        "cli.asep_mc_s": main_s.get("asep_mc", 0.0),
        "cli.ksweep_s": main_s.get("ksweep", 0.0),
        "trace.overhead_s": _overhead(rounds),
    })
    with open(_trace_path("cli_commands"), "w", encoding="utf-8") as fh:
        json.dump({"children": child_traces,
                   "round_s": [(t, w) for t, w, _ in rounds]}, fh)
    return metrics


def _overhead(rounds):
    plain = statistics.median(w for traced, w, _ in rounds if not traced)
    traced = statistics.median(w for t, w, _ in rounds if t)
    return traced - plain


def _trace_path(workload):
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, f"trace-{workload}.json")


UNITS = {"setup_s": "s", "outage_pts_per_s": "1/s", "asep_pts_per_s": "1/s",
         "round_s": "s", "peak_rss_mb": "MB"}


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name == "mcsim.fanout_speedup" else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "relaylink", "__init__.py")):
        print("bench: src/relaylink not found; run from the repository root",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    # cold starts first, before this process imports anything heavy
    setup_s = None if trace else measure_setup(args.workload, args.seed)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "cli_commands":
        counts, problems, metrics = run_cli(args.seed, args.seconds, trace)
    else:
        counts, problems, metrics = run_inprocess(args.workload, args.seed,
                                                  args.seconds, trace)
    if setup_s is not None:
        metrics = {"setup_s": setup_s, **metrics}
    for p in problems:
        print(f"bench: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
