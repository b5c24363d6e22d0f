"""Checks on the shape of the library source, by static analysis, on what
importing it loads, and on the API names the README cites."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import relaylink
from relaylink import mcsim

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "relaylink"


def _names_used(node):
    """Every name that node reads, as a bare name or as an attribute."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def test_every_library_definition_is_used():
    # a module-level function or class that no library code calls and the
    # package does not export is a second route or a helper the tests need;
    # it belongs in tests/oracles.py, not in the library
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{path.name}:{node.lineno}"))
                # a recursive call does not make a function used
                used |= _names_used(node) - {node.name}
            else:
                used |= _names_used(node)
    unused = sorted(f"{where} {name}" for name, where in defined
                    if name not in used and name not in relaylink.__all__)
    assert unused == []


def test_scipy_only_through_special():
    # the import budget: the library needs scipy.special alone; importing
    # scipy.optimize after relaylink.cli took 0.16-0.21 s and 22 MB more
    # (Python 3.11, SciPy 1.17, 2 vCPUs), a cost every CLI command would pay
    reached = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
                names = [f"scipy.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "scipy"):  # SciPy loads a submodule on access
                names = [f"scipy.{node.attr}"]
            else:
                continue
            reached += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] == "scipy" and name != "scipy.special"]
    assert reached == []


def test_library_loads_no_scipy_integrate():
    # the run-time side of the import budget: the library's quadrature is its
    # own, and scipy.integrate (QUADPACK) serves the test oracles alone
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, relaylink, relaylink.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_cli_reaches_the_core_only_through_sweep():
    # one sweep engine: every curve row the CLI prints comes from
    # analysis.sweep, so the CLI names no evaluator or simulator of its own
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    names = _names_used(tree) | {name for _, name in imported}
    banned = {"evaluate", "total_outage", "asep", "sweep_mc"}
    assert sorted(n for n in names if n in banned or n.startswith("simulate_")) == []
    # of the core modules, the CLI takes the configs and the sweep alone
    core = {"analysis", "mcsim", "selection"}
    assert {name for module, name in imported if module in core} <= {"DEFAULT_SEED",
                                                                    "McConfig"}
    assert {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "analysis"} == {"at_snr_db", "sweep"}


def test_readme_calls_name_exported_functions():
    # every `name(` in the README's prose is a relaylink export or one of the
    # SciPy, NumPy and math functions it cites, so no removed or renamed entry
    # point stays in the docs
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    prose = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    cited = {"gammainc", "betainc", "log", "SeedSequence", "math.lgamma"}
    called = set(re.findall(r"`([A-Za-z_][\w.]*)\(", prose))
    assert sorted(called - cited - set(relaylink.__all__)) == []


def test_one_thread_fan_out_and_no_reduce_callback():
    # one reduction path: mcsim._map_blocks alone hands blocks to threads and
    # returns their results in block order; no library function takes a
    # reduce callback to fold them some other way
    pools, reducers = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reducers += [f"{path.name}:{func.lineno} {func.name}" for func in ast.walk(tree)
                     if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and "reduce" in {a.arg for a in ast.walk(func.args)
                                      if isinstance(a, ast.arg)}]
        pools += [f"{path.stem}.{getattr(node, 'name', node.lineno)}" for node in tree.body
                  if "ThreadPoolExecutor" in _names_used(node)]
    assert reducers == []
    assert pools == ["mcsim._map_blocks"]


def test_one_nth_best_selection_for_both_metrics():
    # one selection path: mcsim._nth_best_words alone reads the drawn words,
    # so the outage and ASEP kernels take the N-th best uplink from it
    def users(name):
        found = []
        for path in sorted(SRC.glob("*.py")):
            found += [f"{path.stem}.{getattr(node, 'name', node.lineno)}"
                      for node in ast.parse(path.read_text(encoding="utf-8")).body
                      if name in _names_used(node)]
        return found

    assert users("random_raw") == ["mcsim._nth_best_words"]
    assert users("_nth_best_words") == ["mcsim.simulate_outage_grid", "mcsim._end_to_end_snr"]


def test_mc_hops_drawn_not_inverted():
    # the Monte-Carlo kernels draw each alpha-mu hop from its Gamma law or
    # compare its word with a limit: mcsim imports no incomplete gamma
    # function or its inverse, and caches no table of one
    tree = ast.parse((SRC / "mcsim.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert sorted(n for n in imported if n.startswith("gammainc")) == []
    cached = [f"{func.name}:{func.lineno}" for func in ast.walk(tree)
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              and {"lru_cache", "cache"} & set().union(*map(_names_used, func.decorator_list))]
    assert cached == []


def test_one_stream_per_block():
    # each block reads one stream from its start: mcsim builds a bit
    # generator only in rng_stream, never moves one to an offset or a
    # counter, and McConfig has no field that splits the streams further
    tree = ast.parse((SRC / "mcsim.py").read_text(encoding="utf-8"))
    bit_generators = {"Philox", "PCG64", "PCG64DXSM", "MT19937", "SFC64", "default_rng"}
    assert [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and bit_generators & _names_used(node)] == ["rng_stream"]
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert [node.lineno for node in calls
            if isinstance(node.func, ast.Attribute) and node.func.attr == "advance"] == []
    assert [node.lineno for node in calls
            if any(kw.arg == "counter" for kw in node.keywords)] == []
    assert [f.name for f in dataclasses.fields(mcsim.McConfig)] == ["trials", "seed", "workers"]


def _resolves(module, attr):
    try:
        return hasattr(importlib.import_module(f"relaylink.{module}"), attr)
    except ModuleNotFoundError:
        return False


def test_bench_tracer_targets_resolve():
    # the benchmark's tracer skips a target that no relaylink module holds,
    # so a rename leaves the metrics it feeds at zero and the run passes;
    # these seven are dead already, and one more fails here
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = {f"{module}.{attr}" for module, attr in tracing.TARGETS
                  if not _resolves(module, attr)}
    assert unresolved == {
        "specfun.reg_lower_inc_gamma", "specfun.hermite_rule", "specfun.adaptive_simpson",
        "analysis._configure", "mcsim._draw_uniforms", "mcsim._alpha_mu_bulk",
        "mcsim.gammaincinv"}
