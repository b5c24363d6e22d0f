import configparser
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.special import bdtr, bdtrc

import relaylink
from relaylink import cli, mcsim, scenario
from relaylink.analysis import PerfEstimate, SweepRow, total_outage
from relaylink.mcsim import DEFAULT_SEED
from relaylink.scenario import (
    Scenario,
    ScenarioError,
    db_to_linear,
    linear_to_db,
    parse_scenario,
    serialize_scenario,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

GOOD = """\
[scheduling]
k_total = 3
n_order = 2
gamma_th_db = 0

[uplink]
mean_snr_db = 10

[downlink]
mean_snr = 10

[sr_link]
alpha = 2
mu = 2
mean_snr_db = 10

[rs_link]
alpha = 2
mu = 2
mean_snr_db = 10

[modulation]
a = 1
b = 1

[mc]
trials = 50000
seed = 42
workers = 2
"""


# ------------------------------------------------------------- scenario

def test_parse_scenario_values():
    sc = parse_scenario(GOOD)
    c = sc.system
    assert c.scheduling.k_total == 3 and c.scheduling.n_order == 2
    assert c.gamma_th == pytest.approx(1.0)
    assert c.scheduling.uplink_mean_snr == pytest.approx(10.0)
    assert c.scheduling.downlink_mean_snr == pytest.approx(10.0)
    assert c.sr_model.alpha == 2.0 and c.sr_model.mu == 2.0
    assert sc.mc.trials == 50_000 and sc.mc.seed == 42
    assert sc.mc.workers == 2


def test_db_conversions():
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(0.0) == pytest.approx(1.0)
    assert linear_to_db(100.0) == pytest.approx(20.0)
    with pytest.raises(ValueError):
        linear_to_db(0.0)


def test_round_trip_is_identity():
    sc = parse_scenario(GOOD)
    again = parse_scenario(serialize_scenario(sc))
    assert again == sc
    # and serialization is a fixed point
    assert serialize_scenario(again) == serialize_scenario(sc)


def test_round_trip_without_mc_section():
    text = GOOD.split("[mc]")[0]
    sc = parse_scenario(text)
    assert sc.mc is None
    assert parse_scenario(serialize_scenario(sc)) == sc


def test_unknown_key_fails_closed():
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(GOOD + "\n[scheduling]\nbogus = 1\n"
                       .replace("[scheduling]\n", ""))
    with pytest.raises(ScenarioError, match="unknown section"):
        parse_scenario(GOOD + "\n[turbo]\nx = 1\n")


def test_both_db_and_linear_rejected():
    text = GOOD.replace("[downlink]\nmean_snr = 10",
                        "[downlink]\nmean_snr = 10\nmean_snr_db = 10")
    with pytest.raises(ScenarioError, match="not both"):
        parse_scenario(text)


def test_missing_section_and_key():
    with pytest.raises(ScenarioError, match="missing required section"):
        parse_scenario(GOOD.replace("[downlink]\nmean_snr = 10\n", ""))
    with pytest.raises(ScenarioError, match="missing"):
        parse_scenario(GOOD.replace("mu = 2\nmean_snr_db = 10\n\n[rs_link]",
                                    "mean_snr_db = 10\n\n[rs_link]", 1))


def test_invalid_values_reported():
    with pytest.raises(ScenarioError):
        parse_scenario(GOOD.replace("k_total = 3", "k_total = three"))
    with pytest.raises(ScenarioError):
        parse_scenario(GOOD.replace("n_order = 2", "n_order = 9"))
    with pytest.raises(ScenarioError):
        parse_scenario(GOOD.replace("trials = 50000", "trials = 10"))


@pytest.mark.parametrize("old,new,section", [
    pytest.param("[sr_link]\nalpha = 2\nmu = 2", "[sr_link]\nalpha = 2\nmu = inf", "sr_link",
                 id="sr_link-mu"),
    pytest.param("[rs_link]\nalpha = 2\nmu = 2", "[rs_link]\nalpha = 2\nmu = inf", "rs_link",
                 id="rs_link-mu"),
    pytest.param("[sr_link]\nalpha = 2\nmu = 2", "[sr_link]\nalpha = 2\nmu = 2.6e305",
                 "sr_link", id="sr_link-mu-above-1e300"),
    pytest.param("[rs_link]\nalpha = 2\nmu = 2", "[rs_link]\nalpha = 2\nmu = 1.7e308",
                 "rs_link", id="rs_link-mu-above-1e300"),
    # the hop's order alpha * mu / 2 underflows to 0
    pytest.param("[sr_link]\nalpha = 2\nmu = 2", "[sr_link]\nalpha = 1e-200\nmu = 1e-200",
                 "sr_link", id="sr_link-order-underflow"),
    pytest.param("n_order = 2", "n_order = 9", "scheduling", id="scheduling-n_order"),
    pytest.param("gamma_th_db = 0", "gamma_th_db = 5000", "scheduling",
                 id="scheduling-gamma_th_db"),
    pytest.param("[downlink]\nmean_snr = 10", "[downlink]\nmean_snr = -1", "downlink",
                 id="downlink-mean_snr"),
    pytest.param("[downlink]\nmean_snr = 10", "[downlink]\nmean_snr = inf", "downlink",
                 id="downlink-mean_snr-inf"),
    pytest.param("a = 1", "a = 0", "modulation", id="modulation-a"),
    # asep would integrate up to sqrt(40 / b) = inf
    pytest.param("a = 1\nb = 1", "a = 1\nb = inf", "modulation", id="modulation-b-inf"),
    pytest.param("a = 1\nb = 1", "a = 1\nb = 1e-308", "modulation",
                 id="modulation-b-1e-308"),
    pytest.param("trials = 50000", "trials = 10", "mc", id="mc-trials"),
    pytest.param("workers = 2", "workers = 0", "mc", id="mc-workers"),
    pytest.param("seed = 42", "seed = -1", "mc", id="mc-seed"),
])
def test_invalid_values_name_their_section(old, new, section, tmp_path, capsys):
    text = GOOD.replace(old, new)
    with pytest.raises(ScenarioError, match=rf"^\[{section}\] "):
        parse_scenario(text)
    bad = tmp_path / "bad.ini"
    bad.write_text(text, encoding="utf-8")
    assert cli.main(["outage", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"relaylink outage: error: [{section}] ")


def test_mc_batch_key_rejected(tmp_path, capsys):
    # blocks have one fixed size, so [mc] takes no batch
    bad = tmp_path / "bad.ini"
    bad.write_text(GOOD + "batch = 10\n", encoding="utf-8")
    assert cli.main(["outage", str(bad)]) == 1
    assert "unknown key 'batch' in section [mc]" in capsys.readouterr().err


# GOOD as section -> key -> value, to drop, set or add one key at a time
GOOD_FIELDS = {
    "scheduling": {"k_total": "3", "n_order": "2", "gamma_th_db": "0"},
    "uplink": {"mean_snr_db": "10"},
    "downlink": {"mean_snr": "10"},
    "sr_link": {"alpha": "2", "mu": "2", "mean_snr_db": "10"},
    "rs_link": {"alpha": "2", "mu": "2", "mean_snr_db": "10"},
    "modulation": {"a": "1", "b": "1"},
    "mc": {"trials": "50000", "seed": "42", "workers": "2"},
}


def _ini(changes=()):
    """GOOD with each (section, key): value of changes set, or dropped where None."""
    fields = {section: dict(keys) for section, keys in GOOD_FIELDS.items()}
    for (section, key), value in dict(changes).items():
        fields[section].pop(key, None)
        if value is not None:
            fields[section][key] = value
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for section, keys in fields.items())


def _without(section, key):
    """The changes that drop key, in both forms: key and key_db."""
    return {(section, key): None, (section, key + "_db"): None}


def test_readme_key_table_lists_the_schema():
    # the README's table of scenario keys names exactly the keys the parser takes:
    # each of them, and no other key that serialize_scenario writes or its _db form
    table = {}
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        row = re.fullmatch(r"\| `\[(\w+)\]` +\|(.*)\|", line)
        if row:
            table[row[1]] = set(re.findall(r"`(\w+)`", row[2]))
    written = configparser.ConfigParser()
    written.read_string(serialize_scenario(parse_scenario(GOOD)))
    assert set(table) == set(written.sections())

    def accepted(section, key):
        try:
            parse_scenario(_ini({(section, key): "1"}))
        except ScenarioError as exc:
            return "unknown key" not in str(exc)
        return True

    for section, keys in table.items():
        candidates = keys | {name for key in written[section] for name in (key, key + "_db")}
        assert keys == {key for key in candidates if accepted(section, key)}, section


# the format key by key, as listed here rather than read from the parser
REQUIRED_KEYS = [("scheduling", "k_total"), ("scheduling", "n_order"),
                 ("sr_link", "alpha"), ("sr_link", "mu"),
                 ("rs_link", "alpha"), ("rs_link", "mu"), ("mc", "trials")]
SNR_KEYS = [("scheduling", "gamma_th"), ("uplink", "mean_snr"), ("downlink", "mean_snr"),
            ("sr_link", "mean_snr"), ("rs_link", "mean_snr")]
INT_KEYS = [("scheduling", "k_total"), ("scheduling", "n_order"),
            ("mc", "trials"), ("mc", "seed"), ("mc", "workers")]
FLOAT_KEYS = [("sr_link", "alpha"), ("sr_link", "mu"), ("rs_link", "alpha"), ("rs_link", "mu"),
              ("modulation", "a"), ("modulation", "b")]


def _message(text):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    return str(err.value)


@pytest.mark.parametrize("section,key", REQUIRED_KEYS + SNR_KEYS)
def test_each_required_key_missing(section, key):
    alt = f" (or {key}_db)" if (section, key) in SNR_KEYS else ""
    assert _message(_ini(_without(section, key))) == f"[{section}]: missing {key}{alt}"


@pytest.mark.parametrize("section,key", INT_KEYS + FLOAT_KEYS + SNR_KEYS
                         + [(section, key + "_db") for section, key in SNR_KEYS])
def test_each_key_rejects_a_word(section, key):
    text = _ini({**_without(section, key.removesuffix("_db")), (section, key): "x"})
    kind = "not an integer" if (section, key) in INT_KEYS else "not a number"
    assert _message(text) == f"[{section}] {key}: {kind}"


@pytest.mark.parametrize("section,key", SNR_KEYS)
def test_each_snr_key_in_both_forms(section, key):
    text = _ini({(section, key): "10", (section, key + "_db"): "10"})
    assert _message(text) == f"[{section}]: give {key} or {key}_db, not both"


# ------------------------------------------------------------------ CLI

@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scn.ini"
    path.write_text(GOOD.split("[mc]")[0], encoding="utf-8")
    return str(path)


def test_cli_fit_report(capsys):
    assert cli.main(["fit", "--eta", "4", "--beta", "1.84", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["residual_norm"] <= 1e-8
    assert out["alpha"] > 0 and out["mu"] > 0


@pytest.mark.parametrize("eta,beta", [("0.01", "0.01"), ("0.2", "5"), ("1", "0.05"),
                                      ("0.2", "0.2")])
def test_cli_fit_rejected_by_ks_exits_3(eta, beta, capsys):
    # the moments are met, but the fitted law misses the Gamma-Gamma one
    assert cli.main(["fit", "--eta", eta, "--beta", beta, "--json"]) == 3
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["residual_norm"] <= 1e-8
    assert report["ks_distance"] > cli.FIT_KS_LIMIT
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and f"{report['ks_distance']:.4g}" in err[0]


@pytest.mark.parametrize("eta,beta", [("21.5", "19.8"), ("9.70", "8.2"), ("8.65", "7.14"),
                                      ("4.0", "1.84"), ("4.34", "1.30")])
def test_cli_fit_turbulence_rows_pass_ks(eta, beta, capsys):
    assert cli.main(["fit", "--eta", eta, "--beta", beta]) == 0
    captured = capsys.readouterr()
    assert "KS dist" in captured.out and captured.err == ""


def test_cli_fit_beyond_float_moments_exits_2(capsys):
    # very weak turbulence so far out that r3 / r2^3 - 1 ~ 2e-400 underflows
    assert cli.main(["fit", "--eta", "1e200", "--beta", "1e200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "non-convergence" in captured.err


def test_cli_fit_bad_args(capsys):
    assert cli.main(["fit", "--eta", "0", "--beta", "1"]) == 1
    assert cli.main(["fit", "--eta", "inf", "--beta", "2"]) == 1
    assert "eta, beta must be finite and positive" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        cli.main(["fit", "--eta", "1"])
    assert err.value.code == 1


def test_cli_fit_equal_shapes_of_1e40_exit_0(capsys):
    # a 200,000-draw KS read 0.5 here and exited 3: every draw rounded to 1.0
    assert cli.main(["fit", "--eta", "1e40", "--beta", "1e40"]) == 0
    assert capsys.readouterr().err == ""


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("eta,beta", [("21.5", "19.8"), ("4.34", "1.30"), ("0.01", "0.01"),
                                      ("1e12", "0.01"), ("1e12", "1e12"), ("1e20", "1e20"),
                                      ("1e40", "1e40")])
def test_cli_fit_json_is_strict(eta, beta, capsys):
    # the fourth-moment error was inf from mu ~ 1e38 on, printed as Infinity
    assert cli.main(["fit", "--eta", eta, "--beta", beta, "--json"]) in (0, 3)
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert all(math.isfinite(v) for v in report.values())


def test_cli_fit_output_ignores_seed(capsys, monkeypatch):
    # --seed and RELAYLINK_SEED are accepted, and change no byte
    for fmt in ([], ["--json"]):
        outs = []
        for seed in (["--seed", "1"], ["--seed", "2"], None):
            if seed is None:
                monkeypatch.setenv("RELAYLINK_SEED", "3")
            assert cli.main(["fit", "--eta", "4.0", "--beta", "1.84", *fmt, *(seed or [])]) == 0
            outs.append(capsys.readouterr().out)
            monkeypatch.delenv("RELAYLINK_SEED", raising=False)
        assert outs[0] == outs[1] == outs[2]


def test_cli_outage_csv(scenario_file, tmp_path, capsys):
    out = tmp_path / "o.csv"
    code = cli.main(["outage", scenario_file, "--sweep-snr", "0:20:10",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "snr_db,outage_exact,outage_asymptotic,outage_mc,mc_stderr"
    assert len(lines) == 4
    assert out.read_text().endswith("\n")
    # no MC requested: those columns are empty
    assert lines[1].endswith(",,")


def test_cli_outage_single_point_asymptote_at_unequal_scales(tmp_path, capsys):
    # each high-SNR term at its own link's scale: the column is filled
    path = tmp_path / "unequal.ini"
    path.write_text(GOOD.split("[mc]")[0].replace("mean_snr = 10", "mean_snr = 40")
                    .replace("mu = 2\nmean_snr_db = 10", "mu = 2\nmean_snr_db = 13", 1),
                    encoding="utf-8")
    system = relaylink.load_scenario(path).system
    assert len({system.scheduling.uplink_mean_snr, system.scheduling.downlink_mean_snr,
                system.sr_model.mean_snr, system.rs_model.mean_snr}) == 3
    assert cli.main(["outage", str(path)]) == 0
    _, _, asym, _, _ = capsys.readouterr().out.splitlines()[1].split(",")
    assert asym == repr(relaylink.asymptotic_outage(system).value)


def test_cli_outage_zero_length_sweep(scenario_file, tmp_path):
    # an empty grid is a usage error, not a header-only CSV
    out = tmp_path / "o.csv"
    code = cli.main(["outage", scenario_file, "--sweep-snr", "10:0:5",
                     "--out", str(out)])
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("spec", ["10:0:1", "0:nan:1", "0:inf:1", "nan:10:1",
                                  "-inf:10:1", "0:10:nan", "0:10:inf",
                                  # points that round to one value, or more
                                  # points than cli.SWEEP_MAX_POINTS
                                  "1e16:1.00000000000001e16:1", "0:1e300:1e-300"])
def test_cli_sweep_empty_or_nonfinite_rejected(scenario_file, tmp_path, spec):
    with pytest.raises(ScenarioError):
        cli._parse_snr_sweep(spec)
    for command in ("outage", "asep"):
        out = tmp_path / f"{command}.csv"
        assert cli.main([command, scenario_file, f"--sweep-snr={spec}",
                         "--out", str(out)]) == 1
        assert not out.exists()


def test_cli_sweep_grid_counted_from_step():
    # the slack is relative to STEP: a tiny step over a zero span is one point
    assert cli._parse_snr_sweep("5:5:1e-12") == [5.0]
    # the points stay START + i * STEP, and STOP counts when reached up to rounding
    assert cli._parse_snr_sweep("0:0.3:0.1") == [0.0, 0.1, 0.2, 0.1 * 3]
    assert cli._parse_snr_sweep("0:1:0.3") == [0.0, 0.3, 0.6, 0.3 * 3]


def test_cli_sweep_point_limit(monkeypatch):
    # the count is checked from the span, before a point is built: 1e15 points
    # and the first count past the limit raise at once
    for spec in ("0:1e15:1", "0:1000000:1"):
        with pytest.raises(ScenarioError, match="more than 1,000,000 points"):
            cli._parse_snr_sweep(spec)
    # both sides of the limit, at a small one
    monkeypatch.setattr(cli, "SWEEP_MAX_POINTS", 5)
    assert cli._parse_snr_sweep("0:4:1") == [0.0, 1.0, 2.0, 3.0, 4.0]
    with pytest.raises(ScenarioError, match="more than 5 points"):
        cli._parse_snr_sweep("0:5:1")


def test_cli_huge_db_value_exits_1_naming_it(scenario_file, tmp_path, capsys):
    out = tmp_path / "o.csv"
    for command in ("outage", "asep"):
        assert cli.main([command, scenario_file, "--sweep-snr", "4000:4000:1",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "4000.0 dB" in err[0]
    big = tmp_path / "big.ini"
    big.write_text(Path(scenario_file).read_text().replace(
        "gamma_th_db = 0", "gamma_th_db = 5000"), encoding="utf-8")
    assert cli.main(["outage", str(big), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "5000.0 dB" in err[0]
    assert not out.exists()


def test_cli_mc_below_minimum_exits_1(scenario_file, tmp_path, capsys):
    # with and without an [mc] section in the scenario
    with_mc = tmp_path / "with_mc.ini"
    with_mc.write_text(GOOD, encoding="utf-8")
    out = tmp_path / "o.csv"
    for path in (scenario_file, str(with_mc)):
        assert cli.main(["outage", path, "--mc", "999", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "relaylink outage: error: trials must be an integer >= 1000, got 999"]
        assert not out.exists()


def test_cli_sweep_at_float_max_terminates(scenario_file, tmp_path):
    # START + STEP == START here, so a grid grown by STEP until it passes STOP
    # would never end; the timeout turns such a hang into a failure
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = tmp_path / "o.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "relaylink.cli", "outage", scenario_file,
         "--sweep-snr", "1e308:1e308:1", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "relaylink outage: error: 1e+308 dB is too large for a float"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["outage", "asep"])
def test_cli_progress_lines_leave_csv_unchanged(scenario_file, tmp_path, capsys,
                                                 command):
    plain, shown = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [command, scenario_file, "--sweep-snr", "0:20:5", "--mc", "20000"]
    assert cli.main([*args, "--out", str(plain)]) == 0
    assert capsys.readouterr().err == ""
    assert cli.main([*args, "--progress", "--out", str(shown)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"{command}: point {i}/5 done" for i in range(1, 6)]
    assert shown.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("command", ["outage", "asep"])
def test_cli_sweep_rows_equal_one_point_sweeps(scenario_file, tmp_path, command):
    # each row of a sweep, MC column included, equals the one-point sweep at
    # its SNR byte for byte, though the sweep draws its blocks once for all
    args = ["--mc", "20000", "--seed", "5", "--workers", "2"]
    whole = tmp_path / "whole.csv"
    assert cli.main([command, scenario_file, "--sweep-snr=-5:15:5", *args,
                     "--out", str(whole)]) == 0
    rows = whole.read_text().splitlines()
    assert len(rows) == 6
    for i, db in enumerate((-5, 0, 5, 10, 15)):
        one = tmp_path / f"{db}.csv"
        assert cli.main([command, scenario_file, f"--sweep-snr={db}:{db}:1", *args,
                         "--out", str(one)]) == 0
        assert one.read_text().splitlines() == [rows[0], rows[i + 1]]


def test_cli_outage_deterministic_bytes(scenario_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--sweep-snr", "0:10:5", "--mc", "20000", "--seed", "99"]
    assert cli.main(["outage", scenario_file, *args, "--out", str(a)]) == 0
    assert cli.main(["outage", scenario_file, *args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_outage_env_seed(scenario_file, tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("RELAYLINK_SEED", "1234")
    assert cli.main(["outage", scenario_file, "--sweep-snr", "5:5:1",
                     "--mc", "20000", "--out", str(a)]) == 0
    monkeypatch.delenv("RELAYLINK_SEED")
    assert cli.main(["outage", scenario_file, "--sweep-snr", "5:5:1",
                     "--mc", "20000", "--seed", "1234", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_outage_tripwire_exit_3(scenario_file, tmp_path, monkeypatch, capsys):
    # a wrong estimate at the middle point of a sweep, right ones either side:
    # the message names that point alone, with its binomial tail probability
    def estimates(configs, m):
        return [PerfEstimate(0.999 if i == 1 else total_outage(c).value,
                             method="monte_carlo", std_error=1e-6, trials=m.trials)
                for i, c in enumerate(configs)]
    monkeypatch.setattr(mcsim, "simulate_outage_grid", estimates)
    code = cli.main(["outage", scenario_file, "--sweep-snr", "0:10:5",
                     "--mc", "20000", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "relaylink outage: Monte-Carlo self-check failed at 5.0 dB: "
        "MC vs exact binomial tail probability 0 < 2.867e-07"]


def test_cli_outage_selfcheck_passes_when_no_trial_hits(tmp_path):
    # exact 1.0e-4 at 40 dB: 0 of 1000 trials is the likeliest outcome
    # (probability 0.90), and the sample's own standard error is then 0
    out = tmp_path / "o.csv"
    code = cli.main(["outage", str(SCENARIOS / "rf_backup_baseline.ini"),
                     "--sweep-snr", "40:40:1", "--mc", "1000", "--workers", "1",
                     "--seed", "3", "--out", str(out)])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[1]) > 0.0 and float(row[3]) == 0.0 and float(row[4]) == 0.0


@pytest.mark.parametrize("snr_db,hits,expected", [
    (45, 1, 0),   # n*p = 0.032: one hit has probability ~3%, a z-test trips on it
    (40, 2, 0),   # n*p = 0.10: P(X >= 2) = 4.7e-3
    (40, 4, 0),   # P(X >= 4) = 3.8e-6, above the 5-sigma tail of 2.9e-7
    (40, 5, 3),   # P(X >= 5) = 7.6e-8, below it
])
def test_cli_outage_selfcheck_few_expected_hits(tmp_path, monkeypatch,
                                                snr_db, hits, expected):
    def estimates(configs, m):
        return [PerfEstimate(hits / m.trials, method="monte_carlo",
                             std_error=0.0, trials=m.trials) for _ in configs]
    monkeypatch.setattr(mcsim, "simulate_outage_grid", estimates)
    code = cli.main(["outage", str(SCENARIOS / "rf_backup_baseline.ini"),
                     "--sweep-snr", f"{snr_db}:{snr_db}:1", "--mc", "1000",
                     "--out", str(tmp_path / "o.csv")])
    assert code == expected


def test_cli_outage_selfcheck_uses_exact_spread(scenario_file, tmp_path, monkeypatch):
    # a badly wrong estimate that claims a wide spread of its own still trips
    def wrong_estimates(configs, m):
        return [PerfEstimate(0.5, method="monte_carlo", std_error=1.0,
                             trials=m.trials) for _ in configs]
    monkeypatch.setattr(mcsim, "simulate_outage_grid", wrong_estimates)
    code = cli.main(["outage", scenario_file, "--sweep-snr", "30:30:1",
                     "--mc", "20000", "--out", str(tmp_path / "x.csv")])
    assert code == 3


def _mc_row(method, exact, value, std_error=0.0, trials=1000):
    return SweepRow(0.0, PerfEstimate(exact, method=method), None,
                    PerfEstimate(value, method="monte_carlo", std_error=std_error, trials=trials))


def test_selfcheck_z_edge():
    # |z| = 5 exactly passes; the next float above 5 fails (0.3125 / 0.0625 = 5
    # exactly, and one ulp of 0.3125 over 0.0625 is one ulp of 5)
    up = math.nextafter(0.3125, 1.0)
    assert cli._selfcheck_failure(_mc_row("quadrature", 0.0, 0.3125, 0.0625)) is None
    assert cli._selfcheck_failure(_mc_row("quadrature", 0.3125, 0.0, 0.0625)) is None
    assert (0.0 + up) / 0.0625 == math.nextafter(5.0, 6.0)
    for exact, value in ((0.0, up), (up, 0.0)):
        failure = cli._selfcheck_failure(_mc_row("quadrature", exact, value, 0.0625))
        assert failure is not None and "beyond 5 sigma" in failure


def test_selfcheck_no_hits():
    # hits == 0 has no upper tail to test; the lower tail P(X = 0) = (1 - p)^n decides
    assert cli._selfcheck_failure(_mc_row("exact", 1e-4, 0.0)) is None  # 0.905
    failure = cli._selfcheck_failure(_mc_row("exact", 0.05, 0.0))     # 5.3e-23
    assert failure is not None and failure.startswith("binomial tail probability 5.")


def test_selfcheck_tail_edge(monkeypatch):
    # a tail equal to the limit passes, and the limit one float above it fails
    row = _mc_row("exact", 0.01, 0.03)  # 30 hits of 1000 at p = 0.01
    tail = min(bdtr(30, 1000, 0.01), bdtrc(29, 1000, 0.01))
    monkeypatch.setattr(cli, "_SELFCHECK_TAIL", tail)
    assert cli._selfcheck_failure(row) is None
    monkeypatch.setattr(cli, "_SELFCHECK_TAIL", math.nextafter(tail, 1.0))
    assert cli._selfcheck_failure(row) is not None


@pytest.mark.parametrize("sweep,dbs_z", [
    ([], [("10.0", "3.627e+05")]),
    (["--sweep-snr", "0:10:5"],
     [("0.0", "1.68e+05"), ("5.0", "2.853e+05"), ("10.0", "3.627e+05")]),
], ids=["sweep0", "sweep1"])
def test_cli_asep_tripwire_exit_3(scenario_file, tmp_path, monkeypatch, capsys,
                                  sweep, dbs_z):
    # a wrong ASEP estimate, on a sweep and at the single scenario point: one
    # line names each failing point with its z-score
    def wrong_estimates(configs, m):
        return [PerfEstimate(0.4, method="monte_carlo", std_error=1e-6,
                             trials=m.trials) for _ in configs]
    monkeypatch.setattr(mcsim, "simulate_asep_grid", wrong_estimates)
    code = cli.main(["asep", scenario_file, *sweep, "--mc", "20000",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        f"relaylink asep: Monte-Carlo self-check failed at {db} dB: "
        f"MC vs quadrature z = {z}, beyond 5 sigma" for db, z in dbs_z]


def test_cli_asep_csv(scenario_file, tmp_path):
    out = tmp_path / "a.csv"
    code = cli.main(["asep", scenario_file, "--sweep-snr", "10:10:1",
                     "--mc", "50000", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "snr_db,asep_quadrature,asep_mc,mc_stderr"
    assert len(lines) == 2
    _, quad, mc, err = lines[1].split(",")
    assert abs(float(quad) - float(mc)) / float(quad) < 0.05


def test_cli_asep_single_point_without_sweep(scenario_file, capsys):
    assert cli.main(["asep", scenario_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[0]) == pytest.approx(10.0)  # 10 dB


def _ksweep_row(scenario, k, n):
    # the CSV row of the exact outage of the scenario at (K, N)
    system = relaylink.load_scenario(scenario).system
    sched = dataclasses.replace(system.scheduling, k_total=k, n_order=n)
    return f"{k},{total_outage(dataclasses.replace(system, scheduling=sched)).value!r}"


def test_cli_ksweep(scenario_file, tmp_path):
    out = tmp_path / "k.csv"
    code = cli.main(["ksweep", scenario_file, "--k", "2..8", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "K,outage_exact"
    assert [int(r.split(",")[0]) for r in lines[1:]] == list(range(2, 9))
    assert lines[1:] == [_ksweep_row(scenario_file, k, 2) for k in range(2, 9)]


def test_cli_ksweep_n_equals_k_degrades(scenario_file, tmp_path):
    out = tmp_path / "k.csv"
    assert cli.main(["ksweep", scenario_file, "--k", "1..6", "--n-equals-k",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    vals = [float(r.split(",")[1]) for r in lines]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert lines == [_ksweep_row(scenario_file, k, k) for k in range(1, 7)]


def test_cli_ksweep_point_limit(scenario_file, tmp_path, monkeypatch, capsys):
    # the K count is checked before the range is built: 1e12 values exit 1 at
    # once, naming the range, where the list would not fit in memory
    out = tmp_path / "k.csv"
    assert cli.main(["ksweep", scenario_file, "--k", "1..1000000000000",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "relaylink ksweep: error: --k has more than 1,000,000 points: '1..1000000000000'\n")
    assert not out.exists()
    # both sides of the limit, at a small one
    monkeypatch.setattr(cli, "SWEEP_MAX_POINTS", 5)
    assert cli._parse_k_range("2..6") == [2, 3, 4, 5, 6]
    with pytest.raises(ScenarioError, match="more than 5 points"):
        cli._parse_k_range("2..7")


def test_cli_ksweep_rejects_k_below_n(scenario_file, tmp_path):
    # scenario has n_order = 2, so K = 1 is invalid without --n-equals-k
    assert cli.main(["ksweep", scenario_file, "--k", "1..6",
                     "--out", str(tmp_path / "k.csv")]) == 1


def test_cli_bad_scenario_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scheduling]\nk_total = 3\n", encoding="utf-8")
    assert cli.main(["outage", str(bad)]) == 1
    assert cli.main(["outage", str(tmp_path / "missing.ini")]) == 1
    # a non-finite mu fails at load, naming mu, rather than as a nan
    # probability (outage) or a quadrature that does not end (asep)
    capsys.readouterr()
    for mu in ("inf", "nan"):
        bad.write_text(GOOD.replace("mu = 2\nmean_snr_db = 10\n\n[rs_link]",
                                    f"mu = {mu}\nmean_snr_db = 10\n\n[rs_link]"),
                       encoding="utf-8")
        for command in ("outage", "asep"):
            assert cli.main([command, str(bad)]) == 1
            err = capsys.readouterr().err
            assert "mu must be finite and positive" in err and f", {mu}, " in err


def test_cli_bad_sweep_spec(scenario_file):
    assert cli.main(["outage", scenario_file, "--sweep-snr", "0:10"]) == 1
    assert cli.main(["outage", scenario_file, "--sweep-snr", "0:10:-1"]) == 1
    assert cli.main(["ksweep", scenario_file, "--k", "5"]) == 1


def test_public_names_resolve():
    for name in relaylink.__all__:
        assert getattr(relaylink, name) is not None, name


def test_default_seed_documented_constant():
    assert DEFAULT_SEED == 20240915
