"""INI scenario files: parsing, validation and canonical serialization.

Sections and keys (dB variants carry a _db suffix and are converted with
10^(x/10); giving both forms of the same quantity is an error):

    [scheduling]  k_total, n_order, gamma_th | gamma_th_db
    [uplink]      mean_snr | mean_snr_db
    [downlink]    mean_snr | mean_snr_db
    [sr_link]     alpha, mu, mean_snr | mean_snr_db
    [rs_link]     alpha, mu, mean_snr | mean_snr_db
    [modulation]  a, b                      (optional, defaults 1, 1)
    [mc]          trials, seed, workers     (optional)

Parsing is fail-closed: unknown sections or keys raise ScenarioError rather
than being ignored.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

from .analysis import SystemConfig, db_to_linear
from .channels import AlphaMuParams
from .mcsim import McConfig
from .selection import SchedulingSpec


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario file."""


@dataclass(frozen=True)
class Scenario:
    system: SystemConfig
    mc: McConfig | None = None


_SCHEMA = {
    "scheduling": {"k_total", "n_order", "gamma_th", "gamma_th_db"},
    "uplink": {"mean_snr", "mean_snr_db"},
    "downlink": {"mean_snr", "mean_snr_db"},
    "sr_link": {"alpha", "mu", "mean_snr", "mean_snr_db"},
    "rs_link": {"alpha", "mu", "mean_snr", "mean_snr_db"},
    "modulation": {"a", "b"},
    "mc": {"trials", "seed", "workers"},
}
_REQUIRED_SECTIONS = ("scheduling", "uplink", "downlink", "sr_link", "rs_link")


def linear_to_db(x: float) -> float:
    if x <= 0:
        raise ValueError(f"cannot express nonpositive value {x} in dB")
    return 10.0 * math.log10(x)


def parse_scenario(text: str) -> Scenario:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"invalid INI syntax: {exc}") from exc

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ScenarioError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ScenarioError(f"unknown key {key!r} in section [{section}]")
    for section in _REQUIRED_SECTIONS:
        if section not in cp:
            raise ScenarioError(f"missing required section [{section}]")

    def get_float(section, key):
        try:
            return cp.getfloat(section, key)
        except ValueError as exc:
            raise ScenarioError(f"[{section}] {key}: not a number") from exc

    def get_int(section, key):
        try:
            return cp.getint(section, key)
        except ValueError as exc:
            raise ScenarioError(f"[{section}] {key}: not an integer") from exc

    def checked(section, make, *args, **kwargs):
        # make(...), with section named in front of a ValueError it raises
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            raise ScenarioError(f"[{section}] {exc}") from exc

    def get_linear(section, base):
        has_lin = cp.has_option(section, base)
        has_db = cp.has_option(section, base + "_db")
        if has_lin and has_db:
            raise ScenarioError(
                f"[{section}]: give {base} or {base}_db, not both")
        if has_lin:
            value = get_float(section, base)
        elif has_db:
            value = checked(section, db_to_linear, get_float(section, base + "_db"))
        else:
            raise ScenarioError(f"[{section}]: missing {base} (or {base}_db)")
        # checked here, where the section is known, as SchedulingSpec takes
        # the [uplink] and [downlink] values together
        if not 0 < value < math.inf:
            raise ScenarioError(f"[{section}] {base} must be finite and positive, got {value}")
        return value

    def require(section, key):
        if not cp.has_option(section, key):
            raise ScenarioError(f"[{section}]: missing {key}")

    for key in ("k_total", "n_order"):
        require("scheduling", key)
    for link in ("sr_link", "rs_link"):
        for key in ("alpha", "mu"):
            require(link, key)

    sched = checked("scheduling", SchedulingSpec,
                    k_total=get_int("scheduling", "k_total"),
                    n_order=get_int("scheduling", "n_order"),
                    uplink_mean_snr=get_linear("uplink", "mean_snr"),
                    downlink_mean_snr=get_linear("downlink", "mean_snr"))
    sr, rs = (checked(link, AlphaMuParams, get_float(link, "alpha"), get_float(link, "mu"),
                      get_linear(link, "mean_snr")) for link in ("sr_link", "rs_link"))
    # gamma_th is positive already, so only mod_a or mod_b can fail here
    modulation = cp["modulation"] if "modulation" in cp else {}
    system = checked("modulation", SystemConfig, scheduling=sched, sr_model=sr,
                     rs_model=rs, gamma_th=get_linear("scheduling", "gamma_th"),
                     **{f"mod_{key}": get_float("modulation", key) for key in modulation})
    mc = None
    if "mc" in cp:
        require("mc", "trials")
        mc = checked("mc", McConfig, **{key: get_int("mc", key) for key in cp["mc"]})
    return Scenario(system=system, mc=mc)


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def serialize_scenario(sc: Scenario) -> str:
    """Canonical text form: fixed section/key order, linear (non-dB) values
    via repr, so parse -> serialize -> parse is the identity."""
    c = sc.system
    cp = configparser.ConfigParser(interpolation=None)
    cp["scheduling"] = {
        "k_total": str(c.scheduling.k_total),
        "n_order": str(c.scheduling.n_order),
        "gamma_th": repr(c.gamma_th),
    }
    cp["uplink"] = {"mean_snr": repr(c.scheduling.uplink_mean_snr)}
    cp["downlink"] = {"mean_snr": repr(c.scheduling.downlink_mean_snr)}
    cp["sr_link"] = {"alpha": repr(c.sr_model.alpha), "mu": repr(c.sr_model.mu),
                     "mean_snr": repr(c.sr_model.mean_snr)}
    cp["rs_link"] = {"alpha": repr(c.rs_model.alpha), "mu": repr(c.rs_model.mu),
                     "mean_snr": repr(c.rs_model.mean_snr)}
    cp["modulation"] = {"a": repr(c.mod_a), "b": repr(c.mod_b)}
    if sc.mc is not None:
        cp["mc"] = {"trials": str(sc.mc.trials), "seed": str(sc.mc.seed),
                    "workers": str(sc.mc.workers)}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
