"""INI scenario files: parsing, validation and canonical serialization.

`_FIELDS` is the format, stated once: each section's keys with their kinds, in
the order `serialize_scenario` writes them. An SNR kind may also be given in dB
as key_db, converted with 10^(x/10); giving both forms is an error.
[modulation] (defaults a = b = 1) and [mc] may be left out, as may the keys
`_OPTIONAL` names, which then take their class's default.

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

_SNR = "snr"  # a positive float, given as key, or as key_db in dB
_FIELDS = {
    "scheduling": {"k_total": int, "n_order": int, "gamma_th": _SNR},
    "uplink": {"mean_snr": _SNR},
    "downlink": {"mean_snr": _SNR},
    "sr_link": {"alpha": float, "mu": float, "mean_snr": _SNR},
    "rs_link": {"alpha": float, "mu": float, "mean_snr": _SNR},
    "modulation": {"a": float, "b": float},
    "mc": {"trials": int, "seed": int, "workers": int},
}
_OPTIONAL = {"modulation": {"a", "b"}, "mc": {"seed", "workers"}}  # sections, their keys


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario file."""


@dataclass(frozen=True)
class Scenario:
    system: SystemConfig
    mc: McConfig | None = None


def linear_to_db(x: float) -> float:
    if x <= 0:
        raise ValueError(f"cannot express nonpositive value {x} in dB")
    return 10.0 * math.log10(x)


def _checked(section, make, *args, **kwargs):
    """make(...), with section named in front of a ValueError it raises."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {exc}") from exc


def _names(key, kind):
    """The names key may be given by: key, and key_db for an SNR."""
    return (key, key + "_db") if kind is _SNR else (key,)


def _read(cp, section, key, kind):
    """The value of key in section, of its kind; None for an optional key left out."""
    names = [name for name in _names(key, kind) if cp.has_option(section, name)]
    if len(names) > 1:
        raise ScenarioError(f"[{section}]: give {key} or {key}_db, not both")
    if not names:
        if key in _OPTIONAL.get(section, ()):
            return None
        alt = f" (or {key}_db)" if kind is _SNR else ""
        raise ScenarioError(f"[{section}]: missing {key}{alt}")
    try:
        value = (int if kind is int else float)(cp.get(section, names[0]))
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {names[0]}: "
                            f"{'not an integer' if kind is int else 'not a number'}") from exc
    if kind is _SNR:
        value = value if names[0] == key else _checked(section, db_to_linear, value)
        # checked here, where the section is known, as SchedulingSpec takes
        # the [uplink] and [downlink] values together
        if not 0 < value < math.inf:
            raise ScenarioError(f"[{section}] {key} must be finite and positive, got {value}")
    return value


def parse_scenario(text: str) -> Scenario:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"invalid INI syntax: {exc}") from exc

    for section in cp.sections():
        if section not in _FIELDS:
            raise ScenarioError(f"unknown section [{section}]")
        allowed = {name for key, kind in _FIELDS[section].items() for name in _names(key, kind)}
        for key in cp[section]:
            if key not in allowed:
                raise ScenarioError(f"unknown key {key!r} in section [{section}]")
    for section in _FIELDS:
        if section not in cp and section not in _OPTIONAL:
            raise ScenarioError(f"missing required section [{section}]")

    v = {section: {key: x for key, kind in keys.items()  # the keys given, or required
                   if (x := _read(cp, section, key, kind)) is not None}
         for section, keys in _FIELDS.items() if section in cp}
    s = v["scheduling"]
    sched = _checked("scheduling", SchedulingSpec, s["k_total"], s["n_order"],
                     v["uplink"]["mean_snr"], v["downlink"]["mean_snr"])
    sr, rs = (_checked(link, AlphaMuParams, **v[link]) for link in ("sr_link", "rs_link"))
    # gamma_th is positive already, so only mod_a or mod_b can fail here
    system = _checked("modulation", SystemConfig, sched, sr, rs, s["gamma_th"],
                      **{f"mod_{key}": x for key, x in v.get("modulation", {}).items()})
    mc = _checked("mc", McConfig, **v["mc"]) if "mc" in v else None
    return Scenario(system=system, mc=mc)


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def serialize_scenario(sc: Scenario) -> str:
    """Canonical text form: the keys of `_FIELDS` in its order, linear (non-dB)
    values via repr, so parse -> serialize -> parse is the identity."""
    c, s = sc.system, sc.system.scheduling
    v = {"scheduling": {"k_total": s.k_total, "n_order": s.n_order, "gamma_th": c.gamma_th},
         "uplink": {"mean_snr": s.uplink_mean_snr},
         "downlink": {"mean_snr": s.downlink_mean_snr},
         "sr_link": vars(c.sr_model), "rs_link": vars(c.rs_model),
         "modulation": {"a": c.mod_a, "b": c.mod_b}, "mc": sc.mc and vars(sc.mc)}
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict({section: {key: repr(v[section][key]) for key in keys}
                  for section, keys in _FIELDS.items() if v[section]})
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
