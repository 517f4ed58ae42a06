"""NekRS-style ``.par`` case files.

NekRS configures runs with INI-style files::

    [GENERAL]
    polynomialOrder = 7
    dt = 1e-3
    numSteps = 3000
    writeInterval = 100

    [VELOCITY]
    viscosity = 1e-2

    [TEMPERATURE]
    conductivity = 1e-2

This module reads/writes that dialect and maps the recognized keys
onto :class:`repro.nekrs.config.CaseDefinition` overrides, so a case
built in Python can be re-parameterized from a file exactly the way
NekRS cases are.
"""

from __future__ import annotations

import configparser
from pathlib import Path

def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


#: (section, key) -> (CaseDefinition field, parser)
_KEYMAP = {
    ("general", "polynomialorder"): ("order", int),
    ("general", "dt"): ("dt", float),
    ("general", "numsteps"): ("num_steps", int),
    ("general", "timeorder"): ("time_order", int),
    ("general", "dealiasing"): ("dealias", _parse_bool),
    ("velocity", "viscosity"): ("viscosity", float),
    ("velocity", "density"): ("density", float),
    ("velocity", "residualtol"): ("velocity_tol", float),
    ("pressure", "residualtol"): ("pressure_tol", float),
    ("temperature", "conductivity"): ("conductivity", float),
    ("temperature", "heatcapacity"): ("heat_capacity", float),
    ("temperature", "residualtol"): ("scalar_tol", float),
}

#: keys recognized but not mapped to CaseDefinition (run-control keys
#: consumed by the in situ layer / benchmark drivers)
_PASSTHROUGH = {
    ("general", "writeinterval"),
    ("general", "writecontrol"),
    ("general", "starttime"),
}


class ParFileError(ValueError):
    """Malformed .par content."""


def read_par(path) -> dict[str, dict[str, str]]:
    """Parse a .par file into {section: {key: raw-string}} (lowercased)."""
    parser = configparser.ConfigParser()
    text = Path(path).read_text()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParFileError(f"cannot parse {path}: {exc}") from exc
    return {
        section.lower(): {k.lower(): v for k, v in parser.items(section)}
        for section in parser.sections()
    }


def par_to_overrides(par: dict[str, dict[str, str]]) -> dict:
    """Translate parsed .par content to CaseDefinition override kwargs.

    Unknown keys raise — silent typos in case files are how people lose
    compute allocations.
    """
    overrides: dict = {}
    for section, entries in par.items():
        for key, raw in entries.items():
            if (section, key) in _PASSTHROUGH:
                continue
            mapping = _KEYMAP.get((section, key))
            if mapping is None:
                raise ParFileError(
                    f"unrecognized .par entry [{section.upper()}] {key}"
                )
            field, parse = mapping
            try:
                overrides[field] = parse(raw)
            except ValueError as exc:
                raise ParFileError(
                    f"bad value for [{section.upper()}] {key}: {raw!r}"
                ) from exc
    return overrides
