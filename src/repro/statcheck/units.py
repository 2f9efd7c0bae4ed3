"""Physical-unit model for UNIT001: dimensions, algebra, annotation map.

The paper's controller mixes quantities that all arrive as bare Python
floats: times in nanoseconds, frequencies in GHz, voltages, energies in
nanojoules, queue occupancies in entries.  A frequency accidentally used
as a period (or the missing ``1/f`` in between) type-checks, runs, and
quietly skews every downstream number.  This module gives statcheck a
unit algebra to catch that class of bug statically:

* a :class:`Unit` is a vector of integer exponents over the four base
  dimensions ``(time, voltage, energy, occupancy)`` -- frequency is
  ``time^-1``, a slew rate in GHz/ns is ``time^-2``, a plain scalar is
  the zero vector;
* multiplication/division add/subtract exponent vectors, so
  ``slew_ghz_per_ns * dt`` correctly comes out as a frequency and
  ``abs(f_target - f_now) / slew_ghz_per_ns`` as a time;
* the **annotation map** seeds inference: exact symbol names used by
  ``repro.core`` / ``repro.dvfs`` / ``repro.mcd`` / ``repro.simcore``
  (``dt``, ``per``, ``voltage``, ``occupancy``, ``q_ref``, ...) plus the
  repo's naming conventions (``*_ns`` is a time, ``*_ghz`` a frequency,
  ``*_ghz_per_ns`` a slew rate, ``*_cycles`` a dimensionless count).

Unknown is always an option: a name with no annotation and no inferred
unit contributes nothing, so the rule fails open on dynamic code.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: exponents over (time, voltage, energy, occupancy)
Dim = Tuple[int, int, int, int]

SCALAR: Dim = (0, 0, 0, 0)
TIME: Dim = (1, 0, 0, 0)
FREQUENCY: Dim = (-1, 0, 0, 0)
SLEW: Dim = (-2, 0, 0, 0)  # frequency per time, e.g. GHz/ns
VOLTAGE: Dim = (0, 1, 0, 0)
ENERGY: Dim = (0, 0, 1, 0)
OCCUPANCY: Dim = (0, 0, 0, 1)
POWER: Dim = (-1, 0, 1, 0)  # energy per time

_NAMED: Dict[Dim, str] = {
    SCALAR: "scalar",
    TIME: "time [ns]",
    FREQUENCY: "frequency [GHz]",
    SLEW: "slew rate [GHz/ns]",
    VOLTAGE: "voltage [V]",
    ENERGY: "energy [nJ]",
    OCCUPANCY: "occupancy [entries]",
    POWER: "power [nJ/ns]",
}

_BASE_SYMBOLS = ("ns", "V", "nJ", "entries")


def unit_name(dim: Dim) -> str:
    """Human-readable name of a dimension vector."""
    if dim in _NAMED:
        return _NAMED[dim]
    parts = [
        f"{symbol}^{exp}"
        for symbol, exp in zip(_BASE_SYMBOLS, dim)
        if exp != 0
    ]
    return "·".join(parts) if parts else "scalar"


def mul(a: Dim, b: Dim) -> Dim:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def div(a: Dim, b: Dim) -> Dim:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


def power(a: Dim, exponent: int) -> Dim:
    return (
        a[0] * exponent,
        a[1] * exponent,
        a[2] * exponent,
        a[3] * exponent,
    )


def invert(a: Dim) -> Dim:
    return power(a, -1)


#: Exact symbol names -> unit.  Applies to bare variables, attribute
#: names (``self.<name>``, ``cfg.<name>``), parameters, and keyword
#: arguments.  Seeded from the controller/simulator vocabulary of
#: ``repro.core``, ``repro.dvfs``, ``repro.mcd`` and ``repro.simcore``.
EXACT_ANNOTATIONS: Dict[str, Dim] = {
    # time
    "dt": TIME,
    "per": TIME,
    "fe_period": TIME,
    "deadline": TIME,
    "timer": TIME,
    "hint": TIME,
    # frequency
    "freq": FREQUENCY,
    "frequency": FREQUENCY,
    "f_now": FREQUENCY,
    "f_target": FREQUENCY,
    "f_min": FREQUENCY,
    "f_max": FREQUENCY,
    "cur": FREQUENCY,
    "tgt": FREQUENCY,
    # voltage
    "voltage": VOLTAGE,
    "_voltage": VOLTAGE,
    "v_max": VOLTAGE,
    "v_min": VOLTAGE,
    # energy
    "energy": ENERGY,
    # occupancy (queue entries)
    "occupancy": OCCUPANCY,
    "occ": OCCUPANCY,
    "q_ref": OCCUPANCY,
    "queue_ref": OCCUPANCY,
}

#: Name-suffix conventions -> unit, checked longest-first after the
#: exact map.  ``_ghz_per_ns`` must precede ``_ns``.
SUFFIX_ANNOTATIONS: Tuple[Tuple[str, Dim], ...] = (
    ("_ghz_per_ns", SLEW),
    ("ghz_per_ns", SLEW),
    ("_ns", TIME),
    ("_ghz", FREQUENCY),
    ("_cycles", SCALAR),
    ("_volt", VOLTAGE),
)


def declared_unit(name: str) -> Optional[Dim]:
    """Unit a symbol name declares via the annotation map, if any.

    ``None`` means the name carries no declaration (not "scalar": a
    declared scalar like ``*_cycles`` participates in checks, an
    undeclared name never does).
    """
    if name in EXACT_ANNOTATIONS:
        return EXACT_ANNOTATIONS[name]
    lowered = name.lower()
    for suffix, dim in SUFFIX_ANNOTATIONS:
        if lowered.endswith(suffix):
            return dim
    return None
