"""Per-domain operating-point rows for the fast core's sample tick.

While a domain slews, the reference core re-derives three float families
at every 4 ns sample from the domain's new frequency ``f``:

* ``MachineConfig.voltage_for(f)`` -- the linear V(f) map;
* the per-sample background energy ``(leakage [+ gated rate]) * dt``,
  awake and asleep (``PowerModel.background``);
* the per-cycle energy coefficients ``c_eff * V^2 * {base, slope, gated}``
  (``MCDProcessor._refresh_energy_coefficients``).

V is a function of f, so all six floats are a function of f alone.
:class:`SimTables` keeps one dict per domain tag that maps ``f`` to the row
``(v, bg_awake, bg_asleep, active_base_e, active_slope_e, gated_e)``, so a
slewing domain-tick costs one lookup.  Each field is built by the reference
expression in the reference order, so a row served from the table is the
bit-exact value the reference would recompute.

Controller targets sit on the quantized step grid, and the runs of one sweep
slew through the same points, so rows are reused heavily.  Each tag keeps at
most :data:`MAX_ROWS_PER_TAG` rows: a miss on a full dict clears it first.
A cleared row is rebuilt bit-exactly on its next miss, so a clear never
changes a result, and a long-lived ``repro-dvfs serve`` stays bounded.
Serve's executor threads share one interned table set.  A clear is one
``dict.clear()`` under the GIL, in place, so a concurrent ``get`` either
finds a row or misses and rebuilds it; a miss checks the size and then
inserts without a lock, so each racing thread may add one row past the cap
before the next clear.

``tables_for`` interns one :class:`SimTables` per ``(MachineConfig, power
params)`` pair and process, so every run a sweep engine or serve flush
executes in that process shares the rows.  Serve builds a machine config
from any request's ``machine`` overrides, so the interning keeps at most
:data:`MAX_TABLE_SETS` sets: a new pair past the cap clears the dict first.
A dropped set is rebuilt bit-exactly, and a run that still holds one keeps
using it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.mcd.domains import DomainId, MachineConfig
from repro.power.model import PowerModel

#: Edge-tag order used throughout the fast core: FE=0, INT=1, FP=2, LS=3
#: (mirrors ``repro.mcd.processor._EDGE_TAG``).
TAG_ORDER: Tuple[DomainId, ...] = (
    DomainId.FRONT_END,
    DomainId.INT,
    DomainId.FP,
    DomainId.LS,
)

#: Rows one domain tag keeps before its dict is cleared.  One serial
#: ``sweep_cold`` grid pass fills at most 5,706 (FP), so a sweep worker,
#: which lives for one pass, never clears.
MAX_ROWS_PER_TAG = 8192

#: (c_eff, active_base, active_slope, gated_fraction, leakage_fraction)
ParamRow = Tuple[float, float, float, float, float]
#: (v, bg_awake, bg_asleep, active_base_e, active_slope_e, gated_e) at one f
Row = Tuple[float, float, float, float, float, float]


class SimTables:
    """Shared row tables for one ``(machine config, power model)`` pair."""

    __slots__ = ("config", "dt_ns", "params_by_tag", "rows", "fe_background_e")

    def __init__(self, config: MachineConfig, power: PowerModel) -> None:
        self.config = config
        self.dt_ns = config.sample_period_ns
        #: per-tag power-model constants, in TAG_ORDER
        self.params_by_tag: List[ParamRow] = []
        for domain in TAG_ORDER:
            p = power.params[domain]
            self.params_by_tag.append(
                (
                    p.c_eff,
                    p.active_base,
                    p.active_slope,
                    p.gated_fraction,
                    p.leakage_fraction,
                )
            )
        #: per tag: frequency -> Row.  The front end never slews, so its
        #: dict stays empty.  Dicts are cleared in place, never replaced,
        #: so a caller may hold on to one.
        self.rows: List[Dict[float, Row]] = [{}, {}, {}, {}]
        # The front end is pinned at (v_max, f_max) and never sleeps, so its
        # per-sample background energy is one constant.  Same op order as
        # PowerModel.background: leakage_power(v) * dt.
        ce = self.params_by_tag[0][0]
        leak_frac = self.params_by_tag[0][4]
        v = config.v_max
        self.fe_background_e = ce * v * v * leak_frac * self.dt_ns

    def row(self, tag: int, freq_ghz: float) -> Row:
        """Domain ``tag``'s row at ``freq_ghz``, built and stored on a miss."""
        rows = self.rows[tag]
        row = rows.get(freq_ghz)
        if row is None:
            ce, active_base, active_slope, gated_frac, leak_frac = (
                self.params_by_tag[tag]
            )
            dt = self.dt_ns
            v = self.config.voltage_for(freq_ghz)
            # ref: PowerModel.background -- the asleep value is
            # (leak + gated_rate) * dt as one product, *not* the float-unequal
            # leak * dt + gated_rate * dt
            leak = ce * v * v * leak_frac
            gated_rate = ce * v * v * gated_frac * freq_ghz
            # ref: MCDProcessor._refresh_energy_coefficients
            v2c = ce * v * v
            row = (
                v,
                leak * dt,
                (leak + gated_rate) * dt,
                v2c * active_base,
                v2c * active_slope,
                v2c * gated_frac,
            )
            if len(rows) >= MAX_ROWS_PER_TAG:
                rows.clear()
            rows[freq_ghz] = row
        return row


#: Table sets :data:`_TABLES` keeps before it is cleared.  One sweep uses
#: one machine config, so a sweep never clears it.
MAX_TABLE_SETS = 8

#: process-wide table interning: (config, params signature) -> SimTables
_TABLES: Dict[Tuple[MachineConfig, Tuple[ParamRow, ...]], SimTables] = {}


def tables_for(config: MachineConfig, power: PowerModel) -> SimTables:
    """Return the interned :class:`SimTables` for this config/power pair.

    ``MachineConfig`` is a frozen (hashable) dataclass, so every run in one
    process with an equal config and power model shares one table set.
    """
    sig = tuple(
        (
            p.c_eff,
            p.active_base,
            p.active_slope,
            p.gated_fraction,
            p.leakage_fraction,
        )
        for p in (power.params[d] for d in TAG_ORDER)
    )
    key = (config, sig)
    tables = _TABLES.get(key)
    if tables is None:
        if len(_TABLES) >= MAX_TABLE_SETS:
            _TABLES.clear()
        tables = SimTables(config, power)
        _TABLES[key] = tables
    return tables
