"""Selectable simulation cores: the reference loop and the fast path.

Two interchangeable cores execute every simulation:

* ``ref`` -- :class:`repro.mcd.processor.MCDProcessor`, the straight-line
  reference implementation;
* ``fast`` -- :class:`repro.simcore.fast.FastMCDProcessor`, the
  profile-guided megaloop that is bit-identical by contract (same
  ``SimulationResult``, same ``FrequencyStepEvent`` sequence, same
  probe-event stream) and >=2x faster.

``fast`` is the default; ``REPRO_SIMCORE=ref`` is the escape hatch that
forces the reference core everywhere (CLI, sweeps, pool workers -- the
environment variable is inherited across process boundaries).  Sweep cache
keys include the resolved core, so results produced under the two cores
never alias even though they are byte-identical by contract.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Optional, Tuple, Type

from repro.simcore.markers import hot_path
from repro.simcore.tables import SimTables, tables_for
from repro.simcore.validate import assert_results_identical, results_identical

if TYPE_CHECKING:
    from repro.mcd.processor import MCDProcessor

#: environment variable selecting the simulation core
SIMCORE_ENV = "REPRO_SIMCORE"
#: recognised core names
CORES: Tuple[str, ...] = ("ref", "fast")
#: core used when neither an explicit choice nor the env var is given
DEFAULT_CORE = "fast"

__all__ = [
    "CORES",
    "DEFAULT_CORE",
    "SIMCORE_ENV",
    "SimTables",
    "assert_results_identical",
    "create_processor",
    "hot_path",
    "processor_class",
    "resolve_core",
    "results_identical",
    "tables_for",
]


def resolve_core(choice: Optional[str] = None) -> str:
    """Resolve a core selection: explicit choice > env var > default.

    Raises ``ValueError`` for unknown names so a typo in ``REPRO_SIMCORE``
    fails loudly instead of silently simulating with the wrong core.
    """
    selected = choice if choice is not None else os.environ.get(SIMCORE_ENV)
    if selected is None or selected == "":
        return DEFAULT_CORE
    if selected not in CORES:
        raise ValueError(
            f"unknown simcore {selected!r} (from "
            f"{'argument' if choice is not None else SIMCORE_ENV}); "
            f"expected one of: {', '.join(CORES)}"
        )
    return selected


def processor_class(choice: Optional[str] = None) -> Type["MCDProcessor"]:
    """The processor class implementing the resolved core."""
    core = resolve_core(choice)
    if core == "ref":
        from repro.mcd.processor import MCDProcessor

        return MCDProcessor
    from repro.simcore.fast import FastMCDProcessor

    return FastMCDProcessor


def create_processor(
    *args: Any, simcore: Optional[str] = None, **kwargs: Any
) -> "MCDProcessor":
    """Instantiate the selected core with MCDProcessor's constructor args."""
    return processor_class(simcore)(*args, **kwargs)
