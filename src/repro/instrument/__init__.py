"""Instrumentation layer: the OPARI2/POMP2 analogue.

The paper's measurement stack is: OPARI2 rewrites the source to insert
POMP2 calls around OpenMP constructs (including task-instance ID storage
inside the task context), the compiler inserts function enter/exit hooks,
and Score-P implements the POMP2 interface to receive the events.

Here the simulated runtime plays the role of the rewritten source: it
calls into :class:`~repro.instrument.layer.InstrumentationLayer` at each
construct boundary.  The layer

* charges the per-event instrumentation cost to the executing simulated
  thread (this is what the overhead evaluation of Section V measures),
* packs the event into a columnar :class:`~repro.events.batch.EventBatch`
  that drains to the substrate manager at scheduling points; every
  substrate reads that batch directly.

:mod:`repro.instrument.ast_instrumenter` is the compiler-instrumentation
analogue: an AST source-to-source pass inserting enter/exit hooks into
plain Python functions.
"""

from repro.instrument.filtering import MANAGEMENT_REGIONS_FILTER, RegionFilter
from repro.instrument.layer import InstrumentationLayer
from repro.instrument.ast_instrumenter import instrument_source, instrument_function

__all__ = [
    "InstrumentationLayer",
    "RegionFilter",
    "MANAGEMENT_REGIONS_FILTER",
    "instrument_source",
    "instrument_function",
]
