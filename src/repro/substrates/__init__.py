"""Pluggable measurement substrates (the Score-P substrate architecture).

Score-P decouples event *production* from event *consumption*: every
measurement event is routed to a set of pluggable substrates -- the
profiling substrate, the tracing substrate, plugin substrates.  This
subpackage reproduces that architecture for the simulated runtime:

* :class:`~repro.substrates.base.Substrate` -- the lifecycle contract
  (``initialize`` / ``on_batch`` / ``finalize`` / ``artifact``; a
  columnar :class:`~repro.events.batch.EventBatch` through ``on_batch``
  is the only way events arrive), plus per-substrate ``per_event_cost``
  (attributable overhead, paper Section V) and an ``essential`` flag
  (non-essential substrates are quarantined on error instead of killing
  the run).
* :class:`~repro.substrates.manager.SubstrateManager` -- the single
  listener the instrumentation layer dispatches to; fans out to every
  attached substrate and does the quarantine/overhead bookkeeping.
* the registry (:func:`register_substrate` / :func:`get_substrate`) --
  string-keyed factories so configs, the CLI (``repro run --substrate
  NAME``) and third-party code can attach substrates by name.

Built-ins: ``profiling`` (the paper's Fig. 12 profiler), ``tracing``
(full event recording), ``validation`` (the task-aware stream checks
running online, during execution), ``stats`` (per-kind/per-thread event
counts feeding the overhead analysis), ``recorder`` (durable spill of
the event stream; see :mod:`repro.recorder`).
"""

from repro.substrates.base import Substrate
from repro.substrates.manager import SubstrateIncident, SubstrateManager
from repro.substrates.profiling import ProfilingSubstrate
from repro.substrates.recorder import RecorderSubstrate
from repro.substrates.registry import (
    available_substrates,
    get_substrate,
    register_substrate,
    unregister_substrate,
)
from repro.substrates.stats import StatsSubstrate
from repro.substrates.tracing import TracingSubstrate
from repro.substrates.validation import OnlineValidationSubstrate

# replace=True keeps module re-imports (importlib.reload in tests) benign.
register_substrate("profiling", ProfilingSubstrate, replace=True)
register_substrate("tracing", TracingSubstrate, replace=True)
register_substrate("validation", OnlineValidationSubstrate, replace=True)
register_substrate("stats", StatsSubstrate, replace=True)
register_substrate("recorder", RecorderSubstrate, replace=True)

__all__ = [
    "Substrate",
    "SubstrateManager",
    "SubstrateIncident",
    "ProfilingSubstrate",
    "TracingSubstrate",
    "RecorderSubstrate",
    "OnlineValidationSubstrate",
    "StatsSubstrate",
    "register_substrate",
    "unregister_substrate",
    "get_substrate",
    "available_substrates",
]
