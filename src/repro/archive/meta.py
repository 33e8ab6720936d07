"""Run metadata: what the archive index records about each archived run.

A :class:`RunMeta` captures everything needed to group runs into
baselines and to explain a regression verdict later: the kernel and its
parameters, the runtime configuration fingerprint, and the headline
result (virtual wall time, verification status).  It is pure JSON-able
data, so it crosses the worker process boundary and survives in the
append-only index.

The **configuration fingerprint** (:func:`config_fingerprint`) is a
sha256 over the canonical JSON of every :class:`RuntimeConfig` field
that influences measured times -- thread count, scheduling policies,
the full cost model, attached substrates -- but *not* the seed: the
seed is what varies between baseline repetitions, so it is recorded
separately and excluded from the grouping key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


def _substrate_view(config) -> Tuple[bool, Tuple[str, ...]]:
    """``(traced, names)``: the consumer list as archives have always keyed it.

    Before ``substrates`` was the only way to ask for a trace, archives
    keyed a traced run of the default wiring by a true ``record_events``
    flag and no names.  A list that is exactly the default wiring
    (profiling when instrumented) plus tracing keeps that key, so those
    fingerprints and ``RunMeta.substrates`` do not move; any other list
    is keyed by its names and whether it traces.
    """
    names = tuple(
        entry if isinstance(entry, str) else getattr(entry, "name", type(entry).__name__)
        for entry in config.substrates
    )
    if names == (("profiling", "tracing") if config.instrument else ("tracing",)):
        return True, ()
    return "tracing" in names, names


def config_fingerprint(config) -> str:
    """sha256 hex digest of the measurement-relevant configuration.

    Two runs with the same fingerprint are repetitions of the same
    configuration (possibly under different seeds); a baseline aggregates
    exactly such runs.  The cost model is included in full -- inflating
    a per-event cost *changes* the configuration, which is precisely how
    an injected slowdown shows up as a candidate diverging from its
    baseline's fingerprint in a sentinel report.
    """
    traced, names = _substrate_view(config)
    payload: Dict[str, Any] = {
        "n_threads": config.n_threads,
        "queue_policy": config.queue_policy,
        "steal": config.steal,
        "steal_policy": config.steal_policy,
        "tsc_enabled": config.tsc_enabled,
        "allow_untied": config.allow_untied,
        "instrument": config.instrument,
        "record_events": traced,
        "substrates": list(names),
        "max_call_path_depth": config.max_call_path_depth,
        "measurement_filter": config.measurement_filter is not None,
        "fault_plan": config.fault_plan is not None,
        "costs": dataclasses.asdict(config.costs),
    }
    if getattr(config, "memory_budget", None) is not None:
        # Only present when a budget is armed, so every fingerprint ever
        # computed for an ungoverned configuration stays byte-identical.
        budget = config.memory_budget
        payload["memory_budget"] = (
            budget.to_dict() if hasattr(budget, "to_dict") else budget
        )
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunMeta:
    """Everything the index records about one archived run."""

    kernel: str
    size: str = ""
    variant: str = ""
    n_threads: int = 0
    seed: int = 0
    cutoff: Optional[int] = None
    substrates: Tuple[str, ...] = ()
    config_hash: str = ""
    #: virtual duration of the kernel's parallel region (µs)
    wall_time_us: Optional[float] = None
    verified: Optional[bool] = None
    #: free-form labels (``--tag``); later tags can be appended in-place
    tags: Tuple[str, ...] = ()
    #: where the run came from: ``run`` (CLI), ``supervisor``, ``api``
    source: str = "api"
    extra: Dict[str, Any] = field(default_factory=dict)

    def group_key(self) -> Tuple[str, str, str, int]:
        """The baseline grouping key: same kernel, same shape of run."""
        return (self.kernel, self.size, self.variant, self.n_threads)

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["substrates"] = list(self.substrates)
        data["tags"] = list(self.tags)
        if not self.extra:
            data.pop("extra")
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunMeta":
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        kwargs["substrates"] = tuple(kwargs.get("substrates") or ())
        kwargs["tags"] = tuple(kwargs.get("tags") or ())
        kwargs["extra"] = dict(kwargs.get("extra") or {})
        return cls(**kwargs)


def meta_for_result(
    result,
    *,
    size: str = "",
    variant: Optional[str] = None,
    tags=(),
    source: str = "run",
) -> RunMeta:
    """Build a :class:`RunMeta` from an analysis ``ExperimentResult``.

    ``result.config`` (carried by :func:`repro.analysis.run_program`)
    supplies the fingerprint.  ``variant`` should be the *registry*
    variant the run was requested with (``optimized``/``stress``), which
    is what queries round-trip; it defaults to the program's resolved
    variant tag from the label.
    """
    kernel, _, label_variant = result.program_label.partition("/")
    config = getattr(result, "config", None)
    run_tags = tuple(tags)
    profile = getattr(result, "profile", None)
    salvage = getattr(profile, "salvage", None)
    if (
        salvage is not None
        and getattr(salvage, "degraded", False)
        and "degraded" not in run_tags
    ):
        # Degraded runs are tagged so latest_baseline/sentinel keep them
        # out of baselines, like candidates.
        run_tags = run_tags + ("degraded",)
    return RunMeta(
        kernel=kernel,
        size=size,
        variant=variant if variant is not None else label_variant,
        n_threads=result.n_threads,
        seed=result.seed,
        cutoff=result.meta.get("cutoff"),
        substrates=_substrate_view(config)[1] if config is not None else (),
        config_hash=config_fingerprint(config) if config is not None else "",
        wall_time_us=result.kernel_time,
        verified=result.verified,
        tags=run_tags,
        source=source,
    )


def meta_for_outcome(
    outcome, *, size: str, variant: str, seed: int, tags=(), source: str = "run"
) -> RunMeta:
    """Build a :class:`RunMeta` from a tolerant-run ``SalvageOutcome``."""
    config = getattr(outcome, "config", None)
    status_tags = tuple(tags)
    if outcome.status != "complete" and "partial" not in status_tags:
        status_tags = status_tags + ("partial",)
    if getattr(outcome, "degraded", False) and "degraded" not in status_tags:
        status_tags = status_tags + ("degraded",)
    return RunMeta(
        kernel=outcome.app,
        size=size,
        variant=variant,
        n_threads=config.n_threads if config is not None else 0,
        seed=seed,
        substrates=_substrate_view(config)[1] if config is not None else (),
        config_hash=config_fingerprint(config) if config is not None else "",
        wall_time_us=outcome.duration,
        verified=outcome.verified,
        tags=status_tags,
        source=source,
    )
