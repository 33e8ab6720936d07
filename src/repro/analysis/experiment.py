"""Running one experiment: program x configuration -> everything measured."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.bots.common import BotsProgram, first_result
from repro.bots.registry import get_program
from repro.profiling.profile import Profile
from repro.runtime.config import RuntimeConfig
from repro.runtime.costs import CostModel
from repro.runtime.runtime import OpenMPRuntime, ParallelResult


@dataclass
class ExperimentResult:
    """One run of one program under one configuration."""

    program_label: str
    n_threads: int
    instrumented: bool
    seed: int
    #: virtual duration of the tasking kernel's parallel region
    kernel_time: float
    #: the functional result verified against ground truth?
    verified: bool
    parallel: ParallelResult
    profile: Optional[Profile]
    meta: Dict[str, Any] = field(default_factory=dict)
    #: the full configuration the run used; the profile archive
    #: fingerprints it to group repetitions into baselines
    config: Optional[RuntimeConfig] = None

    @property
    def result_value(self) -> Any:
        return first_result(self.parallel)

    def bucket_total(self, bucket: str) -> float:
        return self.parallel.total(bucket)


def run_program(
    program: BotsProgram,
    n_threads: int = 4,
    instrument: bool = True,
    seed: int = 0,
    costs: Optional[CostModel] = None,
    **config_overrides: Any,
) -> ExperimentResult:
    """Run a (fresh!) BOTS program under the given configuration.

    Programs with in-place state (sparselu, floorplan) are single-use;
    build a new one per call -- :func:`run_app` does this for you.
    """
    config_kwargs: Dict[str, Any] = dict(
        n_threads=n_threads,
        instrument=instrument,
        seed=seed,
    )
    if costs is not None:
        config_kwargs["costs"] = costs
    config_kwargs.update(config_overrides)
    config = RuntimeConfig(**config_kwargs)

    runtime = OpenMPRuntime(config)
    parallel = runtime.parallel(program.body, name=program.label)
    return ExperimentResult(
        program_label=program.label,
        n_threads=n_threads,
        instrumented=instrument,
        seed=seed,
        kernel_time=parallel.duration,
        verified=program.verify(parallel),
        parallel=parallel,
        profile=parallel.profile,
        meta=dict(program.meta),
        config=config,
    )


def run_app(
    name: str,
    size: str = "small",
    variant: str = "optimized",
    n_threads: int = 4,
    instrument: bool = True,
    seed: int = 0,
    costs: Optional[CostModel] = None,
    program_kwargs: Optional[dict] = None,
    **config_overrides: Any,
) -> ExperimentResult:
    """Build a fresh program from the registry and run it."""
    program = get_program(name, size=size, variant=variant, **(program_kwargs or {}))
    return run_program(
        program,
        n_threads=n_threads,
        instrument=instrument,
        seed=seed,
        costs=costs,
        **config_overrides,
    )
