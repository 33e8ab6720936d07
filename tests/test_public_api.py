"""The documented public API exists and is importable.

Guards docs/api.md against drift: every symbol it promises must import,
and every subpackage's ``__all__`` must resolve.
"""

import importlib

import pytest

SUBPACKAGES = [
    "repro",
    "repro.sim",
    "repro.events",
    "repro.runtime",
    "repro.instrument",
    "repro.profiling",
    "repro.cube",
    "repro.bots",
    "repro.analysis",
    "repro.faults",
    "repro.substrates",
    "repro.archive",
    "repro.governor",
    "repro.fabric",
]


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


PROMISED = {
    "repro.runtime": [
        "OpenMPRuntime",
        "run_parallel",
        "RuntimeConfig",
        "CostModel",
        "JUROPA_LIKE",
        "ZERO_COST",
        "TaskContext",
        "TaskHandle",
        "ParallelResult",
        "TaskYield",
    ],
    "repro.profiling": [
        "TaskProfiler",
        "ThreadTaskProfiler",
        "Profile",
        "CallTreeNode",
        "NodeMetrics",
        "StatAccumulator",
        "NodePool",
        "ClassicProfiler",
        "CreationNodeProfiler",
        "NoInstanceProfiler",
        "ConcurrencyTracker",
        "SalvageReport",
    ],
    "repro.instrument": [
        "InstrumentationLayer",
        "instrument_source",
        "instrument_function",
    ],
    "repro.substrates": [
        "Substrate",
        "SubstrateManager",
        "SubstrateIncident",
        "ProfilingSubstrate",
        "TracingSubstrate",
        "OnlineValidationSubstrate",
        "StatsSubstrate",
        "register_substrate",
        "get_substrate",
        "available_substrates",
    ],
    "repro.events": [
        "Region",
        "RegionRegistry",
        "RegionType",
        "TaskStreamChecker",
        "EnterEvent",
        "ExitEvent",
        "TaskBeginEvent",
        "TaskEndEvent",
        "TaskSwitchEvent",
        "EventStream",
        "ProgramTrace",
        "validate_nesting",
        "validate_task_stream",
        "Violation",
        "collect_trace_violations",
        "validate_program_trace",
        "repair_stream",
        "repair_streams",
        "RepairLog",
    ],
    "repro.faults": [
        "FaultPlan",
        "FaultInjector",
        "FAULT_MODES",
        "plan_for_mode",
        "run_tolerant",
        "run_campaign",
        "CampaignResult",
        "SalvageOutcome",
    ],
    "repro.cube": [
        "render_profile",
        "render_node",
        "top_regions",
        "hot_path",
        "flat_region_profile",
        "query",
        "query_time",
        "query_visits",
        "dumps",
        "loads",
        "diff_profiles",
    ],
    "repro.bots": ["get_program", "list_programs", "BotsProgram"],
    "repro.fabric": [
        "AdmissionController",
        "AdmissionPolicy",
        "AdmissionStats",
        "ADMISSION_POLICIES",
        "BreakerPolicy",
        "BreakerState",
        "CircuitBreaker",
        "BREAKER_FAILURE_OUTCOMES",
        "LivenessTracker",
        "heartbeat_message",
        "is_heartbeat",
        "DEFAULT_HEARTBEAT_S",
        "DEFAULT_STALL_FACTOR",
    ],
    "repro.governor": [
        "MemoryBudget",
        "ResourceGovernor",
        "PressureIncident",
        "LEVEL_NAMES",
        "PRESSURE_POLICIES",
    ],
    "repro.archive": [
        "ArchiveStore",
        "ArchiveRecord",
        "RunMeta",
        "config_fingerprint",
        "content_hash",
        "profile_dict_hash",
        "meta_for_result",
        "meta_for_outcome",
        "find_runs",
        "latest_baseline",
        "baselines_available",
        "Baseline",
        "MetricStats",
        "MetricPolicy",
        "SentinelPolicy",
        "SentinelReport",
        "RegionVerdict",
        "compare_to_baseline",
        "GcStats",
        "fsck",
        "FsckReport",
        "FsckIssue",
        "FSCK_ISSUE_KINDS",
    ],
    "repro.analysis": [
        "run_app",
        "measure_overhead",
        "overhead_sweep",
        "runtime_scaling",
        "substrate_overhead_rows",
        "event_cost_attribution",
        "task_statistics",
        "max_concurrent_tasks",
        "nqueens_region_times",
        "nqueens_depth_table",
        "cutoff_speedup",
        "advise",
        "creation_balance",
        "diagnose_creation_bottleneck",
        "management_ratio",
        "render_timeline",
        "generate_report",
        "format_table",
    ],
}


@pytest.mark.parametrize("module_name,symbols", sorted(PROMISED.items()))
def test_documented_symbols_exist(module_name, symbols):
    module = importlib.import_module(module_name)
    missing = [s for s in symbols if not hasattr(module, s)]
    assert not missing, f"{module_name} missing documented symbols: {missing}"


def test_deeper_documented_modules_import():
    for module_name in (
        "repro.instrument.opari2",
        "repro.analysis.scaling",
        "repro.analysis.patterns",
        "repro.analysis.traces",
        "repro.analysis.report",
        "repro.cube.paths",
        "repro.cli",
    ):
        importlib.import_module(module_name)


def test_version_is_set():
    import repro

    assert repro.__version__ == "1.0.0"
