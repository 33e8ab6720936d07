"""Command-line interface: run kernels, regenerate paper artifacts.

Examples::

    python -m repro list
    python -m repro run nqueens --size small --threads 4 --render
    python -m repro run fib --variant stress --trace-timeline
    python -m repro overhead fib --variant stress --threads 1,2,4,8
    python -m repro advise nqueens --variant stress
    python -m repro paper table1 table3 fig15
    python -m repro run fib --size test --fault-mode drop_events --tolerate-errors
    python -m repro faults --apps fib --modes drop_events,clock_skew --seeds 0
    python -m repro supervise --apps fib --jobs 2 --journal campaign.jsonl
    python -m repro supervise --resume campaign.jsonl --jobs 2
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from typing import List, Optional, Sequence

from repro.analysis.advisor import advise
from repro.analysis.charts import grouped_bar_chart
from repro.analysis.experiment import run_app
from repro.analysis.nqueens_study import (
    cutoff_speedup,
    nqueens_depth_table,
    nqueens_region_times,
)
from repro.analysis.overhead import measure_overhead, overhead_sweep, runtime_scaling
from repro.analysis.tables import format_table
from repro.analysis.taskstats import task_statistics
from repro.analysis.traces import management_ratio, render_timeline
from repro.bots.registry import list_programs
from repro.cube.export import dump_path
from repro.cube.render import render_profile
from repro.errors import CampaignInterrupted, JournalVersionError, ReproError
from repro.faults.plan import FAULT_MODES
from repro.ioutil import atomic_write


def _parse_threads(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--threads expects comma-separated integers, got {text!r}"
        ) from None


def _parse_names(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _unknown_kernel(name: str) -> int:
    """One-line stderr diagnostic + exit code 2 for a bad kernel name."""
    matches = difflib.get_close_matches(name, list_programs(), n=3, cutoff=0.5)
    hint = f"; did you mean {' or '.join(matches)}?" if matches else ""
    print(
        f"repro: unknown kernel {name!r}{hint} (run `repro list` to see them all)",
        file=sys.stderr,
    )
    return 2


def _unknown_substrate(name: str) -> int:
    """Same contract as :func:`_unknown_kernel` for substrate names."""
    from repro.substrates import available_substrates

    names = available_substrates()
    matches = difflib.get_close_matches(name, names, n=3, cutoff=0.5)
    hint = f"; did you mean {' or '.join(matches)}?" if matches else ""
    print(
        f"repro: unknown substrate {name!r}{hint} "
        f"(available: {', '.join(names)})",
        file=sys.stderr,
    )
    return 2


def _add_budget_arguments(parser) -> None:
    """The governor flags shared by ``run`` (and mirrored by ``governor``)."""
    parser.add_argument(
        "--memory-budget", type=int, default=None, metavar="N",
        help="arm the resource governor: cap concurrently live "
             "task-instance trees at N and degrade measurement fidelity "
             "instead of failing (see `repro governor`)",
    )
    parser.add_argument(
        "--on-pressure", choices=["degrade", "stop"], default="degrade",
        help="policy above the budget: walk the degradation ladder "
             "(degrade, default) or salvage-and-stop (stop); needs "
             "--memory-budget",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Profiling of OpenMP Tasks with Score-P' "
        "(Lorenz et al., ICPP 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the available BOTS kernels")

    run_parser = sub.add_parser("run", help="run one kernel and show its profile")
    run_parser.add_argument("app", help="kernel name (see `repro list`)")
    run_parser.add_argument("--size", default="small", choices=["test", "small", "medium"])
    run_parser.add_argument("--variant", default="optimized")
    run_parser.add_argument("--threads", type=int, default=4)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--no-instrument", action="store_true")
    run_parser.add_argument("--render", action="store_true", help="print the profile tree")
    run_parser.add_argument("--max-depth", type=int, default=3)
    run_parser.add_argument("--json", metavar="FILE", help="export the profile as JSON")
    run_parser.add_argument(
        "--trace-timeline", action="store_true",
        help="record events and print the per-thread task timeline",
    )
    run_parser.add_argument(
        "--substrate", action="append", dest="substrates", metavar="NAME",
        help="attach a measurement substrate by registry name (repeatable; "
             "built-ins: profiling, tracing, validation, stats; default "
             "wiring derives from --no-instrument / --trace-timeline)",
    )
    tolerance = run_parser.add_mutually_exclusive_group()
    tolerance.add_argument(
        "--tolerate-errors", action="store_true",
        help="lenient mode: salvage a partial profile when the run "
             "crashes, hangs, or produces a corrupt trace",
    )
    tolerance.add_argument(
        "--strict", action="store_true",
        help="strict mode: validate the recorded trace and fail with the "
             "precise error on the first inconsistency",
    )
    run_parser.add_argument(
        "--fault-mode", choices=FAULT_MODES, metavar="MODE",
        help=f"arm one fault-injection mode (one of: {', '.join(FAULT_MODES)})",
    )
    run_parser.add_argument(
        "--watchdog-us", type=float, default=None, metavar="US",
        help="abort the parallel region after this much virtual time",
    )
    run_parser.add_argument(
        "--instr-cost", type=float, default=None, metavar="US",
        help="override the per-event instrumentation cost of the cost "
             "model (regression-injection knob for the sentinel)",
    )
    run_parser.add_argument(
        "--archive", metavar="DIR",
        help="archive the run's profile into the content-addressed "
             "store at DIR (see `repro archive` / `repro sentinel`)",
    )
    run_parser.add_argument(
        "--tag", action="append", dest="tags", default=None, metavar="TAG",
        help="label the archived run (repeatable; requires --archive)",
    )
    run_parser.add_argument(
        "--record", metavar="DIR",
        help="durably record the event stream into DIR (sealed CRC32 "
             "chunks + periodic checkpoints; see `repro replay` / "
             "`repro verify`)",
    )
    run_parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="checkpoint profiler state at the first batch boundary "
             "past each multiple of N recorded events (requires --record)",
    )
    _add_budget_arguments(run_parser)

    replay_parser = sub.add_parser(
        "replay",
        help="reconstruct a profile from a recorded event stream alone",
    )
    replay_parser.add_argument("record_dir", help="recording directory (--record)")
    replay_parser.add_argument(
        "--strict", action="store_true",
        help="require a complete stream (sealed FIN record); default is "
             "lenient, replaying whatever sealed prefix survives",
    )
    replay_parser.add_argument("--render", action="store_true",
                               help="print the reconstructed profile tree")
    replay_parser.add_argument("--max-depth", type=int, default=3)
    replay_parser.add_argument("--json", metavar="FILE",
                               help="export the reconstructed profile as JSON")

    verify_parser = sub.add_parser(
        "verify",
        help="replay a recording and cross-check it byte-identically "
             "against the live profile; exit 0 = match, 1 = divergence, "
             "2 = recording unusable",
    )
    verify_parser.add_argument("record_dir", help="recording directory (--record)")
    verify_parser.add_argument(
        "--against", metavar="REF",
        help="archived run (run id or sha256 prefix) to compare against "
             "instead of the recording's own manifest hash",
    )
    verify_parser.add_argument(
        "--archive", metavar="DIR",
        help="archive directory holding --against (required with it)",
    )
    verify_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable divergence report",
    )

    governor_parser = sub.add_parser(
        "governor",
        help="run one kernel under a memory budget and report the "
             "degradation ladder",
    )
    governor_parser.add_argument("app", help="kernel name (see `repro list`)")
    governor_parser.add_argument(
        "--size", default="test", choices=["test", "small", "medium"]
    )
    governor_parser.add_argument("--variant", default="optimized")
    governor_parser.add_argument("--threads", type=int, default=2)
    governor_parser.add_argument("--seed", type=int, default=0)
    governor_parser.add_argument(
        "--memory-budget", type=int, required=True, metavar="N",
        help="cap on concurrently live task-instance trees",
    )
    governor_parser.add_argument(
        "--on-pressure", choices=["degrade", "stop"], default="degrade",
        help="policy above the budget: walk the degradation ladder "
             "(degrade, default) or salvage-and-stop at the hard "
             "watermark (stop)",
    )
    governor_parser.add_argument(
        "--json", metavar="FILE",
        help="write the governor report (budget, ladder, incidents) as JSON",
    )

    overhead_parser = sub.add_parser("overhead", help="instrumented-vs-baseline overhead")
    overhead_parser.add_argument("app", nargs="+")
    overhead_parser.add_argument("--size", default="small")
    overhead_parser.add_argument("--variant", default="optimized")
    overhead_parser.add_argument("--threads", type=_parse_threads, default=[1, 2, 4, 8])
    overhead_parser.add_argument("--seeds", type=_parse_threads, default=[0])

    report_parser = sub.add_parser("report", help="full performance report for one run")
    report_parser.add_argument("app")
    report_parser.add_argument("--size", default="small")
    report_parser.add_argument("--variant", default="optimized")
    report_parser.add_argument("--threads", type=int, default=4)
    report_parser.add_argument("--seed", type=int, default=0)
    report_parser.add_argument("--output", metavar="FILE", help="also write to a file")

    advise_parser = sub.add_parser("advise", help="run the granularity advisor")
    advise_parser.add_argument("app")
    advise_parser.add_argument("--size", default="small")
    advise_parser.add_argument("--variant", default="stress")
    advise_parser.add_argument("--threads", type=int, default=4)

    scaling_parser = sub.add_parser(
        "scaling", help="per-region thread-scaling study (Table III generalized)"
    )
    scaling_parser.add_argument("app")
    scaling_parser.add_argument("--size", default="small")
    scaling_parser.add_argument("--variant", default="stress")
    scaling_parser.add_argument("--threads", type=_parse_threads, default=[1, 2, 4, 8])

    diff_parser = sub.add_parser(
        "diff", help="compare two exported profiles region by region"
    )
    diff_parser.add_argument("before", help="JSON profile (from `repro run --json`)")
    diff_parser.add_argument("after", help="JSON profile to compare against")
    diff_parser.add_argument("--metric", default="exclusive",
                             choices=["exclusive", "inclusive"])
    diff_parser.add_argument("--limit", type=int, default=15)

    paper_parser = sub.add_parser("paper", help="regenerate paper tables/figures")
    paper_parser.add_argument(
        "artifact",
        nargs="+",
        choices=["table1", "table2", "table3", "table4", "fig13", "fig14", "fig15", "sec6"],
    )
    paper_parser.add_argument("--size", default="small")

    faults_parser = sub.add_parser(
        "faults",
        help="seeded fault-injection campaign (graceful-degradation check)",
    )
    faults_parser.add_argument(
        "--apps", type=_parse_names, default=["fib", "nqueens"],
        help="comma-separated kernel names (default: fib,nqueens)",
    )
    faults_parser.add_argument(
        "--modes", type=_parse_names, default=list(FAULT_MODES),
        help=f"comma-separated fault modes (default: all of {','.join(FAULT_MODES)})",
    )
    faults_parser.add_argument(
        "--seeds", type=_parse_threads, default=[0, 1, 2],
        help="comma-separated seeds (default: 0,1,2)",
    )
    faults_parser.add_argument("--size", default="test",
                               choices=["test", "small", "medium"])
    faults_parser.add_argument("--threads", type=int, default=2)
    faults_parser.add_argument(
        "--watchdog-us", type=float, default=None, metavar="US",
        help="virtual-time watchdog per run (default: 1e6)",
    )

    supervise_parser = sub.add_parser(
        "supervise",
        help="crash-safe supervised grid execution (isolated workers, "
        "wall-clock timeouts, retries, resumable journal)",
    )
    supervise_parser.add_argument(
        "--apps", type=_parse_names, default=["fib", "nqueens"],
        help="comma-separated kernel names for a fault grid "
        "(default: fib,nqueens; ignored with --spec-file)",
    )
    supervise_parser.add_argument(
        "--modes", type=_parse_names, default=list(FAULT_MODES),
        help="comma-separated fault modes; 'none' runs cells healthy "
        f"(default: all of {','.join(FAULT_MODES)})",
    )
    supervise_parser.add_argument(
        "--seeds", type=_parse_threads, default=[0, 1, 2],
        help="comma-separated seeds (default: 0,1,2)",
    )
    supervise_parser.add_argument("--size", default="test",
                                  choices=["test", "small", "medium"])
    supervise_parser.add_argument("--threads", type=int, default=2)
    supervise_parser.add_argument(
        "--substrates", type=_parse_names, default=None, metavar="NAMES",
        help="comma-separated substrate names fault cells should attach "
        "(profiling and tracing are always ensured; ignored with "
        "--spec-file)",
    )
    supervise_parser.add_argument(
        "--watchdog-us", type=float, default=None, metavar="US",
        help="virtual-time watchdog per run (default: 1e6)",
    )
    supervise_parser.add_argument(
        "--spec-file", metavar="FILE",
        help="run this grid instead (JSON list or JSONL of run specs)",
    )
    supervise_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker subprocesses to run in parallel (default: 1)",
    )
    supervise_parser.add_argument(
        "--timeout-s", type=float, default=60.0, metavar="S",
        help="wall-clock limit per cell attempt in real seconds "
        "(default: 60; catches kernels stuck without advancing "
        "virtual time, which --watchdog-us cannot)",
    )
    supervise_parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="retries per cell for transient crash/timeout/oom outcomes "
        "(deterministic errors are never retried; default: 1)",
    )
    supervise_parser.add_argument(
        "--backoff-s", type=float, default=0.5, metavar="S",
        help="base retry delay, doubled per attempt with seeded jitter "
        "(default: 0.5)",
    )
    supervise_parser.add_argument(
        "--journal", metavar="FILE",
        help="append-only JSONL journal (fsync'd write-ahead records; "
        "makes the run resumable after any crash)",
    )
    supervise_parser.add_argument(
        "--resume", metavar="FILE",
        help="replay this journal: skip journaled-complete cells, re-run "
        "pending/failed ones (implies --journal FILE)",
    )
    supervise_parser.add_argument(
        "--summary", metavar="FILE",
        help="also write the outcome table as JSON (atomic temp+rename)",
    )
    supervise_parser.add_argument(
        "--archive", metavar="DIR",
        help="archive each cell's (possibly salvaged) profile into the "
        "store at DIR; defaults to <journal>.archive when --journal or "
        "--resume is given",
    )
    supervise_parser.add_argument(
        "--no-archive", action="store_true",
        help="disable the automatic per-cell profile archiving",
    )
    supervise_parser.add_argument(
        "--heartbeat-s", type=float, default=0.5, metavar="S",
        help="worker liveness heartbeat interval; a worker alive but "
        "silent past --stall-factor intervals is killed as 'stuck' "
        "(default: 0.5)",
    )
    supervise_parser.add_argument(
        "--no-heartbeat", action="store_true",
        help="disable heartbeats and stuck detection",
    )
    supervise_parser.add_argument(
        "--stall-factor", type=float, default=6.0, metavar="F",
        help="missed heartbeat intervals before a worker counts as "
        "stuck (default: 6)",
    )
    supervise_parser.add_argument(
        "--deadline-s", type=float, default=None, metavar="S",
        help="campaign wall-clock budget: stop launching when it "
        "expires, drain running cells, journal the rest as cancelled "
        "(resumable)",
    )
    supervise_parser.add_argument(
        "--breaker-threshold", type=int, default=None, metavar="N",
        help="arm a per-class circuit breaker: short-circuit a "
        "(kernel, config) class after N consecutive "
        "crash/timeout/oom/stuck outcomes (default: off)",
    )
    supervise_parser.add_argument(
        "--breaker-probes", type=int, default=2, metavar="N",
        help="half-open probe cells an open class may spend re-closing "
        "(default: 2)",
    )
    supervise_parser.add_argument(
        "--breaker-probe-after", type=int, default=4, metavar="N",
        help="short-circuited cells between probes (default: 4)",
    )
    supervise_parser.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help="arm admission control: bound the not-yet-running queue "
        "at N cells (default: off)",
    )
    supervise_parser.add_argument(
        "--admission-policy", default="block",
        choices=["block", "reject", "shed"],
        help="overload behavior at the queue's high watermark: pace "
        "launches (block), journal overflow as cancelled (reject), or "
        "evict the oldest pending cell (shed) (default: block)",
    )
    supervise_parser.add_argument(
        "--record-dir", metavar="DIR",
        help="durably record every cell's event stream under "
        "DIR/<app>.<mode>.s<seed>; terminally failed cells are salvaged "
        "from their recording into partial-tagged archived profiles",
    )

    archive_parser = sub.add_parser(
        "archive",
        help="inspect and maintain a content-addressed profile archive",
    )
    archive_sub = archive_parser.add_subparsers(dest="action", required=True)

    list_parser = archive_sub.add_parser("list", help="list archived runs")
    list_parser.add_argument("dir", help="archive directory")
    list_parser.add_argument("--kernel")
    list_parser.add_argument("--size")
    list_parser.add_argument("--variant")
    list_parser.add_argument("--threads", type=int, default=None)
    list_parser.add_argument("--tag")
    list_parser.add_argument("--limit", type=int, default=None, metavar="N",
                             help="show only the newest N matches")

    show_parser = archive_sub.add_parser(
        "show", help="metadata + profile summary of one archived run"
    )
    show_parser.add_argument("dir", help="archive directory")
    show_parser.add_argument("ref", help="run id (rNNNN) or sha256 prefix")
    show_parser.add_argument("--render", action="store_true",
                             help="also print the full profile tree")
    show_parser.add_argument("--max-depth", type=int, default=3)
    show_parser.add_argument(
        "--verify", action="store_true",
        help="recompute the object's sha256 on read and fail (exit 2) "
             "when the bytes no longer hash to their name",
    )

    gc_parser = archive_sub.add_parser(
        "gc", help="prune old runs and delete unreferenced objects"
    )
    gc_parser.add_argument("dir", help="archive directory")
    gc_parser.add_argument(
        "--keep", type=int, default=None, metavar="N",
        help="keep only the newest N runs per configuration group "
        "(default: keep all index records, delete orphaned objects only)",
    )

    fsck_parser = archive_sub.add_parser(
        "fsck",
        help="verify archive integrity (object hashes, index records); "
        "exit 0 = clean/repaired, 1 = unrepaired issues",
    )
    fsck_parser.add_argument("dir", help="archive directory")
    fsck_parser.add_argument(
        "--repair", action="store_true",
        help="quarantine corrupt objects, delete orphans, rebuild the "
        "index without dangling/torn records",
    )
    fsck_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable report instead of the table",
    )

    tag_parser = archive_sub.add_parser("tag", help="label an archived run")
    tag_parser.add_argument("dir", help="archive directory")
    tag_parser.add_argument("ref", help="run id or sha256 prefix")
    tag_parser.add_argument("tag", help="label to attach")

    abaseline_parser = archive_sub.add_parser(
        "baseline", help="aggregate archived runs into baseline statistics"
    )
    abaseline_parser.add_argument("dir", help="archive directory")
    abaseline_parser.add_argument("--kernel", required=True)
    abaseline_parser.add_argument("--size")
    abaseline_parser.add_argument("--variant")
    abaseline_parser.add_argument("--threads", type=int, default=None)
    abaseline_parser.add_argument("--tag")
    abaseline_parser.add_argument("--runs", type=int, default=3, metavar="N",
                                  help="newest runs to aggregate (default: 3)")
    abaseline_parser.add_argument(
        "--metric", default="exclusive",
        choices=["exclusive", "inclusive", "visits"],
    )

    sentinel_parser = sub.add_parser(
        "sentinel",
        help="noise-aware regression check of a fresh run (or a profile "
        "file) against an archived baseline; exit 0 = clean, 1 = regressed",
    )
    sentinel_parser.add_argument("app", help="kernel name (see `repro list`)")
    sentinel_parser.add_argument("--archive", required=True, metavar="DIR",
                                 help="archive directory holding the baseline")
    sentinel_parser.add_argument("--size", default="small",
                                 choices=["test", "small", "medium"])
    sentinel_parser.add_argument("--variant", default="optimized")
    sentinel_parser.add_argument("--threads", type=int, default=4)
    sentinel_parser.add_argument("--seed", type=int, default=0)
    sentinel_parser.add_argument(
        "--candidate", metavar="FILE",
        help="compare this exported profile JSON instead of running "
        "the kernel",
    )
    sentinel_parser.add_argument(
        "--instr-cost", type=float, default=None, metavar="US",
        help="override the per-event instrumentation cost for the "
        "candidate run (regression-injection knob)",
    )
    sentinel_parser.add_argument(
        "--runs", type=int, default=3, metavar="N",
        help="newest archived runs to build the baseline from (default: 3)",
    )
    sentinel_parser.add_argument(
        "--min-runs", type=int, default=2, metavar="N",
        help="refuse (exit 2) with fewer matching archived runs "
        "(default: 2)",
    )
    sentinel_parser.add_argument("--tag", default=None,
                                 help="only use baseline runs with this tag")
    sentinel_parser.add_argument(
        "--metric", action="append", dest="metrics", default=None,
        choices=["exclusive", "inclusive", "visits"],
        help="metric(s) to compare (repeatable; default: exclusive)",
    )
    sentinel_parser.add_argument(
        "--ratio", type=float, default=None, metavar="X",
        help="flag regions changed by at least this factor (default: 1.10)",
    )
    sentinel_parser.add_argument(
        "--zscore", type=float, default=None, metavar="Z",
        help="additionally require this many baseline std-devs when the "
        "baseline has variance (default: 3.0)",
    )
    sentinel_parser.add_argument(
        "--min-abs", type=float, default=None, metavar="US",
        help="noise floor: ignore regions below this on both sides "
        "(default: 1.0)",
    )
    sentinel_parser.add_argument("--fail-on-appeared", action="store_true",
                                 help="new regions also fail the check")
    sentinel_parser.add_argument("--fail-on-vanished", action="store_true",
                                 help="vanished regions also fail the check")
    sentinel_parser.add_argument(
        "--archive-candidate", action="store_true",
        help="also archive the candidate run (tagged 'candidate')",
    )
    sentinel_parser.add_argument("--include-ok", action="store_true",
                                 help="show unchanged regions in the table")
    sentinel_parser.add_argument("--json", metavar="FILE",
                                 help="write the structured report as JSON")

    serve_parser = sub.add_parser(
        "serve",
        help="run the crash-safe campaign gateway over a home directory: "
        "recover the ledger, then admit/claim/execute submitted "
        "campaigns (SIGTERM drains in-flight work, exit 143; everything "
        "is resumable)",
    )
    serve_parser.add_argument(
        "home", help="gateway home (ledger.jsonl, journals/, archive/)"
    )
    serve_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker subprocesses per campaign (default: 1)",
    )
    serve_parser.add_argument(
        "--lease-ttl-s", type=float, default=300.0, metavar="S",
        help="lease time-to-live: an expired lease marks its holder "
        "presumed-dead and recovery reclaims the campaign (default: 300)",
    )
    serve_parser.add_argument(
        "--max-lease-attempts", type=int, default=3, metavar="N",
        help="lease grants per campaign before it fails as "
        "lease-exhausted (default: 3)",
    )
    serve_parser.add_argument(
        "--cell-timeout-s", type=float, default=60.0, metavar="S",
        help="wall-clock limit per cell attempt, clamped to the "
        "campaign's remaining deadline budget (default: 60)",
    )
    serve_parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="retries per cell for transient outcomes (default: 1)",
    )
    serve_parser.add_argument(
        "--heartbeat-s", type=float, default=0.5, metavar="S",
        help="worker liveness heartbeat interval (default: 0.5)",
    )
    serve_parser.add_argument(
        "--no-heartbeat", action="store_true",
        help="disable heartbeats and stuck detection",
    )
    serve_parser.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help="arm admission control: bound the admitted-not-leased "
        "queue at N campaigns (default: off)",
    )
    serve_parser.add_argument(
        "--admission-policy", default="block",
        choices=["block", "reject", "shed"],
        help="overload behavior at the queue's high watermark: defer "
        "admission (block), fail the newcomer with E_ADMISSION_REJECTED "
        "(reject), or cancel the oldest admitted campaign (shed) "
        "(default: block)",
    )
    serve_parser.add_argument(
        "--breaker-threshold", type=int, default=None, metavar="N",
        help="arm the per-class circuit breaker inside each campaign's "
        "supervisor (default: off)",
    )
    serve_parser.add_argument(
        "--until-idle", action="store_true",
        help="exit once no resumable work remains instead of polling "
        "for new submissions forever",
    )
    serve_parser.add_argument(
        "--max-campaigns", type=int, default=None, metavar="N",
        help="stop after executing N campaigns",
    )
    serve_parser.add_argument(
        "--budget-s", type=float, default=None, metavar="S",
        help="stop after S seconds of serving (in-flight work drains)",
    )
    serve_parser.add_argument(
        "--poll-s", type=float, default=0.5, metavar="S",
        help="idle poll interval while waiting for work (default: 0.5)",
    )
    serve_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable serve report instead of text",
    )

    submit_parser = sub.add_parser(
        "submit",
        help="durably enqueue a campaign with the gateway (idempotent "
        "under --key); a serve process executes it",
    )
    submit_parser.add_argument("home", help="gateway home directory")
    submit_parser.add_argument(
        "--apps", type=_parse_names, default=["fib", "nqueens"],
        help="comma-separated kernel names for a fault campaign "
        "(default: fib,nqueens; ignored with --cells-file)",
    )
    submit_parser.add_argument(
        "--modes", type=_parse_names, default=list(FAULT_MODES),
        help="comma-separated fault modes; 'none' runs cells healthy "
        f"(default: all of {','.join(FAULT_MODES)})",
    )
    submit_parser.add_argument(
        "--seeds", type=_parse_threads, default=[0, 1, 2],
        help="comma-separated seeds (default: 0,1,2)",
    )
    submit_parser.add_argument("--size", default="test",
                               choices=["test", "small", "medium"])
    submit_parser.add_argument("--threads", type=int, default=2)
    submit_parser.add_argument(
        "--watchdog-us", type=float, default=None, metavar="US",
        help="virtual-time watchdog per run (default: 1e6)",
    )
    submit_parser.add_argument(
        "--substrates", type=_parse_names, default=None, metavar="NAMES",
        help="comma-separated substrate names fault cells should attach",
    )
    submit_parser.add_argument(
        "--wall-timeout-s", type=float, default=None, metavar="S",
        help="per-cell wall-clock limit carried by the spec (the "
        "gateway clamps it to the remaining deadline budget)",
    )
    submit_parser.add_argument(
        "--cells-file", metavar="FILE",
        help="submit these run specs verbatim (JSON list or JSONL) "
        "instead of a fault grid",
    )
    submit_parser.add_argument(
        "--key", dest="idempotency_key", metavar="KEY",
        help="idempotency key: resubmitting the same spec under the "
        "same key returns the original campaign instead of creating "
        "a duplicate",
    )
    submit_parser.add_argument(
        "--deadline-s", type=float, default=None, metavar="S",
        help="end-to-end deadline from submission, propagated down to "
        "the supervisor and every cell's wall-clock limit",
    )
    submit_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable response (stable E_* error "
        "codes on failure)",
    )

    status_parser = sub.add_parser(
        "status",
        help="one campaign's ledger record, or a table of all of them",
    )
    status_parser.add_argument("home", help="gateway home directory")
    status_parser.add_argument(
        "campaign_id", nargs="?", default=None,
        help="campaign id (cNNNN); omit to list every campaign",
    )
    status_parser.add_argument(
        "--cancel", action="store_true",
        help="cancel the named campaign (pre-lease states only)",
    )
    status_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit machine-readable records",
    )

    fetch_parser = sub.add_parser(
        "fetch",
        help="a campaign's record plus its archived runs (found by the "
        "campaign:<id> tag the gateway stamps on every cell)",
    )
    fetch_parser.add_argument("home", help="gateway home directory")
    fetch_parser.add_argument("campaign_id", help="campaign id (cNNNN)")
    fetch_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable response",
    )

    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def cmd_list(_args) -> int:
    for name in list_programs():
        print(name)
    return 0


def _archive_run(archive_dir: str, profile, meta) -> None:
    """Archive one profile + metadata, reporting id/hash/deduplication."""
    from repro.archive import ArchiveStore

    record = ArchiveStore(archive_dir).put(profile, meta)
    dedup = " (deduplicated: identical content already stored)" if (
        record.deduplicated
    ) else ""
    print(
        f"  archived as {record.run_id} "
        f"sha256={record.sha256[:12]}…{dedup} -> {archive_dir}"
    )


def _costs_override(args):
    """CostModel override from ``--instr-cost`` (None = default model)."""
    if getattr(args, "instr_cost", None) is None:
        return None
    from repro.runtime.costs import JUROPA_LIKE

    return JUROPA_LIKE.with_instrumentation_cost(args.instr_cost)


def _memory_budget(args):
    """A :class:`MemoryBudget` from ``--memory-budget``/``--on-pressure``.

    Returns None when no budget was requested, so ungoverned runs build
    the exact same configuration they always did.
    """
    if getattr(args, "memory_budget", None) is None:
        return None
    from repro.governor import MemoryBudget

    return MemoryBudget(
        max_live_instances=args.memory_budget,
        on_pressure=getattr(args, "on_pressure", "degrade"),
    )


def _print_governor_report(report) -> None:
    """Ladder level + one line per PressureIncident, CLI-style."""
    if not report:
        return
    level = report.get("level", 0)
    incidents = report.get("incidents", ())
    if level == 0 and not incidents:
        print("  governor: budget never under pressure (stayed at L0)")
        return
    stubbed = report.get("stubbed_tasks", 0)
    created = report.get("created_tasks", 0)
    print(
        f"  governor: degradation level L{level} "
        f"({report.get('level_name', '?')}), peak live instances "
        f"{report.get('peak_live_instances', 0)}, "
        f"{stubbed}/{created} task(s) stub-accounted"
    )
    for incident in incidents:
        level = incident.get("level", "?")
        print(
            f"    L{level} {incident.get('name', '?')}: "
            f"{incident.get('trigger', '?')} "
            f"{incident.get('value', 0)}/{incident.get('limit', 0)} "
            f"at t={incident.get('time_us', 0.0):.1f} us "
            f"({incident.get('tasks_affected', 0)} task(s) live) -- "
            f"{incident.get('action', '')}"
        )


def _run_tolerant(args, plan) -> int:
    from repro.faults.campaign import DEFAULT_WATCHDOG_US, run_tolerant

    record_dir = getattr(args, "record", None)
    outcome = run_tolerant(
        args.app,
        size=args.size,
        n_threads=args.threads,
        seed=args.seed,
        plan=plan,
        watchdog_us=(
            args.watchdog_us if args.watchdog_us is not None else DEFAULT_WATCHDOG_US
        ),
        variant=args.variant,
        substrates=getattr(args, "substrates", None),
        costs=_costs_override(args),
        memory_budget=_memory_budget(args),
        record_dir=record_dir,
        checkpoint_every=getattr(args, "checkpoint_every", None),
    )
    verified = "n/a" if outcome.verified is None else outcome.verified
    print(f"{args.app}: status={outcome.status}, verified={verified}, "
          f"threads={args.threads}")
    if record_dir:
        print(f"  recording: {record_dir} "
              f"(check it with `repro verify {record_dir}`)")
    if outcome.salvage is not None:
        print(f"  {outcome.salvage.summary()}")
    if outcome.governor_report is not None:
        _print_governor_report(outcome.governor_report)
    if outcome.error:
        print(f"  run error: {outcome.error}")
    if outcome.profile is not None:
        if args.render:
            print()
            print(render_profile(outcome.profile, max_depth=args.max_depth))
        if args.json:
            dump_path(outcome.profile, args.json)
            print(f"  profile exported to {args.json}")
        if args.archive:
            from repro.archive import meta_for_outcome

            _archive_run(
                args.archive,
                outcome.profile,
                meta_for_outcome(
                    outcome, size=args.size, variant=args.variant,
                    seed=args.seed, tags=tuple(args.tags or ()),
                ),
            )
    return 0 if outcome.ok else 1


def _print_substrate_report(parallel) -> None:
    """Per-substrate overhead lines + the non-classic artifacts."""
    from repro.analysis.overhead import substrate_overhead_rows

    rows = substrate_overhead_rows(parallel)
    if rows:
        print("  substrates:")
        for row in rows:
            status = "quarantined" if row["quarantined"] else "ok"
            print(
                f"    {row['substrate']:<11} events={row['events']:<7d} "
                f"cost/event={row['per_event_cost']:g} us  "
                f"charged={row['charged_us']:.1f} us  [{status}]"
            )
    trace = parallel.substrate_artifacts.get("tracing")
    if trace is not None:
        recorded = sum(len(stream) for stream in trace.streams)
        print(f"  trace: {recorded} event(s) recorded on {trace.n_threads} stream(s)")
    stats = parallel.substrate_artifacts.get("stats")
    if isinstance(stats, dict):
        kinds = ", ".join(
            f"{kind}={count}" for kind, count in stats["per_kind"].items() if count
        )
        print(f"  event stats: {stats['total_events']} events ({kinds})")
    validation = parallel.substrate_artifacts.get("validation")
    if isinstance(validation, dict):
        verdict = (
            "clean"
            if validation.get("clean")
            else f"{validation.get('violations')} violation(s)"
        )
        print(
            f"  online validation: {validation.get('events_checked')} "
            f"event(s) checked, {verdict}"
        )


def cmd_run(args) -> int:
    if args.app not in list_programs():
        return _unknown_kernel(args.app)
    if args.substrates:
        from repro.substrates import available_substrates

        for name in args.substrates:
            if name not in available_substrates():
                return _unknown_substrate(name)
    plan = None
    if args.fault_mode:
        from repro.faults.plan import plan_for_mode

        plan = plan_for_mode(args.fault_mode, seed=args.seed)
    budget = _memory_budget(args)
    if args.tolerate_errors:
        return _run_tolerant(args, plan)

    recorder = None
    if args.record:
        if args.no_instrument:
            print("repro: --record needs the profiler (drop --no-instrument)",
                  file=sys.stderr)
            return 2
        from repro.substrates.recorder import RecorderSubstrate

        recorder_kwargs = {"record_dir": args.record}
        if args.checkpoint_every is not None:
            recorder_kwargs["checkpoint_every"] = args.checkpoint_every
        recorder = RecorderSubstrate(**recorder_kwargs)

    # The timeline / strict-validation paths read the recorded trace.  An
    # explicit substrate list replaces the default wiring, so a run that
    # adds the tracer or the recorder starts from that wiring.
    wants_trace = args.trace_timeline or args.strict
    substrates = list(args.substrates or ())
    if (not substrates and not args.no_instrument
            and (wants_trace or recorder is not None)):
        substrates.append("profiling")
    if wants_trace and "tracing" not in substrates:
        substrates.append("tracing")
    if recorder is not None:
        substrates.append(recorder)
    overrides = {"substrates": tuple(substrates)}
    if plan is not None:
        overrides["fault_plan"] = plan
    if args.watchdog_us is not None:
        overrides["watchdog_us"] = args.watchdog_us
    if budget is not None:
        overrides["memory_budget"] = budget
    try:
        result = run_app(
            args.app,
            size=args.size,
            variant=args.variant,
            n_threads=args.threads,
            instrument=not args.no_instrument,
            seed=args.seed,
            costs=_costs_override(args),
            **overrides,
        )
        if args.strict and result.parallel.trace is not None:
            from repro.events.validate import validate_program_trace

            validate_program_trace(result.parallel.trace)
    except ReproError as exc:
        # Strict semantics: surface the precise error type and fail.
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"{result.program_label}: kernel={result.kernel_time:.1f} us, "
          f"tasks={result.parallel.completed_tasks}, "
          f"verified={result.verified}, threads={args.threads}")
    for bucket in ("work", "mgmt", "instr", "idle"):
        print(f"  {bucket:6s}: {result.bucket_total(bucket):12.1f} us")
    if args.substrates or recorder is not None:
        _print_substrate_report(result.parallel)
    if budget is not None:
        _print_governor_report(result.parallel.extra.get("governor"))
    if recorder is not None:
        chunks = recorder.writer.sealed_chunks if recorder.writer else 0
        print(f"  recorded {recorder.records} event(s) in {chunks} chunk(s) "
              f"-> {args.record}")
        if result.profile is not None:
            from repro.recorder import record_live_profile

            try:
                record_live_profile(args.record, result.profile)
            except OSError as exc:
                print(f"  recording manifest not stamped: {exc}",
                      file=sys.stderr)
    if result.profile is not None:
        print(f"  max concurrent tasks/thread: "
              f"{result.profile.max_concurrent_tasks_per_thread()}")
        if args.render:
            print()
            print(render_profile(result.profile, max_depth=args.max_depth))
        if args.json:
            dump_path(result.profile, args.json)
            print(f"  profile exported to {args.json}")
        if args.archive:
            from repro.archive import meta_for_result

            _archive_run(
                args.archive,
                result.profile,
                meta_for_result(
                    result, size=args.size, variant=args.variant,
                    tags=tuple(args.tags or ()),
                ),
            )
    elif args.archive:
        print("repro: nothing to archive (run produced no profile)",
              file=sys.stderr)
    if args.trace_timeline and result.parallel.trace is not None:
        print()
        print(render_timeline(result.parallel.trace))
        ratio = management_ratio(result.parallel.trace)
        print(f"  management/execution ratio: {ratio['ratio']:.2f}")
    return 0 if result.verified else 1


def cmd_replay(args) -> int:
    """Rebuild a profile from recorded bytes alone and show it."""
    from repro.errors import ProfileError, RecordingError
    from repro.recorder import replay_recording

    try:
        profile, stream = replay_recording(
            args.record_dir, strict=True if args.strict else None
        )
    except (RecordingError, ProfileError, OSError) as exc:
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    state = "complete" if stream.complete else "partial (no FIN record)"
    print(f"replayed {len(stream.records)} record(s) from "
          f"{stream.chunks} sealed chunk(s): stream {state}")
    for note in stream.notes:
        print(f"  note: {note}")
    if profile.salvage is not None and profile.salvage.partial:
        print(f"  {profile.salvage.summary()}")
    if args.render:
        print()
        print(render_profile(profile, max_depth=args.max_depth))
    if args.json:
        dump_path(profile, args.json)
        print(f"  profile exported to {args.json}")
    return 0


def cmd_verify(args) -> int:
    """Replay + cross-check a recording; sentinel-style exit codes."""
    from repro.errors import ArchiveError, ProfileFormatError
    from repro.recorder import verify_recording

    if args.against and not args.archive:
        print("repro: --against needs --archive DIR to resolve the run",
              file=sys.stderr)
        return 2
    expected_dict = None
    if args.against:
        from repro.archive import ArchiveStore
        from repro.cube.export import profile_to_dict

        try:
            expected_dict = profile_to_dict(
                ArchiveStore(args.archive).load_profile(args.against)
            )
        except (ArchiveError, ProfileFormatError) as exc:
            print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
    try:
        report = verify_recording(args.record_dir, expected_dict=expected_dict)
    except OSError as exc:
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2))
        return report.exit_code
    from repro.analysis.regression import replay_table

    print(replay_table(report, title=f"verify {args.record_dir}"))
    return report.exit_code


def cmd_governor(args) -> int:
    """Run one kernel under a memory budget and report the ladder walk.

    Always runs in tolerant mode: even a ``stop``-policy budget that
    fires at L4 salvages a partial profile and reports the incidents
    rather than surfacing a traceback.
    """
    from repro.faults.campaign import DEFAULT_WATCHDOG_US, run_tolerant
    from repro.governor import MemoryBudget

    if args.app not in list_programs():
        return _unknown_kernel(args.app)
    budget = MemoryBudget(
        max_live_instances=args.memory_budget, on_pressure=args.on_pressure
    )
    print(f"budget: {budget.describe()}")
    outcome = run_tolerant(
        args.app,
        size=args.size,
        n_threads=args.threads,
        seed=args.seed,
        watchdog_us=DEFAULT_WATCHDOG_US,
        variant=args.variant,
        memory_budget=budget,
    )
    verified = "n/a" if outcome.verified is None else outcome.verified
    print(f"{args.app}: status={outcome.status}, verified={verified}, "
          f"threads={args.threads}")
    if outcome.salvage is not None:
        print(f"  {outcome.salvage.summary()}")
    report = outcome.governor_report or {}
    _print_governor_report(report)
    if outcome.error:
        print(f"  run error: {outcome.error}")
    if args.json:
        atomic_write(args.json, json.dumps(report, indent=2))
        print(f"governor report written to {args.json}")
    return 0 if outcome.ok else 1


def cmd_overhead(args) -> int:
    for app in args.app:
        if app not in list_programs():
            return _unknown_kernel(app)
    sweep = overhead_sweep(
        args.app,
        size=args.size,
        variant=args.variant,
        threads=tuple(args.threads),
        seeds=tuple(args.seeds),
    )
    rows = [
        [app] + [f"{p.overhead_pct:+.1f}%" for p in points]
        for app, points in sweep.items()
    ]
    print(format_table(["code"] + [f"{t} thr" for t in args.threads], rows,
                       title=f"profiling overhead ({args.variant}, size={args.size})"))
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import generate_report

    if args.app not in list_programs():
        return _unknown_kernel(args.app)
    result = run_app(
        args.app,
        size=args.size,
        variant=args.variant,
        n_threads=args.threads,
        seed=args.seed,
        substrates=("profiling", "tracing"),
    )
    text = generate_report(result, title=f"{result.program_label}, "
                                         f"{args.threads} threads, seed {args.seed}")
    print(text)
    if args.output:
        atomic_write(args.output, text + "\n")
    return 0 if result.verified else 1


def cmd_advise(args) -> int:
    if args.app not in list_programs():
        return _unknown_kernel(args.app)
    result = run_app(
        args.app, size=args.size, variant=args.variant,
        n_threads=args.threads, seed=0,
    )
    findings = advise(result.profile)
    if not findings:
        print("no findings: task granularity looks healthy")
        return 0
    for finding in findings:
        print(finding)
    return 0


def cmd_scaling(args) -> int:
    from repro.analysis.scaling import scaling_study

    if args.app not in list_programs():
        return _unknown_kernel(args.app)
    study = scaling_study(
        args.app, size=args.size, variant=args.variant, threads=tuple(args.threads)
    )
    rows = []
    for entry in sorted(study.regions, key=lambda r: -max(r.times.values())):
        rows.append(
            [entry.region]
            + [f"{entry.times[t]:.0f}" for t in study.threads]
            + [entry.classification]
        )
    print(format_table(
        ["region"] + [f"{t} thr" for t in study.threads] + ["class"],
        rows,
        title=f"{args.app}: exclusive time per region [virtual us]",
    ))
    print()
    print(study.diagnosis())
    return 0


def cmd_diff(args) -> int:
    from repro.cube.diff import diff_profiles, summarize_diff
    from repro.cube.export import loads as load_profile

    with open(args.before) as handle:
        before = load_profile(handle.read())
    with open(args.after) as handle:
        after = load_profile(handle.read())
    entries = diff_profiles(before, after, metric=args.metric)
    print(summarize_diff(entries, limit=args.limit))
    return 0


def cmd_paper(args) -> int:
    for artifact in args.artifact:
        print(f"==== {artifact} ====")
        if artifact == "table1":
            rows = task_statistics(
                ["fib", "floorplan", "health", "nqueens", "strassen"],
                size=args.size, variant="stress", n_threads=1,
            )
            print(format_table(
                ["code", "mean [us]", "tasks"],
                [[r.code, f"{r.mean_time_us:.2f}", r.task_count] for r in rows],
            ))
        elif artifact == "table2":
            from repro.analysis.concurrency import PAPER_TABLE2_ROWS, concurrency_table

            entries = [(n, v) for n, v, _ in PAPER_TABLE2_ROWS]
            table = concurrency_table(entries, size=args.size, n_threads=4)
            print(format_table(
                ["code", "max tasks"],
                [[label, table[(n, v)]] for n, v, label in PAPER_TABLE2_ROWS],
            ))
        elif artifact == "table3":
            rows = nqueens_region_times(size=args.size)
            print(format_table(
                ["region", "1 thr", "2 thr", "4 thr", "8 thr"],
                [
                    ["task"] + [f"{r.task:.0f}" for r in rows],
                    ["taskwait"] + [f"{r.taskwait:.0f}" for r in rows],
                    ["create task"] + [f"{r.create_task:.0f}" for r in rows],
                    ["barrier"] + [f"{r.barrier:.0f}" for r in rows],
                ],
            ))
        elif artifact == "table4":
            rows = nqueens_depth_table(size=args.size)
            print(format_table(
                ["depth", "mean [us]", "sum [us]", "tasks"],
                [[r.depth, f"{r.mean_time_us:.2f}", f"{r.total_time_us:.0f}",
                  r.task_count] for r in rows],
            ))
        elif artifact in ("fig13", "fig14"):
            variant = "optimized" if artifact == "fig13" else "stress"
            apps = (
                ["alignment", "fft", "fib", "floorplan", "health", "nqueens",
                 "sort", "sparselu", "strassen"]
                if artifact == "fig13"
                else ["fib", "floorplan", "health", "nqueens", "sort", "fft", "strassen"]
            )
            sweep = overhead_sweep(apps, size=args.size, variant=variant)
            print(grouped_bar_chart(
                {app: {p.n_threads: p.overhead_pct for p in pts}
                 for app, pts in sweep.items()},
                title=f"overhead [%] ({variant})",
            ))
        elif artifact == "fig15":
            apps = ["fib", "floorplan", "health", "nqueens", "strassen"]
            scaling = {app: runtime_scaling(app, size=args.size) for app in apps}
            print(grouped_bar_chart(scaling, unit="%", title="runtime [% of max]"))
        elif artifact == "sec6":
            comparison = cutoff_speedup(size=args.size)
            print(f"no cut-off: {comparison.nocutoff_time:.0f} us, "
                  f"cut-off@{comparison.cutoff_level}: {comparison.cutoff_time:.0f} us, "
                  f"speedup {comparison.speedup:.1f}x")
        print()
    return 0


def cmd_faults(args) -> int:
    from repro.faults.campaign import (
        DEFAULT_WATCHDOG_US,
        campaign_table,
        run_campaign,
    )

    for app in args.apps:
        if app not in list_programs():
            return _unknown_kernel(app)
    unknown = [mode for mode in args.modes if mode not in FAULT_MODES]
    if unknown:
        print(
            f"repro: unknown fault mode(s) {', '.join(unknown)}; "
            f"available: {', '.join(FAULT_MODES)}",
            file=sys.stderr,
        )
        return 2
    try:
        results = run_campaign(
            apps=tuple(args.apps),
            modes=tuple(args.modes),
            seeds=tuple(args.seeds),
            size=args.size,
            n_threads=args.threads,
            watchdog_us=(
                args.watchdog_us if args.watchdog_us is not None else DEFAULT_WATCHDOG_US
            ),
        )
    except CampaignInterrupted as exc:
        # Ctrl-C: the finished cells are not lost -- print the partial
        # table and exit with the conventional 128+SIGINT status.
        print(campaign_table(exc.results))
        print(f"repro: {exc}", file=sys.stderr)
        return 130
    print(campaign_table(results))
    return 0 if all(r.ok for r in results) else 1


def cmd_archive(args) -> int:
    from repro.analysis.regression import archive_table, baseline_table
    from repro.archive import ArchiveStore, find_runs, latest_baseline
    from repro.errors import ArchiveError, ProfileFormatError

    store = ArchiveStore(args.dir)
    try:
        if args.action == "list":
            records = find_runs(
                store,
                kernel=args.kernel,
                size=args.size,
                variant=args.variant,
                n_threads=args.threads,
                tag=args.tag,
                limit=args.limit,
            )
            if not records:
                print("(no archived runs match)")
                return 0
            print(archive_table(records, title=f"archive {args.dir}"))
        elif args.action == "show":
            record = store.get_record(args.ref)
            meta = record.meta
            print(f"run:      {record.run_id}")
            print(f"sha256:   {record.sha256}")
            print(f"kernel:   {meta.kernel} size={meta.size} "
                  f"variant={meta.variant}")
            print(f"config:   threads={meta.n_threads} seed={meta.seed} "
                  f"cutoff={meta.cutoff} "
                  f"substrates={','.join(meta.substrates) or '-'}")
            print(f"cfg-hash: {meta.config_hash[:12]}")
            wall = "n/a" if meta.wall_time_us is None else f"{meta.wall_time_us:.1f} us"
            print(f"run:      wall={wall} verified={meta.verified} "
                  f"source={meta.source} tags={','.join(record.tags) or '-'}")
            # load_object always recomputes the content hash; --verify
            # makes the (otherwise silent) success explicit.  A mismatch
            # raises ArchiveError below -> exit 2.
            profile = store.load_object(record.sha256)
            if args.verify:
                print(f"verify:   object bytes re-hash to {record.sha256[:12]} "
                      f"-- intact")
            from repro.cube.query import top_regions

            print("top regions [exclusive us]:")
            for region, value in top_regions(profile, limit=5):
                print(f"  {region:<24} {value:10.1f}")
            if args.render:
                print()
                print(render_profile(profile, max_depth=args.max_depth))
        elif args.action == "gc":
            stats = store.gc(keep_last=args.keep)
            print(
                f"gc: dropped {stats.runs_dropped} run record(s), deleted "
                f"{stats.objects_deleted} object(s), freed "
                f"{stats.bytes_freed} bytes"
            )
        elif args.action == "fsck":
            from repro.analysis.regression import fsck_table
            from repro.archive import fsck

            fsck_report = fsck(store, repair=args.repair)
            if args.as_json:
                print(json.dumps(fsck_report.to_dict(), indent=2))
            else:
                print(fsck_table(fsck_report, title=f"fsck {args.dir}"))
            return 0 if not fsck_report.unrepaired else 1
        elif args.action == "tag":
            record = store.tag(args.ref, args.tag)
            print(f"{record.run_id} tags: {','.join(record.tags)}")
        elif args.action == "baseline":
            baseline = latest_baseline(
                store,
                kernel=args.kernel,
                size=args.size,
                variant=args.variant,
                n_threads=args.threads,
                tag=args.tag,
                runs=args.runs,
                min_runs=1,
            )
            print(baseline_table(baseline, metric=args.metric))
            print(f"built from runs: {', '.join(baseline.run_ids())}")
    except (ArchiveError, ProfileFormatError) as exc:
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_sentinel(args) -> int:
    from repro.analysis.regression import sentinel_table
    from repro.archive import (
        ArchiveStore,
        SentinelPolicy,
        compare_to_baseline,
        latest_baseline,
        meta_for_result,
    )
    from repro.errors import ArchiveError, ProfileFormatError

    if args.app not in list_programs():
        return _unknown_kernel(args.app)
    store = ArchiveStore(args.archive)
    try:
        baseline = latest_baseline(
            store,
            kernel=args.app,
            size=args.size,
            variant=args.variant,
            n_threads=args.threads,
            tag=args.tag,
            runs=args.runs,
            min_runs=args.min_runs,
        )
    except (ArchiveError, ProfileFormatError) as exc:
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    policy = SentinelPolicy(
        metrics={},
        fail_on_appeared=args.fail_on_appeared,
        fail_on_vanished=args.fail_on_vanished,
    )
    for metric in args.metrics or ["exclusive"]:
        policy = policy.with_thresholds(
            metric, ratio=args.ratio, zscore=args.zscore, min_abs=args.min_abs
        )

    if args.candidate:
        from repro.cube.export import loads as load_profile

        try:
            with open(args.candidate) as handle:
                profile = load_profile(handle.read())
        except (OSError, ValueError) as exc:
            print(f"repro: cannot load candidate profile: {exc}",
                  file=sys.stderr)
            return 2
        label = args.candidate
    else:
        try:
            result = run_app(
                args.app,
                size=args.size,
                variant=args.variant,
                n_threads=args.threads,
                seed=args.seed,
                costs=_costs_override(args),
            )
        except ReproError as exc:
            print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        profile = result.profile
        if profile is None:
            print("repro: candidate run produced no profile", file=sys.stderr)
            return 2
        label = f"{args.app} seed={args.seed}"
        if args.archive_candidate:
            _archive_run(
                args.archive,
                profile,
                meta_for_result(
                    result, size=args.size, variant=args.variant,
                    tags=("candidate",), source="sentinel",
                ),
            )

    report = compare_to_baseline(
        profile, baseline, policy=policy, candidate_label=label
    )
    print(
        f"candidate {label} vs baseline runs "
        f"{', '.join(report.baseline_run_ids)}"
    )
    print(sentinel_table(report, include_ok=args.include_ok))
    if args.json:
        atomic_write(args.json, json.dumps(report.to_dict(), indent=2))
        print(f"report written to {args.json}")
    return report.exit_code


def cmd_supervise(args) -> int:
    from repro.faults.campaign import DEFAULT_WATCHDOG_US
    from repro.supervisor import (
        BackoffPolicy,
        Supervisor,
        fault_grid,
        load_spec_file,
        outcome_table,
    )

    # Fault-grid cells auto-archive their (possibly salvaged) profiles
    # next to the journal, so every supervised campaign leaves a
    # queryable profile history behind (disable with --no-archive).
    archive_dir = None
    if not args.no_archive:
        archive_dir = args.archive
        journal_for_archive = args.journal or args.resume
        if archive_dir is None and journal_for_archive:
            archive_dir = journal_for_archive + ".archive"

    if args.spec_file:
        try:
            specs = load_spec_file(args.spec_file)
        except (OSError, ValueError) as exc:
            print(f"repro: cannot load spec file: {exc}", file=sys.stderr)
            return 2
    else:
        for app in args.apps:
            if app not in list_programs():
                return _unknown_kernel(app)
        unknown = [
            mode for mode in args.modes
            if mode != "none" and mode not in FAULT_MODES
        ]
        if unknown:
            print(
                f"repro: unknown fault mode(s) {', '.join(unknown)}; "
                f"available: none, {', '.join(FAULT_MODES)}",
                file=sys.stderr,
            )
            return 2
        if args.substrates:
            from repro.substrates import available_substrates

            for name in args.substrates:
                if name not in available_substrates():
                    return _unknown_substrate(name)
        specs = fault_grid(
            args.apps,
            args.modes,
            args.seeds,
            size=args.size,
            n_threads=args.threads,
            watchdog_us=(
                args.watchdog_us
                if args.watchdog_us is not None
                else DEFAULT_WATCHDOG_US
            ),
            substrates=args.substrates,
            archive_dir=archive_dir,
            record_root=args.record_dir,
        )

    breaker = None
    if args.breaker_threshold is not None:
        from repro.fabric import BreakerPolicy

        breaker = BreakerPolicy(
            threshold=args.breaker_threshold,
            max_probes=args.breaker_probes,
            probe_after=args.breaker_probe_after,
        )
    admission = None
    if args.max_pending is not None:
        from repro.fabric import AdmissionPolicy

        admission = AdmissionPolicy(
            max_pending=args.max_pending, policy=args.admission_policy
        )

    journal_path = args.journal or args.resume
    try:
        report = Supervisor(
            specs,
            jobs=args.jobs,
            timeout_s=args.timeout_s,
            retries=args.retries,
            backoff=BackoffPolicy(base_s=args.backoff_s),
            journal_path=journal_path,
            resume=args.resume is not None,
            heartbeat_s=None if args.no_heartbeat else args.heartbeat_s,
            stall_factor=args.stall_factor,
            deadline_s=args.deadline_s,
            breaker=breaker,
            admission=admission,
        ).run()
    except JournalVersionError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2

    print(outcome_table(report))
    if archive_dir and not args.spec_file:
        print(f"cell profiles archived to {archive_dir}")
    if args.summary:
        import dataclasses

        atomic_write(
            args.summary,
            json.dumps(
                {
                    "interrupted": report.interrupted,
                    "results": [dataclasses.asdict(r) for r in report.results],
                },
                indent=2,
            ),
        )
        print(f"summary written to {args.summary}")
    if report.interrupted:
        # 128 + signal number, like a shell reports it: 143 for the
        # SIGTERM drain, 130 for Ctrl-C.  Both leave a resumable journal.
        return 143 if report.terminated else 130
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# Campaign gateway verbs (repro.service)
# ----------------------------------------------------------------------
def _gateway_failure(exc: BaseException, as_json: bool) -> int:
    """Uniform failure surface for gateway verbs: stable code, exit 2."""
    from repro.errors import error_payload

    payload = error_payload(exc)
    if as_json:
        print(json.dumps({"error": payload}, indent=2))
    else:
        print(
            f"repro: {payload['code']}: {payload['message']}", file=sys.stderr
        )
    return 2


def _require_home(home: str) -> bool:
    """Read-only verbs refuse a home with no ledger instead of creating it."""
    import os

    if not os.path.exists(os.path.join(home, "ledger.jsonl")):
        print(
            f"repro: no gateway ledger at {home!r} "
            f"(`repro submit` or `repro serve` creates one)",
            file=sys.stderr,
        )
        return False
    return True


def _load_cells_file(path: str) -> List[dict]:
    """Raw run-spec dicts from a JSON list or JSONL file."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read().strip()
    if not text:
        raise ValueError(f"{path!r} is empty")
    if text.startswith("["):
        cells = json.loads(text)
    else:
        cells = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not isinstance(cells, list) or not all(
        isinstance(cell, dict) for cell in cells
    ):
        raise ValueError(
            f"{path!r} must hold a JSON list (or JSONL) of run-spec objects"
        )
    return cells


def _print_campaign(campaign: dict) -> None:
    """Human-readable single-campaign ledger record."""
    from repro.service import CampaignSpec

    spec = CampaignSpec.from_dict(campaign["spec"])
    print(f"{campaign['campaign_id']}: {campaign['state']}")
    if spec.kind == "fault":
        print(
            f"  spec: fault grid {','.join(spec.apps)} "
            f"x {','.join(spec.modes)} "
            f"x seeds {','.join(str(s) for s in spec.seeds)} "
            f"({spec.n_cells} cells)"
        )
    else:
        print(f"  spec: {spec.n_cells} explicit cells")
    print(f"  attempts: {campaign['attempts']}")
    lease = campaign.get("lease")
    if lease:
        print(f"  lease: {lease['owner']} (expires_at {lease['expires_at']:.0f})")
    if campaign.get("deadline_at") is not None:
        print(f"  deadline_at: {campaign['deadline_at']:.0f}")
    cells = campaign.get("cells")
    if cells:
        outcomes = ", ".join(
            f"{outcome}={count}"
            for outcome, count in sorted(cells.items())
            if outcome != "total"
        )
        print(f"  cells: {outcomes} (total {cells.get('total', '?')})")
    error = campaign.get("error")
    if error:
        print(f"  error: {error['code']}: {error['message']}")
    if campaign.get("idempotency_key"):
        print(f"  idempotency_key: {campaign['idempotency_key']}")


def cmd_serve(args) -> int:
    from repro.errors import ReproError
    from repro.service import Gateway

    admission = None
    if args.max_pending is not None:
        from repro.fabric import AdmissionPolicy

        admission = AdmissionPolicy(
            max_pending=args.max_pending, policy=args.admission_policy
        )
    breaker = None
    if args.breaker_threshold is not None:
        from repro.fabric import BreakerPolicy

        breaker = BreakerPolicy(threshold=args.breaker_threshold)
    try:
        gateway = Gateway(
            args.home,
            jobs=args.jobs,
            lease_ttl_s=args.lease_ttl_s,
            max_lease_attempts=args.max_lease_attempts,
            cell_timeout_s=args.cell_timeout_s,
            retries=args.retries,
            heartbeat_s=None if args.no_heartbeat else args.heartbeat_s,
            admission=admission,
            breaker=breaker,
        )
        report = gateway.serve(
            run_until_idle=args.until_idle,
            poll_s=args.poll_s,
            max_campaigns=args.max_campaigns,
            budget_s=args.budget_s,
        )
    except (ValueError, ReproError) as exc:
        return _gateway_failure(exc, args.as_json)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        recovery = report.recovery
        if recovery is not None and recovery.touched:
            print(
                f"recovery: {len(recovery.reclaimed)} lease(s) reclaimed, "
                f"{len(recovery.exhausted)} exhausted, "
                f"{len(recovery.expired)} expired"
            )
        gateway.refresh()
        states: dict = {}
        for campaign in gateway.state.campaigns.values():
            states[campaign.state] = states.get(campaign.state, 0) + 1
        summary = ", ".join(
            f"{state}={count}" for state, count in sorted(states.items())
        )
        how = (
            "drained (SIGTERM)" if report.terminated
            else "drained (interrupt)" if report.drained
            else "idle" if report.idle
            else "stopped"
        )
        print(
            f"served {report.executed} campaign(s); {how}"
            + (f"; ledger: {summary}" if summary else "")
        )
    if report.drained:
        # 128 + signal, shell-style; the drain left resumable state.
        return 143 if report.terminated else 130
    return 0


def cmd_submit(args) -> int:
    from repro.errors import ReproError
    from repro.service import CampaignSpec, Gateway, GatewayAPI

    if args.cells_file:
        try:
            cells = _load_cells_file(args.cells_file)
            # Expand once right here so a malformed cell fails this
            # submit, not the whole campaign at execution time.
            CampaignSpec(kind="cells", cells=cells).build_specs("validate")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"repro: cannot load cells file: {exc}", file=sys.stderr)
            return 2
        request: dict = {"kind": "cells", "cells": cells}
    else:
        for app in args.apps:
            if app not in list_programs():
                return _unknown_kernel(app)
        unknown = [
            mode for mode in args.modes
            if mode != "none" and mode not in FAULT_MODES
        ]
        if unknown:
            print(
                f"repro: unknown fault mode(s) {', '.join(unknown)}; "
                f"available: none, {', '.join(FAULT_MODES)}",
                file=sys.stderr,
            )
            return 2
        if args.substrates:
            from repro.substrates import available_substrates

            for name in args.substrates:
                if name not in available_substrates():
                    return _unknown_substrate(name)
        from repro.faults.campaign import DEFAULT_WATCHDOG_US

        request = {
            "kind": "fault",
            "apps": args.apps,
            "modes": args.modes,
            "seeds": args.seeds,
            "size": args.size,
            "n_threads": args.threads,
            "watchdog_us": (
                args.watchdog_us
                if args.watchdog_us is not None
                else DEFAULT_WATCHDOG_US
            ),
        }
        if args.substrates is not None:
            request["substrates"] = args.substrates
    if args.wall_timeout_s is not None:
        request["wall_timeout_s"] = args.wall_timeout_s
    if args.idempotency_key is not None:
        request["idempotency_key"] = args.idempotency_key
    if args.deadline_s is not None:
        request["deadline_s"] = args.deadline_s

    try:
        response = GatewayAPI(Gateway(args.home)).submit(request)
    except (ValueError, ReproError) as exc:
        return _gateway_failure(exc, args.as_json)
    if args.as_json:
        print(json.dumps(response, indent=2))
        return 0
    campaign = response["campaign"]
    n_cells = CampaignSpec.from_dict(campaign["spec"]).n_cells
    if response["created"]:
        line = f"{campaign['campaign_id']}: submitted ({n_cells} cells)"
        if args.deadline_s is not None:
            line += f", deadline in {args.deadline_s:g} s"
    else:
        line = (
            f"{campaign['campaign_id']}: already submitted "
            f"(idempotent match, state {campaign['state']})"
        )
    print(line)
    return 0


def cmd_status(args) -> int:
    from repro.errors import ReproError
    from repro.service import Gateway, GatewayAPI
    from repro.service.api import campaign_brief

    if not _require_home(args.home):
        return 2
    if args.cancel and args.campaign_id is None:
        print("repro: --cancel needs a campaign id", file=sys.stderr)
        return 2
    api = GatewayAPI(Gateway(args.home))
    try:
        if args.cancel:
            response = api.cancel(args.campaign_id)
        elif args.campaign_id is not None:
            response = api.status(args.campaign_id)
        else:
            response = api.status()
    except (ValueError, ReproError) as exc:
        return _gateway_failure(exc, args.as_json)
    if args.as_json:
        print(json.dumps(response, indent=2))
        return 0
    if "campaigns" in response:
        rows = [
            [
                brief["campaign_id"],
                brief["state"],
                brief["cells"],
                brief["ok"],
                brief["attempts"],
                brief["code"] or "-",
            ]
            for brief in (
                campaign_brief(campaign)
                for campaign in api.gateway.state.campaigns.values()
            )
        ]
        if not rows:
            print("no campaigns in the ledger yet")
            return 0
        print(format_table(
            ["campaign", "state", "cells", "ok", "attempts", "error"], rows
        ))
        if response["skipped_lines"]:
            print(
                f"({response['skipped_lines']} torn ledger line(s) tolerated)"
            )
        return 0
    _print_campaign(response["campaign"])
    return 0


def cmd_fetch(args) -> int:
    from repro.errors import ReproError
    from repro.service import Gateway, GatewayAPI

    if not _require_home(args.home):
        return 2
    api = GatewayAPI(Gateway(args.home))
    try:
        response = api.fetch(args.campaign_id)
    except (ValueError, ReproError) as exc:
        return _gateway_failure(exc, args.as_json)
    if args.as_json:
        print(json.dumps(response, indent=2))
        return 0
    _print_campaign(response["campaign"])
    runs = response["runs"]
    if not runs:
        print("  runs: none archived")
        return 0
    rows = [
        [
            run["run_id"],
            run["sha256"][:12],
            run["meta"].get("kernel", "?"),
            run["meta"].get("seed", "?"),
            next(
                (
                    tag.split(":", 1)[1]
                    for tag in run["meta"].get("tags", [])
                    if tag.startswith("mode:")
                ),
                "-",
            ),
        ]
        for run in runs
    ]
    print(format_table(["run", "sha256", "kernel", "seed", "mode"], rows))
    return 0


COMMANDS = {
    "list": cmd_list,
    "run": cmd_run,
    "replay": cmd_replay,
    "verify": cmd_verify,
    "governor": cmd_governor,
    "overhead": cmd_overhead,
    "report": cmd_report,
    "scaling": cmd_scaling,
    "diff": cmd_diff,
    "advise": cmd_advise,
    "paper": cmd_paper,
    "faults": cmd_faults,
    "supervise": cmd_supervise,
    "archive": cmd_archive,
    "sentinel": cmd_sentinel,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "status": cmd_status,
    "fetch": cmd_fetch,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: normal exit.
        return 0
    except KeyboardInterrupt:
        # Commands with partial state handle Ctrl-C themselves (the
        # supervisor drains its workers, `faults` prints the partial
        # table); anything else just exits with 128+SIGINT.
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
