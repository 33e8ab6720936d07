"""CLI surface of the governor: `repro run --memory-budget` and
`repro governor`."""

import json
from itertools import takewhile

from repro.cli import main


def test_run_with_memory_budget_reports_ladder(capsys):
    code = main(
        ["run", "fib", "--size", "test", "--threads", "2",
         "--memory-budget", "4"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "governor: degradation level L3" in out
    assert "L1 eager-release" in out
    assert "L2 aggregates-only" in out
    assert "L3 stub-only" in out


def test_run_tolerant_with_budget_and_json(tmp_path, capsys):
    profile = tmp_path / "profile.json"
    code = main(
        ["run", "fib", "--size", "test", "--threads", "2",
         "--memory-budget", "4", "--tolerate-errors",
         "--json", str(profile)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "pressure incident(s)" in out
    data = json.loads(profile.read_text())
    assert data["salvage"]["degraded"] is True
    assert len(data["salvage"]["pressure_incidents"]) == 3


def test_run_without_budget_prints_no_governor_lines(capsys):
    assert main(["run", "fib", "--size", "test", "--threads", "2"]) == 0
    assert "governor" not in capsys.readouterr().out


def test_budgeted_run_reports_only_the_consuming_substrates(capsys):
    code = main(
        ["run", "fib", "--size", "test", "--threads", "2",
         "--memory-budget", "4", "--substrate", "profiling", "--substrate", "stats"]
    )
    out = capsys.readouterr().out
    assert code == 0
    after = out.split("  substrates:\n", 1)[1].splitlines()
    rows = takewhile(lambda line: line.startswith("    "), after)
    assert [row.split()[0] for row in rows] == ["profiling", "stats"]
    # the governor still reports, through its own line
    assert "governor: degradation level L3" in out


def test_governor_is_not_a_substrate_name(capsys):
    assert main(
        ["run", "fib", "--size", "test", "--threads", "2", "--substrate", "governor"]
    ) == 2
    err = capsys.readouterr().err
    assert "unknown substrate 'governor'" in err
    assert "available: profiling, recorder, stats, tracing, validation" in err


def test_governor_subcommand_writes_json_report(tmp_path, capsys):
    report_path = tmp_path / "gov.json"
    code = main(
        ["governor", "fib", "--memory-budget", "4",
         "--json", str(report_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "budget: memory budget: live_instances<=4" in out
    assert "governor: degradation level L3" in out
    report = json.loads(report_path.read_text())
    assert report["level"] == 3
    assert [i["level"] for i in report["incidents"]] == [1, 2, 3]
    assert report["budget"]["max_live_instances"] == 4


def test_governor_subcommand_stop_policy(capsys):
    code = main(
        ["governor", "fib", "--memory-budget", "2", "--on-pressure", "stop"]
    )
    out = capsys.readouterr().out
    assert code == 0  # salvaged: tolerant semantics
    assert "L4 stop" in out
    assert "MemoryPressureStop" in out


def test_governor_subcommand_unknown_kernel(capsys):
    assert main(["governor", "nope", "--memory-budget", "4"]) == 2
    assert "unknown kernel" in capsys.readouterr().err


def test_run_archives_degraded_run_with_tag(tmp_path, capsys):
    arch = tmp_path / "arch"
    code = main(
        ["run", "fib", "--size", "test", "--threads", "2",
         "--memory-budget", "4", "--tolerate-errors",
         "--archive", str(arch)]
    )
    assert code == 0
    assert "archived as" in capsys.readouterr().out
    from repro.archive import ArchiveStore

    (record,) = ArchiveStore(arch).records()
    assert "degraded" in record.tags
