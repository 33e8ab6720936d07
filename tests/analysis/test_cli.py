"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_list_prints_all_kernels(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert "fib" in out and "sparselu" in out and "uts" in out
    assert len(out) >= 10  # the paper's nine plus registered extras


def test_run_summary_and_exit_code(capsys):
    code = main(["run", "fib", "--size", "test", "--threads", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified=True" in out
    assert "work" in out and "instr" in out


def test_run_render_and_json_export(tmp_path, capsys):
    target = tmp_path / "profile.json"
    code = main(
        [
            "run",
            "fib",
            "--size",
            "test",
            "--variant",
            "stress",
            "--render",
            "--json",
            str(target),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "main tree" in out
    data = json.loads(target.read_text())
    assert data["format"] == 1


def test_run_uninstrumented(capsys):
    code = main(["run", "sort", "--size", "test", "--no-instrument"])
    out = capsys.readouterr().out
    assert code == 0
    assert "max concurrent" not in out  # no profile without instrumentation


def test_run_trace_timeline(capsys):
    code = main(
        ["run", "fib", "--size", "test", "--variant", "stress", "--trace-timeline"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "utilization" in out
    assert "management/execution ratio" in out


def test_overhead_table(capsys):
    code = main(
        ["overhead", "fib", "--size", "test", "--variant", "stress",
         "--threads", "1,2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "1 thr" in out and "2 thr" in out and "fib" in out


def test_advise_reports_findings(capsys):
    code = main(["advise", "fib", "--size", "test", "--variant", "stress"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[critical]" in out or "[warning]" in out


@pytest.mark.parametrize("artifact", ["table1", "table3", "sec6"])
def test_paper_artifacts(capsys, artifact):
    code = main(["paper", artifact, "--size", "test"])
    out = capsys.readouterr().out
    assert code == 0
    assert artifact in out


def test_bad_threads_argument_rejected():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["overhead", "fib", "--threads", "x,y"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_scaling_command(capsys):
    code = main(["scaling", "nqueens", "--size", "test", "--threads", "1,2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "nqueens_task" in out
    assert "flat" in out


def test_unknown_kernel_exits_2_with_suggestion(capsys):
    code = main(["run", "fibb", "--size", "test"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown kernel 'fibb'" in err
    assert "did you mean fib" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "qneens", "--size", "test"],
        ["advise", "qneens", "--size", "test"],
        ["overhead", "fib", "qneens", "--size", "test"],
        ["scaling", "qneens", "--size", "test"],
        ["faults", "--apps", "qneens"],
    ],
)
def test_unknown_kernel_rejected_everywhere(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown kernel 'qneens'" in err
    assert "nqueens" in err


def test_run_tolerate_errors_salvages_faulty_run(capsys):
    code = main(
        ["run", "fib", "--size", "test", "--threads", "2",
         "--fault-mode", "drop_events", "--tolerate-errors"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "status=partial" in out
    assert "partial profile" in out


def test_run_strict_fault_reports_precise_error(capsys):
    code = main(
        ["run", "fib", "--size", "test", "--threads", "2",
         "--fault-mode", "task_exception", "--strict"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "FaultInjectionError" in err


def test_run_strict_healthy_run_passes_validation(capsys):
    code = main(["run", "fib", "--size", "test", "--threads", "2", "--strict"])
    assert code == 0
    assert "verified=True" in capsys.readouterr().out


# Stream faults are applied inside the tracing substrate only, so --strict
# must keep validating the recorded trace to see them.
@pytest.mark.parametrize(
    "mode, message",
    [
        ("drop_events",
         "event #8: exit 'create@fib_task' with no open region in instance 2"),
        ("duplicate_events",
         "event #29: task_end for instance 13 that is not active"),
        ("reorder_events",
         "event #9: timestamp 9.912500000000001 precedes 10.987499999999999 "
         "on thread 0"),
        ("clock_skew",
         "event #8: timestamp 0.0 precedes 9.462500000000002 on thread 0"),
        ("truncate_stream", "instance 2 begun but ended 0 times"),
    ],
)
def test_run_strict_rejects_stream_faults(capsys, mode, message):
    code = main(
        ["run", "fib", "--size", "test", "--threads", "2", "--seed", "0",
         "--strict", "--fault-mode", mode]
    )
    assert code == 1
    assert capsys.readouterr().err == f"repro: ValidationError: {message}\n"


def test_tolerate_and_strict_are_mutually_exclusive():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "fib", "--tolerate-errors", "--strict"])


def test_faults_campaign_smoke(capsys):
    code = main(
        ["faults", "--apps", "fib", "--modes", "drop_events,task_exception",
         "--seeds", "0", "--size", "test"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "2/2 cells degraded gracefully" in out


def test_faults_rejects_unknown_mode(capsys):
    code = main(["faults", "--modes", "cosmic_rays"])
    assert code == 2
    assert "unknown fault mode" in capsys.readouterr().err


def test_diff_command(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["run", "fib", "--size", "test", "--variant", "stress", "--json", str(a)])
    main(["run", "fib", "--size", "test", "--variant", "optimized", "--json", str(b)])
    capsys.readouterr()
    code = main(["diff", str(a), str(b), "--limit", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "->" in out
