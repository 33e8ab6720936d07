"""Worker reuse: one process per job slot, retired on any non-completed cell.

A worker that reports ``ok``/``partial``/``degraded`` runs the next cell
of the same :meth:`Supervisor.run`; any other outcome, a crash or a stall
retires it, so the following cell gets a fresh fork.  Reuse must not be
visible in the results: a grid run through one reused worker archives the
same profiles as the same cells each run in a fresh process.
"""

import multiprocessing

import pytest

from repro.supervisor import Supervisor, call_cell, fault_grid, load_journal


def _stub(name, kwargs=None, cell_id=None, **spec_kw):
    return call_cell(
        f"repro.supervisor.stubs:{name}", kwargs, cell_id=cell_id or name,
        **spec_kw,
    )


def _journaled(specs, journal, **kwargs):
    report = Supervisor(specs, journal_path=str(journal), **kwargs).run()
    return report, load_journal(str(journal)).results


def _live_workers():
    return [p for p in multiprocessing.active_children() if p.name == "repro-worker"]


@pytest.mark.parametrize("heartbeat_s", [None, 0.05])
def test_completed_cells_share_one_worker_per_slot(tmp_path, heartbeat_s):
    specs = [_stub("pid_cell", cell_id=f"p{i}") for i in range(6)]
    report, records = _journaled(
        specs, tmp_path / "j.jsonl", jobs=2, heartbeat_s=heartbeat_s
    )
    assert [r.outcome for r in report.results] == ["ok"] * 6
    assert len({records[f"p{i}"]["pid"] for i in range(6)}) <= 2
    assert not _live_workers()  # idle workers are joined when run() ends


@pytest.mark.parametrize(
    "failing",
    [
        _stub("error_cell", cell_id="x"),
        _stub("oom_cell", cell_id="x"),
        _stub("crash_cell", cell_id="x"),
        _stub("busy_cell", cell_id="x", wall_timeout_s=1.0),
    ],
    ids=lambda spec: spec.params["target"].rpartition(":")[2],
)
def test_non_completed_outcome_retires_the_worker(tmp_path, failing):
    specs = [_stub("pid_cell", cell_id="before"), failing, _stub("pid_cell", cell_id="after")]
    report, records = _journaled(specs, tmp_path / "j.jsonl", jobs=1, retries=0)
    outcomes = [r.outcome for r in report.results]
    assert outcomes[1] not in ("ok", "partial", "degraded")
    assert outcomes[2] == "ok"
    assert records["before"]["pid"] != records["after"]["pid"]
    assert not _live_workers()


def test_stalled_worker_is_stuck_and_the_next_cell_gets_a_fresh_one(tmp_path):
    specs = [
        _stub("pid_cell", cell_id="before"),
        _stub("stalled_cell"),
        _stub("pid_cell", cell_id="after"),
    ]
    report, records = _journaled(
        specs,
        tmp_path / "j.jsonl",
        jobs=1,
        retries=0,
        timeout_s=30.0,  # far away: the stall must fire first
        heartbeat_s=0.1,
        stall_factor=3.0,
    )
    assert [r.outcome for r in report.results] == ["ok", "stuck", "ok"]
    assert records["before"]["pid"] != records["after"]["pid"]


def test_reused_worker_archives_the_same_profiles_as_fresh_forks(tmp_path):
    def grid(archive_dir):
        return fault_grid(
            ["fib", "nqueens", "sparselu"],
            ["none", "task_exception", "drop_events", "pressure"],
            [0],
            size="test",
            archive_dir=str(archive_dir),
        )

    reused_specs = grid(tmp_path / "reused")
    _, reused = _journaled(reused_specs, tmp_path / "reused.jsonl", jobs=1)

    fresh = {}
    for i, spec in enumerate(grid(tmp_path / "fresh")):
        _, records = _journaled([spec], tmp_path / f"fresh{i}.jsonl", jobs=1)
        fresh.update(records)

    cells = [spec.cell_id for spec in reused_specs]
    assert set(reused) == set(fresh) == set(cells)
    for cell in cells:
        assert reused[cell]["outcome"] == fresh[cell]["outcome"], cell
        assert reused[cell]["outcome"] in ("ok", "partial", "degraded"), cell
        assert reused[cell]["archive"]["sha256"] == fresh[cell]["archive"]["sha256"], cell
    # the grid covers every completed outcome, so reuse is exercised
    assert {reused[cell]["outcome"] for cell in cells} == {"ok", "partial", "degraded"}
