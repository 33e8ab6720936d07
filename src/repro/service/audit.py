"""Gateway audit: prove the ledger invariant after arbitrary crashes.

The chaos harness (:mod:`repro.faults.service`) SIGKILLs a serving
gateway at every state transition, restarts it, lets it finish, and
then calls :func:`verify_gateway` to assert the contract the whole
subsystem exists for:

* **exactly one valid state** -- every campaign replays to a legal
  state through legal edges only (the ledger records violations during
  replay; any violation is an audit failure);
* **no lost work** -- with ``require_settled=True``, no campaign is
  stranded in a non-terminal state, and an ``archived`` campaign has a
  terminal, successful journal result for every cell of its spec;
* **no duplicated work** -- no cell has more than one terminal result
  in its campaign journal (a cell that *executed* twice would have
  journaled twice; resume replays, it does not re-append), and a fault
  campaign's archived runs collapse to at most one distinct profile
  sha per cell (content-addressed dedup is the designed backstop for a
  kill landing between "cell finished" and "result journaled").

Torn trailing lines (at most one per file per kill) are the expected
residue of SIGKILL-during-append and are tolerated, counted, and
reported -- they are exactly what write-ahead + fsync bounds the damage
to.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ioutil import AppendLog
from repro.service.ledger import LedgerState, load_ledger
from repro.service.model import TERMINAL_STATES
from repro.supervisor.journal import TERMINAL_OUTCOMES


@dataclass
class GatewayAudit:
    """Everything :func:`verify_gateway` found."""

    #: invariant violations; empty means the contract held
    problems: List[str] = field(default_factory=list)
    #: campaign -> state, for reporting
    states: Dict[str, str] = field(default_factory=dict)
    #: tolerated torn/corrupt lines (ledger + journals)
    torn_lines: int = 0
    campaigns: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "campaigns": self.campaigns,
            "states": dict(self.states),
            "torn_lines": self.torn_lines,
            "problems": list(self.problems),
        }


def _journal_terminal_counts(path: str) -> Tuple[Dict[str, int], int]:
    """Per-cell count of *terminal* result records, plus torn lines.

    Counts raw records (not the folded latest-wins view) because the
    no-duplication claim is about executions that happened, not about
    the final state.
    """
    entries, torn = AppendLog(path).read()
    counts: Dict[str, int] = {}
    for entry in entries:
        if (
            entry.get("type") == "result"
            and entry.get("outcome") in TERMINAL_OUTCOMES
        ):
            cell = str(entry.get("cell"))
            counts[cell] = counts.get(cell, 0) + 1
    return counts, torn


def _audit_archive(
    audit: GatewayAudit, archive_dir: str, state: LedgerState
) -> None:
    """Per campaign + cell group, distinct archived shas must be <= 1."""
    if not os.path.isdir(archive_dir):
        return
    try:
        from repro.archive.store import ArchiveStore

        records = ArchiveStore(archive_dir).records()
    except Exception as exc:
        audit.problems.append(f"archive unreadable: {type(exc).__name__}: {exc}")
        return
    shas: Dict[Tuple[str, str, int, str], set] = {}
    for record in records:
        for tag in record.tags:
            if not tag.startswith("campaign:"):
                continue
            cid = tag.split(":", 1)[1]
            mode = next(
                (
                    t.split(":", 1)[1]
                    for t in record.tags
                    if t.startswith("mode:")
                ),
                "none",
            )
            group = (cid, record.meta.kernel, record.meta.seed, mode)
            shas.setdefault(group, set()).add(record.sha256)
    for (cid, kernel, seed, mode), hashes in sorted(shas.items()):
        if len(hashes) > 1:
            audit.problems.append(
                f"{cid}: cell ({kernel}, mode={mode}, seed={seed}) archived "
                f"{len(hashes)} distinct profiles -- duplicated execution "
                f"with divergent results"
            )


def verify_gateway(
    home: str, *, require_settled: bool = False
) -> GatewayAudit:
    """Audit one gateway home against the crash-safety contract."""
    audit = GatewayAudit()
    home = os.fspath(home)
    ledger_path = os.path.join(home, "ledger.jsonl")
    state = load_ledger(ledger_path)
    audit.torn_lines += state.skipped_lines
    audit.campaigns = len(state.campaigns)
    for violation in state.violations:
        audit.problems.append(f"ledger: {violation}")
    for cid, campaign in state.campaigns.items():
        audit.states[cid] = campaign.state
        if require_settled and campaign.state not in TERMINAL_STATES:
            audit.problems.append(
                f"{cid}: stranded in non-terminal state {campaign.state!r}"
            )
        journal_path = os.path.join(home, "journals", f"{cid}.jsonl")
        counts, torn = _journal_terminal_counts(journal_path)
        audit.torn_lines += torn
        for cell, count in sorted(counts.items()):
            if count > 1:
                audit.problems.append(
                    f"{cid}: cell {cell!r} has {count} terminal journal "
                    f"results -- work was duplicated"
                )
        if campaign.state == "archived":
            expected = {
                spec.cell_id
                for spec in campaign.spec.build_specs(cid, None)
            }
            missing = sorted(expected - set(counts))
            if missing:
                audit.problems.append(
                    f"{cid}: archived but {len(missing)} cell(s) have no "
                    f"terminal journal result: {', '.join(missing[:5])}"
                )
    _audit_archive(audit, os.path.join(home, "archive"), state)
    return audit


__all__ = ["GatewayAudit", "verify_gateway"]
