"""The campaign ledger: the gateway's write-ahead :class:`~repro.ioutil.AppendLog`.

The gateway's single source of truth is one append-only JSONL file.
Every state change is appended *before* the action it describes takes
effect.  Unlike the per-campaign supervisor journal (single writer),
the ledger has *multiple* writers -- the serving process plus any
number of ``repro submit`` / ``repro cancel`` clients -- so every
read-decide-append sequence (idempotency lookup, lease claim) runs
inside :meth:`Ledger.locked`.  That lock is what makes a lease claim
atomic: two gateways racing for the same campaign serialize on it, and
the loser re-reads a ledger that already shows the winner's lease.

Record types::

    {"type":"meta","version":1}
    {"type":"submit","cid":ID,"spec":{...},"at":T,
     "key":...,"deadline_at":...}
    {"type":"lease","cid":ID,"owner":...,"attempt":K,
     "expires_at":T,"at":T}            # implies admitted -> leased
    {"type":"renew","cid":ID,"owner":...,"expires_at":T,"at":T}
    {"type":"transition","cid":ID,"from":S,"to":S,"at":T,
     "error":...,"cells":...,"not_before":...}

The ``lease`` record *is* the ``admitted -> leased`` edge: granting a
lease must be one atomic append (decide-and-record under one flock),
so the grant and the transition cannot be torn apart by a crash between
two records.  The ``meta`` record doubles as the schema-version header:
replaying a ledger that declares a *newer* version than this build
raises :class:`~repro.errors.LedgerVersionError` up front.  Replay
validates every edge against the domain state machine; an illegal edge
is recorded as a violation (surfaced by ``repro.service.audit``) but
still applied, because recovery must reconstruct what *happened*, not
refuse to look at it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import LedgerVersionError
from repro.ioutil import AppendLog
from repro.service.model import (
    Campaign,
    CampaignSpec,
    TERMINAL_STATES,
    VALID_TRANSITIONS,
)

LEDGER_VERSION = 1


class Ledger(AppendLog):
    """The ledger writer: :meth:`append` may be called bare or nested
    inside a :meth:`locked` read-decide-append block."""

    def ensure_header(self) -> None:
        """Write the version header iff the ledger is new/empty."""
        with self.locked():
            if not os.path.exists(self.path) or os.path.getsize(self.path) == 0:
                self.append({"type": "meta", "version": LEDGER_VERSION})


@dataclass
class LedgerState:
    """Every campaign's current state, as replayed from the ledger."""

    #: cid -> campaign, in submission order
    campaigns: Dict[str, Campaign] = field(default_factory=dict)
    #: idempotency key -> cid
    by_key: Dict[str, str] = field(default_factory=dict)
    #: unparseable lines (a crash mid-append leaves at most 1)
    skipped_lines: int = 0
    #: illegal edges / malformed records seen during replay -- applied
    #: anyway, but the audit fails on them
    violations: List[str] = field(default_factory=list)

    def get(self, campaign_id: str) -> Optional[Campaign]:
        return self.campaigns.get(campaign_id)

    def in_state(self, *states: str) -> List[Campaign]:
        wanted = frozenset(states)
        return [c for c in self.campaigns.values() if c.state in wanted]

    @property
    def open_campaigns(self) -> List[Campaign]:
        return [c for c in self.campaigns.values() if c.state not in TERMINAL_STATES]

    def next_campaign_id(self) -> str:
        serial = 0
        for cid in self.campaigns:
            if cid.startswith("c") and cid[1:].isdigit():
                serial = max(serial, int(cid[1:]))
        return f"c{serial + 1:04d}"


def _apply_transition(
    state: LedgerState, campaign: Campaign, entry: dict
) -> None:
    to_state = entry.get("to")
    from_state = entry.get("from")
    if to_state not in VALID_TRANSITIONS:
        state.violations.append(
            f"{campaign.campaign_id}: transition to unknown state {to_state!r}"
        )
        return
    if from_state != campaign.state or to_state not in VALID_TRANSITIONS.get(
        campaign.state, frozenset()
    ):
        state.violations.append(
            f"{campaign.campaign_id}: illegal edge "
            f"{campaign.state!r} -> {to_state!r} "
            f"(record claimed from={from_state!r})"
        )
    campaign.state = to_state
    campaign.updated_at = float(entry.get("at", campaign.updated_at))
    campaign.not_before = float(entry.get("not_before", 0.0))
    if entry.get("error") is not None:
        campaign.error = dict(entry["error"])
    if entry.get("cells") is not None:
        campaign.cells = dict(entry["cells"])
    # Every edge except leased -> running (the holder starting its own
    # work) ends whatever lease was outstanding.
    if to_state != "running":
        campaign.lease_owner = None
        campaign.lease_expires_at = None


def load_ledger(path: str) -> LedgerState:
    """Replay a ledger, tolerating a torn final line.

    Corruption is counted, never fatal (recovery must not refuse to
    run); the one deliberate refusal is a header from a newer schema,
    which raises :class:`~repro.errors.LedgerVersionError` rather than
    guessing at record types this build predates.
    """
    entries, skipped = AppendLog(path).read()
    state = LedgerState(skipped_lines=skipped)
    for entry in entries:
        kind = entry.get("type")
        if kind == "meta":
            version = entry.get("version")
            if not isinstance(version, int) or version > LEDGER_VERSION:
                raise LedgerVersionError(version, LEDGER_VERSION)
        elif kind == "submit":
            cid = entry.get("cid")
            if not cid:
                state.violations.append("submit record without cid")
                continue
            try:
                spec = CampaignSpec.from_dict(entry.get("spec") or {})
            except (ValueError, TypeError) as exc:
                state.violations.append(f"{cid}: bad spec in submit ({exc})")
                continue
            if cid in state.campaigns:
                state.violations.append(f"{cid}: duplicate submit record")
                continue
            campaign = Campaign(
                campaign_id=cid,
                spec=spec,
                state="submitted",
                idempotency_key=entry.get("key"),
                submitted_at=float(entry.get("at", 0.0)),
                updated_at=float(entry.get("at", 0.0)),
                deadline_at=entry.get("deadline_at"),
            )
            state.campaigns[cid] = campaign
            if campaign.idempotency_key:
                state.by_key[campaign.idempotency_key] = cid
        elif kind in ("lease", "renew", "transition"):
            cid = entry.get("cid")
            campaign = state.campaigns.get(cid)
            if campaign is None:
                state.violations.append(
                    f"{kind} record for unknown campaign {cid!r}"
                )
                continue
            if kind == "lease":
                if campaign.state != "admitted":
                    state.violations.append(
                        f"{cid}: lease granted in state {campaign.state!r}"
                    )
                campaign.state = "leased"
                campaign.lease_owner = entry.get("owner")
                campaign.lease_expires_at = entry.get("expires_at")
                campaign.attempts = max(
                    campaign.attempts, int(entry.get("attempt", 0))
                )
                campaign.updated_at = float(
                    entry.get("at", campaign.updated_at)
                )
            elif kind == "renew":
                if campaign.state not in ("leased", "running"):
                    state.violations.append(
                        f"{cid}: lease renewed in state {campaign.state!r}"
                    )
                else:
                    campaign.lease_expires_at = entry.get(
                        "expires_at", campaign.lease_expires_at
                    )
            else:
                _apply_transition(state, campaign, entry)
        # Unknown record types within a known version are skipped
        # silently: the format only ever gains types minor-compatibly.
    return state


__all__ = ["LEDGER_VERSION", "Ledger", "LedgerState", "load_ledger"]
