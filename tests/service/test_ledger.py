"""Write-ahead ledger: replay, torn lines, versioning, violations."""

import json

import pytest

from repro.errors import LedgerVersionError
from repro.service import LEDGER_VERSION, Ledger, load_ledger
from repro.service.model import CampaignSpec


def spec_dict():
    return CampaignSpec(kind="fault", apps=("fib",), seeds=(0,)).to_dict()


def make_ledger(tmp_path):
    ledger = Ledger(str(tmp_path / "ledger.jsonl"))
    ledger.ensure_header()
    return ledger


def submit(ledger, cid, **extra):
    record = {"type": "submit", "cid": cid, "spec": spec_dict(), "at": 1.0}
    record.update(extra)
    ledger.append(record)


class TestReplay:
    def test_roundtrip(self, tmp_path):
        ledger = make_ledger(tmp_path)
        submit(ledger, "c0001", key="k1", deadline_at=100.0)
        state = load_ledger(ledger.path)
        campaign = state.get("c0001")
        assert campaign is not None
        assert campaign.state == "submitted"
        assert campaign.idempotency_key == "k1"
        assert campaign.deadline_at == 100.0
        assert state.by_key["k1"] == "c0001"

    def test_transitions_apply_in_order(self, tmp_path):
        ledger = make_ledger(tmp_path)
        submit(ledger, "c0001")
        ledger.append({"type": "transition", "cid": "c0001",
                       "from": "submitted", "to": "admitted", "at": 2.0})
        ledger.append({"type": "lease", "cid": "c0001", "owner": "me",
                       "attempt": 1, "expires_at": 60.0, "at": 3.0})
        state = load_ledger(ledger.path)
        campaign = state.get("c0001")
        assert campaign.state == "leased"
        assert campaign.attempts == 1
        assert campaign.lease_owner == "me"
        assert not state.violations

    def test_lease_survives_running_transition(self, tmp_path):
        # leased -> running is the holder starting its own work: the
        # lease must NOT be cleared by that edge.
        ledger = make_ledger(tmp_path)
        submit(ledger, "c0001")
        ledger.append({"type": "transition", "cid": "c0001",
                       "from": "submitted", "to": "admitted", "at": 2.0})
        ledger.append({"type": "lease", "cid": "c0001", "owner": "me",
                       "attempt": 1, "expires_at": 60.0, "at": 3.0})
        ledger.append({"type": "transition", "cid": "c0001",
                       "from": "leased", "to": "running", "at": 4.0})
        campaign = load_ledger(ledger.path).get("c0001")
        assert campaign.state == "running"
        assert campaign.lease_owner == "me"

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        ledger = make_ledger(tmp_path)
        submit(ledger, "c0001")
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "transition", "cid": "c00')  # SIGKILL here
        state = load_ledger(ledger.path)
        assert state.skipped_lines == 1
        assert state.get("c0001").state == "submitted"
        # The next writer appends after the tear without gluing onto it.
        submit(ledger, "c0002")
        state = load_ledger(ledger.path)
        assert state.skipped_lines == 1
        assert state.get("c0002").state == "submitted"

    def test_illegal_edge_is_recorded_as_violation(self, tmp_path):
        ledger = make_ledger(tmp_path)
        submit(ledger, "c0001")
        ledger.append({"type": "transition", "cid": "c0001",
                       "from": "submitted", "to": "running", "at": 2.0})
        state = load_ledger(ledger.path)
        # Applied (recovery reconstructs what happened) but flagged.
        assert state.get("c0001").state == "running"
        assert state.violations

    def test_missing_file_is_empty_state(self, tmp_path):
        state = load_ledger(str(tmp_path / "absent.jsonl"))
        assert not state.campaigns
        assert state.next_campaign_id() == "c0001"


class TestVersioning:
    def test_newer_ledger_is_refused(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps(
            {"type": "meta", "version": LEDGER_VERSION + 1}) + "\n")
        with pytest.raises(LedgerVersionError) as excinfo:
            load_ledger(str(path))
        assert excinfo.value.code == "E_LEDGER_VERSION"

    def test_header_written_once(self, tmp_path):
        ledger = make_ledger(tmp_path)
        ledger.ensure_header()  # idempotent
        with open(ledger.path, encoding="utf-8") as handle:
            lines = handle.readlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["version"] == LEDGER_VERSION


class TestCampaignIds:
    def test_ids_are_monotone_over_gaps(self, tmp_path):
        ledger = make_ledger(tmp_path)
        submit(ledger, "c0001")
        submit(ledger, "c0007")
        state = load_ledger(ledger.path)
        assert state.next_campaign_id() == "c0008"
