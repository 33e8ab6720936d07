"""The shared durable append log: torn tails, sealing, locking."""

import random
import sys
import threading

import pytest

from repro.ioutil import AppendLog


def _records(seed, n=3):
    rng = random.Random(seed)
    return [
        {"type": "rec", "serial": i, "payload": "x" * rng.randint(0, 40),
         "value": rng.random()}
        for i in range(n)
    ]


def test_append_writes_compact_sorted_lines(tmp_path):
    log = AppendLog(tmp_path / "sub" / "log.jsonl")
    log.append({"b": 1, "a": [1, 2]}, {"type": "x"})
    with open(log.path, encoding="utf-8") as handle:
        assert handle.read() == '{"a":[1,2],"b":1}\n{"type":"x"}\n'
    assert log.read() == ([{"a": [1, 2], "b": 1}, {"type": "x"}], 0)


def test_missing_file_reads_empty(tmp_path):
    assert AppendLog(tmp_path / "absent.jsonl").read() == ([], 0)


@pytest.mark.parametrize("seed", [0, 1])
def test_truncate_at_every_byte_then_append(tmp_path, seed):
    records = _records(seed)
    full = tmp_path / "full.jsonl"
    AppendLog(full).append(*records)
    data = full.read_bytes()
    ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    extra = {"type": "rec", "serial": 99}
    for cut in range(len(data) + 1):
        log = AppendLog(tmp_path / f"cut{cut}.jsonl")
        with open(log.path, "wb") as handle:
            handle.write(data[:cut])
        entries, skipped = log.read()
        # Every record whose JSON survived the cut (even one that lost
        # only its newline); what follows is one skipped fragment, if any.
        whole = sum(1 for end in ends if end - 1 <= cut)
        fragment_start = ends[whole - 1] if whole else 0
        assert entries == records[:whole]
        assert skipped == (1 if cut > fragment_start else 0)
        log.append(extra)
        entries, skipped_after = log.read()
        assert entries == records[:whole] + [extra]
        assert skipped_after == skipped


def test_rewrite_replaces_everything(tmp_path):
    log = AppendLog(tmp_path / "log.jsonl")
    log.append({"n": 1}, {"n": 2})
    with open(log.path, "a", encoding="utf-8") as handle:
        handle.write('{"n":')
    log.rewrite([{"n": 3}])
    assert log.read() == ([{"n": 3}], 0)


def test_lock_is_reentrant_and_serializes_threads(tmp_path):
    log = AppendLog(tmp_path / "log.jsonl")
    counter = [0]

    def worker(k):
        for i in range(25):
            with log.locked():
                seen = counter[0]
                log.append({"k": k, "i": i})  # nested: no self-deadlock
                counter[0] = seen + 1  # a lost update if the lock leaked

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    entries, skipped = log.read()
    assert counter[0] == 100
    assert skipped == 0 and len(entries) == 100


def test_bounded_lock_wait_raises_timeout(tmp_path):
    holder = AppendLog(tmp_path / "log.jsonl")
    waiter = AppendLog(tmp_path / "log.jsonl", lock_timeout_s=0.1)
    with holder.locked():
        with pytest.raises(TimeoutError):
            waiter.append({"n": 1})
    waiter.append({"n": 1})
    assert waiter.read() == ([{"n": 1}], 0)
