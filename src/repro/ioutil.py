"""Crash-safe filesystem helpers.

Every artifact the package writes to disk -- exported profiles, reports,
supervisor summaries -- goes through :func:`atomic_write`, so an
interrupted process (Ctrl-C, SIGKILL, power loss) can never leave a
truncated or half-written file where a previous good one stood: the new
content is staged in a temporary file in the *same directory* (same
filesystem, so the rename is atomic) and moved into place with
``os.replace`` only after it has been flushed and fsync'd.

Every write-ahead log -- the supervisor journal, the gateway ledger, the
archive index -- is an :class:`AppendLog`, which owns the one
durable-append policy they share.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import Iterable, Iterator, List, Optional, Tuple, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None


def fsync_directory(directory: Union[str, os.PathLike]) -> None:
    """Flush a directory entry so a completed rename survives a crash.

    Best-effort: some filesystems (and all of Windows) refuse to fsync a
    directory handle; that only weakens durability, not atomicity.
    """
    try:
        fd = os.open(os.fspath(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(
    path: Union[str, os.PathLike],
    data: Union[str, bytes],
    *,
    encoding: str = "utf-8",
    durable: bool = True,
) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    Readers never observe a partial file: they see either the previous
    content or the complete new content.  On any failure the temporary
    file is removed and the original file is left untouched.

    ``durable=True`` additionally fsyncs the file (and its directory)
    before/after the rename so the write survives power loss, not just
    process death.
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(target) + ".", suffix=".tmp"
    )
    try:
        mode = "wb" if isinstance(data, bytes) else "w"
        kwargs = {} if isinstance(data, bytes) else {"encoding": encoding}
        with os.fdopen(fd, mode, **kwargs) as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if durable:
        fsync_directory(directory)


class AppendLog:
    """A durable, append-only JSONL file with any number of writers.

    * :meth:`locked` holds an advisory ``flock`` on a sidecar lock file
      (``<path>.lock`` unless ``lock_path`` names another).  It is
      re-entrant within a thread and serializes the threads of one
      process (flock on two fds of one file would deadlock there), so
      read-decide-append sequences can nest appends inside it.  With
      ``lock_timeout_s`` the wait is bounded and raises ``TimeoutError``;
      without it, it blocks.  Where ``fcntl`` is missing only the thread
      lock is held.
    * :meth:`append` writes one compact, key-sorted JSON line per entry
      and fsyncs before returning (write-ahead).  A non-empty file that
      does not end in a newline has a torn tail -- a writer died
      mid-append -- so it is *sealed* with a newline first: the fragment
      stays one skipped line instead of swallowing the next record.
    * :meth:`read` replays every parseable line and counts the rest;
      corruption is never fatal.
    * :meth:`rewrite` replaces the whole log atomically, for compaction.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        *,
        lock_path: Optional[Union[str, os.PathLike]] = None,
        lock_timeout_s: Optional[float] = None,
    ):
        self.path = os.fspath(path)
        self.lock_path = (
            self.path + ".lock" if lock_path is None else os.fspath(lock_path)
        )
        self.lock_timeout_s = lock_timeout_s
        self._tlock = threading.RLock()
        self._depth = 0
        self._lock_fd = -1

    @contextmanager
    def locked(self) -> Iterator[None]:
        """Hold the log's lock for a read-decide-append sequence."""
        timeout = self.lock_timeout_s
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._tlock.acquire(timeout=-1 if timeout is None else timeout):
            raise self._timeout_error()
        try:
            if self._depth == 0:
                self._lock_fd = self._flock(deadline)
            self._depth += 1
            try:
                yield
            finally:
                self._depth -= 1
                if self._depth == 0:
                    fd, self._lock_fd = self._lock_fd, -1
                    if fcntl is not None:
                        fcntl.flock(fd, fcntl.LOCK_UN)
                    os.close(fd)
        finally:
            self._tlock.release()

    def _flock(self, deadline: Optional[float]) -> int:
        fd = _open_creating_dir(self.lock_path, os.O_RDWR | os.O_CREAT)
        if fcntl is None:  # pragma: no cover - non-POSIX
            return fd
        try:
            if deadline is None:
                fcntl.flock(fd, fcntl.LOCK_EX)
                return fd
            # Bounded wait: poll a non-blocking flock until the deadline.
            # EWOULDBLOCK is the only retryable errno; anything else is a
            # real filesystem failure.
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    return fd
                except (BlockingIOError, PermissionError):
                    if time.monotonic() >= deadline:
                        raise self._timeout_error() from None
                    time.sleep(min(0.01, self.lock_timeout_s / 20.0))
        except BaseException:
            os.close(fd)
            raise

    def _timeout_error(self) -> TimeoutError:
        return TimeoutError(
            f"could not acquire {self.lock_path!r} within "
            f"{self.lock_timeout_s:g} s"
        )

    def append(self, *entries: dict) -> None:
        """Durably append ``entries``: sealed tail, one write, fsync."""
        data = "".join(_jsonl(entry) for entry in entries).encode("utf-8")
        with self.locked():
            fd = _open_creating_dir(
                self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT
            )
            try:
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    data = b"\n" + data
                while data:
                    data = data[os.write(fd, data):]
                os.fsync(fd)
            finally:
                os.close(fd)
            if not size:  # the append created the file: persist its entry
                fsync_directory(os.path.dirname(self.path) or ".")

    def read(self) -> Tuple[List[dict], int]:
        """Every parseable entry in file order, plus the skipped-line count.

        A missing file reads as empty.  A line that is not one JSON
        object -- a torn tail, a foreign write -- is counted and skipped.
        """
        entries: List[dict] = []
        skipped = 0
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return entries, skipped
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    entry = None
                if isinstance(entry, dict):
                    entries.append(entry)
                else:
                    skipped += 1
        return entries, skipped

    def rewrite(self, entries: Iterable[dict]) -> None:
        """Atomically replace the whole log with ``entries``."""
        with self.locked():
            atomic_write(self.path, "".join(_jsonl(entry) for entry in entries))


def _open_creating_dir(path: str, flags: int) -> int:
    try:
        return os.open(path, flags, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        return os.open(path, flags, 0o666)


def _jsonl(entry: dict) -> str:
    return json.dumps(entry, separators=(",", ":"), sort_keys=True) + "\n"
