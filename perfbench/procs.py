"""Process-tree helpers over ``/proc``: summed RSS of the driver and its Ray
worker processes, and waiting for every descendant to end."""

from __future__ import annotations

import os
import signal
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat(pid: int) -> tuple[str, int] | None:
    """(state, ppid) of ``pid``, or None if it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            rest = f.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return None
    return rest[0], int(rest[1])


def descendants(root: int) -> list[int]:
    """Live descendants of ``root`` (any depth)."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st and st[0] != "Z":
                children.setdefault(st[1], []).append(int(name))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    st = _stat(pid)
    return st is not None and st[0] != "Z"


def _reap(pids: list[int]) -> None:
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass


def wait_gone(pids: list[int], timeout_s: float = 20.0) -> None:
    """Wait for ``pids`` to end; SIGKILL what is left after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while True:
        _reap(pids)
        left = [p for p in pids if _alive(p)]
        if not left:
            return
        if time.monotonic() > deadline:
            break
        time.sleep(0.05)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    while any(_alive(p) for p in left) and time.monotonic() < deadline:
        _reap(left)
        time.sleep(0.05)


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE
    except (FileNotFoundError, ProcessLookupError):
        return 0


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().startswith(b"ray::")
    except (FileNotFoundError, ProcessLookupError):
        return False


class RssSampler:
    """Peak summed RSS of this process and its Ray worker processes
    (``ray::`` process titles) between ``start`` and ``stop``."""

    def __init__(self, interval_s: float = 0.05, refresh_s: float = 0.5) -> None:
        self.interval_s = interval_s
        self.refresh_s = refresh_s
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.peak = 0

    def _pids(self) -> list[int]:
        me = os.getpid()
        return [me] + [p for p in descendants(me) if _is_ray_worker(p)]

    def _run(self) -> None:
        pids, refreshed = self._pids(), time.monotonic()
        while True:
            self.peak = max(self.peak, sum(_rss_bytes(p) for p in pids))
            if self._stop.wait(self.interval_s):
                return
            if time.monotonic() - refreshed > self.refresh_s:
                pids, refreshed = self._pids(), time.monotonic()

    def start(self) -> None:
        self.peak = 0
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def stop(self) -> float:
        """Stop sampling; returns the peak in MB."""
        self._stop.set()
        self._thread.join(timeout=5.0)
        return self.peak / 1e6

