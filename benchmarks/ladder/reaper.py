"""Outlive everything a run starts.

A run starts more processes than it knows of: the mask-plan cache keeps
its plans in ``multiprocessing`` shared memory, and the first segment
starts a resource-tracker process, in the benchmark itself (``search_d3``,
the in-process probes) and in the server it spawns. A tracker ends only
once its parent has, so no code inside the run can wait for it, and an
``atexit`` hook of the cache can start one as late as interpreter exit.

So ``run.py`` runs the benchmark in a child of this process. This process
adopts whatever the child leaves behind (``PR_SET_CHILD_SUBREAPER``),
waits until every such process has ended, and kills what outstays its
welcome, on every path out: a clean exit, a crash, or a signal.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["INNER", "supervise", "wait_for_all"]

#: Set in the child's environment: run the benchmark, do not supervise.
INNER = "LADDER_INNER"
#: How long leftovers get to end by themselves once the child has.
GRACE_S = 5.0

_PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans() -> None:
    """Descendants whose parent ends become children of this process."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _children() -> list[int]:
    """Pids whose parent is this process, from /proc/<pid>/stat."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # ended while we looked
        # The command name may hold spaces; fields resume after its ")".
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def wait_for_all(grace_s: float) -> None:
    """Wait until this process has no child left; after ``grace_s``,
    SIGKILL those that remain (their own children then come to us)."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 0.5
        time.sleep(0.005)


def _interrupted(signum, _frame):
    raise KeyboardInterrupt(signal.Signals(signum).name)


def supervise(script: str, argv: list[str]) -> int:
    """Run ``script argv`` in a child that inherits stdout and stderr;
    return its exit code once nothing it started is left."""
    _adopt_orphans()
    signal.signal(signal.SIGTERM, _interrupted)
    child = None
    try:
        child = subprocess.Popen(
            [sys.executable, script, *argv], env={**os.environ, INNER: "1"}
        )
        code = child.wait()
        wait_for_all(GRACE_S)
    except BaseException:
        # A signal, or the child could not be started: take no result home.
        if child is not None and child.poll() is None:
            child.terminate()
        wait_for_all(1.0)
        raise
    return code if code >= 0 else 128 - code
