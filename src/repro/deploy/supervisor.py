"""Process supervision for deployment topologies.

The supervisor owns real OS processes: it spawns them, waits for their
readiness line (servers announce ``DEPLOY-READY <host> <port>`` only
once their listener is accepting, which is how an ephemeral port
round-trips to the parent without a race), health-checks them, restarts
crashed ones with their original command line, and tears the whole
deployment down SIGTERM-first with a bounded grace period before
escalating to SIGKILL.

Every line a child writes is retained (ring-buffered) so a storm report
can show *why* a process died, not just that it did.
"""

from __future__ import annotations

import random
import re
import signal
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "ManagedProcess",
    "ProcessSupervisor",
    "ProcessDied",
    "RestartPolicy",
    "RestartBudgetExhausted",
]

#: Output lines retained per child for diagnostics.
_LOG_LINES = 400


class ProcessDied(RuntimeError):
    """A supervised process exited before reaching readiness."""

    def __init__(self, name: str, returncode: int | None, tail: list[str]):
        detail = "\n".join(tail[-12:])
        super().__init__(
            f"process {name!r} died (returncode={returncode}) before "
            f"readiness; output tail:\n{detail}"
        )
        self.name = name
        self.returncode = returncode


class RestartBudgetExhausted(RuntimeError):
    """A child crashed more times than its restart budget allows.

    The supervisor refuses the relaunch: a process dying this often is
    not a transient crash, and restarting it forever would hide the
    failure from the operator (and from a storm's gates).
    """

    def __init__(self, name: str, restarts: int, budget: int):
        super().__init__(
            f"process {name!r} exhausted its restart budget "
            f"({restarts} restarts, budget {budget}); refusing to relaunch"
        )
        self.name = name
        self.restarts = restarts
        self.budget = budget


@dataclass(frozen=True)
class RestartPolicy:
    """Crash-restart policy: exponential backoff with jitter, bounded budget.

    The backoff for restart number *n* (1-based) is
    ``base * 2**(n-1)`` capped at ``cap``, plus a jitter drawn uniformly
    from ``[0, jitter_fraction * delay]``. Jitter comes from a seeded
    PRNG so a storm's restart timeline is reproducible run-to-run while
    still de-synchronising replicas that crash together.
    """

    max_restarts: int = 5
    backoff_base_seconds: float = 0.05
    backoff_cap_seconds: float = 2.0
    jitter_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.backoff_base_seconds < 0 or self.backoff_cap_seconds < 0:
            raise ValueError("backoff seconds must be non-negative")
        if not 0 <= self.jitter_fraction <= 1:
            raise ValueError("jitter_fraction must be in [0, 1]")

    def delay_for(self, restart_number: int, rng: random.Random) -> float:
        """Backoff before restart ``restart_number`` (1 = first restart)."""
        if restart_number < 1:
            raise ValueError("restart_number is 1-based")
        delay = min(
            self.backoff_base_seconds * (2 ** (restart_number - 1)),
            self.backoff_cap_seconds,
        )
        return delay + delay * self.jitter_fraction * rng.random()


@dataclass
class ManagedProcess:
    """One supervised child and everything needed to resurrect it."""

    name: str
    argv: list[str]
    env: dict[str, str] | None
    ready_regex: str | None
    popen: subprocess.Popen = field(repr=False)
    output: deque[str] = field(default_factory=lambda: deque(maxlen=_LOG_LINES))
    ready_event: threading.Event = field(default_factory=threading.Event)
    ready_match: re.Match | None = None
    restarts: int = 0

    @property
    def alive(self) -> bool:
        return self.popen.poll() is None

    @property
    def returncode(self) -> int | None:
        return self.popen.poll()

    def tail(self, lines: int = 12) -> list[str]:
        return list(self.output)[-lines:]


class ProcessSupervisor:
    """Spawns, readiness-gates, restarts, and tears down child processes."""

    def __init__(
        self,
        grace_seconds: float = 10.0,
        restart_policy: RestartPolicy | None = None,
        sleep=time.sleep,
    ):
        #: SIGTERM-to-SIGKILL escalation window at teardown.
        self.grace_seconds = grace_seconds
        #: Backoff/budget applied to every :meth:`restart`; None = the
        #: pre-policy behaviour (immediate relaunch, unbounded budget).
        self.restart_policy = restart_policy
        self._rng = random.Random(
            restart_policy.seed if restart_policy is not None else 0
        )
        self._sleep = sleep
        self._processes: dict[str, ManagedProcess] = {}
        self._lock = threading.Lock()
        #: Restarts performed across all children (storm-report fodder).
        self.restarts_total = 0
        #: Backoff actually slept across all restarts, seconds.
        self.backoff_seconds_total = 0.0

    # -- lifecycle ---------------------------------------------------------

    def spawn(
        self,
        name: str,
        argv: list[str],
        env: dict[str, str] | None = None,
        ready_regex: str | None = None,
        ready_timeout: float = 60.0,
    ) -> ManagedProcess:
        """Start a child; if ``ready_regex`` is given, block until a line
        of its output matches (or raise :class:`ProcessDied`)."""
        with self._lock:
            if name in self._processes and self._processes[name].alive:
                raise ValueError(f"process {name!r} is already running")
        managed = self._launch(name, argv, env, ready_regex)
        with self._lock:
            self._processes[name] = managed
        if ready_regex is not None:
            self._await_ready(managed, ready_timeout)
        return managed

    def restart(self, name: str, ready_timeout: float = 60.0) -> ManagedProcess:
        """Kill (if needed) and relaunch a child with its original argv.

        Under a :class:`RestartPolicy` the relaunch is budgeted and
        backed off: restart number *n* of this child first checks the
        budget (raising :class:`RestartBudgetExhausted` once spent),
        then sleeps the policy's jittered exponential delay.
        """
        with self._lock:
            old = self._processes[name]
        restart_number = old.restarts + 1
        if self.restart_policy is not None:
            if restart_number > self.restart_policy.max_restarts:
                raise RestartBudgetExhausted(
                    name, old.restarts, self.restart_policy.max_restarts
                )
            delay = self.restart_policy.delay_for(restart_number, self._rng)
            if delay > 0:
                self._sleep(delay)
            with self._lock:
                self.backoff_seconds_total += delay
        if old.alive:
            self._terminate(old)
        managed = self._launch(old.name, old.argv, old.env, old.ready_regex)
        managed.restarts = restart_number
        with self._lock:
            self._processes[name] = managed
            self.restarts_total += 1
        if managed.ready_regex is not None:
            self._await_ready(managed, ready_timeout)
        return managed

    def kill(self, name: str) -> int | None:
        """SIGKILL a child — the deployment storm's ``kill -9`` primitive.

        No grace, no flush: whatever the child had not made durable is
        gone, which is exactly the failure the WAL exists to survive.
        Returns the reaped returncode (negative signal number).
        """
        with self._lock:
            managed = self._processes[name]
        try:
            managed.popen.kill()
        except OSError:
            pass
        try:
            code = managed.popen.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            code = None
        self._drain_reader(managed)
        return code

    def revive_dead(self, ready_timeout: float = 60.0) -> list[str]:
        """Auto-restart sweep: relaunch every child that exited.

        The crash-restart policy's detection half — callers run it after
        a health check (or on a timer) and every unexpectedly-dead child
        is restarted under the policy's backoff/budget. Returns the
        names restarted, in spawn order.
        """
        with self._lock:
            dead = [
                name
                for name, managed in self._processes.items()
                if not managed.alive
            ]
        revived = []
        for name in dead:
            self.restart(name, ready_timeout=ready_timeout)
            revived.append(name)
        return revived

    def health_check(self) -> dict[str, bool]:
        """name -> alive for every supervised process."""
        with self._lock:
            return {name: p.alive for name, p in self._processes.items()}

    def ensure_alive(self, *names: str) -> None:
        """Raise :class:`ProcessDied` if any named child has exited."""
        with self._lock:
            targets = [
                self._processes[n] for n in (names or self._processes)
            ]
        for managed in targets:
            if not managed.alive:
                raise ProcessDied(
                    managed.name, managed.returncode, list(managed.output)
                )

    def wait(self, name: str, timeout: float | None = None) -> int:
        """Block until a child exits; returns its code."""
        managed = self._processes[name]
        code = managed.popen.wait(timeout=timeout)
        self._drain_reader(managed)
        return code

    def teardown(self) -> dict[str, int | None]:
        """SIGTERM everything, grace-wait, SIGKILL stragglers.

        Returns name -> returncode (None only if even SIGKILL failed to
        reap within a final second, which indicates a kernel-level hang).
        """
        with self._lock:
            processes = list(self._processes.values())
        for managed in processes:
            if managed.alive:
                try:
                    managed.popen.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.monotonic() + self.grace_seconds
        codes: dict[str, int | None] = {}
        for managed in processes:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                codes[managed.name] = managed.popen.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                try:
                    managed.popen.kill()
                except OSError:
                    pass
                try:
                    codes[managed.name] = managed.popen.wait(timeout=1.0)
                except subprocess.TimeoutExpired:
                    codes[managed.name] = None
            self._drain_reader(managed)
        return codes

    def output_of(self, name: str) -> list[str]:
        return list(self._processes[name].output)

    def __enter__(self) -> "ProcessSupervisor":
        return self

    def __exit__(self, *_exc) -> None:
        self.teardown()

    # -- internals ---------------------------------------------------------

    def _launch(
        self,
        name: str,
        argv: list[str],
        env: dict[str, str] | None,
        ready_regex: str | None,
    ) -> ManagedProcess:
        popen = subprocess.Popen(
            argv,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            bufsize=1,
        )
        managed = ManagedProcess(
            name=name,
            argv=list(argv),
            env=env,
            ready_regex=ready_regex,
            popen=popen,
        )
        pattern = re.compile(ready_regex) if ready_regex else None
        reader = threading.Thread(
            target=self._read_output,
            args=(managed, pattern),
            name=f"supervise-{name}",
            daemon=True,
        )
        reader.start()
        managed._reader = reader  # type: ignore[attr-defined]
        return managed

    @staticmethod
    def _read_output(
        managed: ManagedProcess, pattern: re.Pattern | None
    ) -> None:
        stream = managed.popen.stdout
        assert stream is not None
        for line in stream:
            line = line.rstrip("\n")
            managed.output.append(line)
            if pattern is not None and not managed.ready_event.is_set():
                match = pattern.search(line)
                if match:
                    managed.ready_match = match
                    managed.ready_event.set()
        # EOF: the child closed stdout (usually: exited). Unblock any
        # readiness waiter so it can inspect the corpse.
        managed.ready_event.set()

    def _await_ready(self, managed: ManagedProcess, timeout: float) -> None:
        if not managed.ready_event.wait(timeout=timeout):
            self._terminate(managed)
            raise ProcessDied(
                managed.name, managed.returncode, list(managed.output)
            )
        if managed.ready_match is None:
            # The event fired on EOF, not on the ready line.
            managed.popen.wait(timeout=5.0)
            raise ProcessDied(
                managed.name, managed.returncode, list(managed.output)
            )

    def _terminate(self, managed: ManagedProcess) -> None:
        try:
            managed.popen.send_signal(signal.SIGTERM)
            managed.popen.wait(timeout=self.grace_seconds)
        except (OSError, subprocess.TimeoutExpired):
            try:
                managed.popen.kill()
                managed.popen.wait(timeout=1.0)
            except (OSError, subprocess.TimeoutExpired):
                pass
        self._drain_reader(managed)

    @staticmethod
    def _drain_reader(managed: ManagedProcess) -> None:
        reader = getattr(managed, "_reader", None)
        if reader is not None:
            reader.join(timeout=2.0)
