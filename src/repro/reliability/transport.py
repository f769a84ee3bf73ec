"""Fault-injecting wrapper over the in-process transport.

``FaultyTransport`` sits between an endpoint and an
:class:`~repro.net.transport.InProcessTransport` and applies the fault
stream of a :class:`~repro.reliability.faults.MessageFaultInjector` to
every message:

* **drop** — the sender waits out the link's timeout (charged to the
  virtual clock) and sees :class:`~repro.net.errors.MessageDropped`;
* **corrupt** — one bit of the delivered frame flips (the CRC framing
  in :mod:`repro.net.messages` turns this into a clean
  :class:`~repro.net.errors.MessageCorrupted` at parse time);
* **duplicate** — the frame is delivered twice, costing double;
* **reorder** — the frame arrives late by half an RTT (hold-back);
* **latency-spike** — a one-off queueing delay.

All costs are charged to the same virtual clock as normal traffic, so
end-to-end latency reports stay honest and deterministic.
"""

from __future__ import annotations

from repro.net.errors import MessageDropped
from repro.net.transport import InProcessTransport
from repro.reliability.faults import MessageFaultInjector

__all__ = ["FaultyTransport"]


class FaultyTransport:
    """An InProcessTransport with an injected failure personality."""

    def __init__(self, inner: InProcessTransport, injector: MessageFaultInjector):
        self.inner = inner
        self.injector = injector
        #: (message_index_on_this_link, label, fault_kind) as applied.
        self.fault_log: list[tuple[int, str, str]] = []
        self.messages_sent = 0

    # -- delegated accounting --------------------------------------------

    @property
    def latency(self):
        return self.inner.latency

    @property
    def elapsed_seconds(self) -> float:
        return self.inner.elapsed_seconds

    @property
    def messages_delivered(self) -> int:
        return self.inner.messages_delivered

    @property
    def bytes_delivered(self) -> int:
        return self.inner.bytes_delivered

    @property
    def log(self):
        return self.inner.log

    def reset(self) -> None:
        """Zero the underlying clock and both logs."""
        self.inner.reset()
        self.fault_log.clear()
        self.messages_sent = 0

    def charge(self, label: str, seconds: float) -> None:
        """Charge arbitrary wait time to the virtual clock."""
        self.inner.charge(label, seconds)

    def charge_puf_read(self) -> None:
        """Account for the client's USB PUF read."""
        self.inner.charge_puf_read()

    # -- faulted delivery -------------------------------------------------

    def deliver(self, label: str, payload: bytes) -> bytes:
        """Deliver one message, applying at most one injected fault."""
        index = self.messages_sent
        self.messages_sent += 1
        fault = self.injector.next(label)
        if fault is not None:
            self.fault_log.append((index, label, fault))

        if fault == "drop":
            waited = self.latency.timeout_seconds
            self.inner.charge(f"{label}:timeout", waited)
            raise MessageDropped(label, waited)
        if fault == "latency-spike":
            self.inner.charge(
                f"{label}:latency-spike", self.injector.spec.latency_spike_seconds
            )
        if fault == "reorder":
            # Held back behind newer traffic: arrives half an RTT late.
            self.inner.charge(f"{label}:reorder", self.latency.round_trip_seconds / 2)

        delivered = self.inner.deliver(label, payload)
        if fault == "duplicate":
            self.inner.deliver(f"{label}:duplicate", payload)
        if fault == "corrupt":
            return self.injector.corrupt(delivered)
        return delivered
