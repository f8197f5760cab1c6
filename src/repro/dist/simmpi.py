"""Simulated MPI communicator.

mpi4py is not available in this environment (and benchmarking 4096
real ranks on one core would be meaningless anyway), so the
distributed layer runs all ranks **sequentially in-process** against a
:class:`SimComm` that implements the two collectives MemXCT needs —
``Alltoallv`` (sparse both-domain exchange, paper Section 3.4.1) and
``Allreduce`` (what the compute-centric domain-duplication approach
must do instead).  Data movement is numerically exact — identical to a
real MPI run — and every byte is logged so the communication matrices
(paper Fig. 7) and cost models are driven by real traffic.

Resilience
----------
A :class:`~repro.resilience.FaultInjector` can be attached (explicitly
or ambiently through ``REPRO_FAULTS`` / ``REPRO_FAULT_SEED``), in
which case both collectives run a **reliable transport**: every remote
message carries a CRC-32 checksum, dropped or corrupted messages are
detected and re-sent with exponential backoff, and a simulated rank
crash surfaces as :class:`~repro.resilience.RankCrashError` so the
partitioned operator can redistribute the dead rank's subdomains
(graceful degradation).  The :class:`CommLog` keeps recording
*logical* traffic — retry overhead is reported separately through the
``fault.*`` obs counters, so cost models and the Fig. 7 communication
matrices are unchanged by chaos testing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import (
    COMM_BYTES,
    COMM_MESSAGES,
    FAULT_RECOVERIES,
    REGISTRY,
    add_count,
    span,
)
from ..resilience.faults import (
    CommDeliveryError,
    FaultConfig,
    FaultInjector,
    RankCrashError,
    payload_crc,
)

__all__ = ["CommLog", "SimComm"]


@dataclass
class CommLog:
    """Accumulated traffic of a simulated communicator.

    ``volume_bytes[p, q]`` is the total payload rank ``p`` sent to rank
    ``q``; ``message_counts[p, q]`` the number of nonempty messages.
    Self-sends (``p == q``) are local copies and logged separately so
    cost models can exclude them.  Both matrices record *logical*
    traffic: a message that needed three delivery attempts under fault
    injection is still one message.
    """

    size: int
    volume_bytes: np.ndarray | None = None
    message_counts: np.ndarray | None = None
    collective_calls: int = 0

    def __post_init__(self) -> None:
        if self.volume_bytes is None:
            self.volume_bytes = np.zeros((self.size, self.size), dtype=np.int64)
        if self.message_counts is None:
            self.message_counts = np.zeros((self.size, self.size), dtype=np.int64)

    def off_diagonal_volume(self) -> int:
        """Total bytes that actually crossed the (simulated) network."""
        return int(self.volume_bytes.sum() - np.trace(self.volume_bytes))

    def partners_per_rank(self) -> np.ndarray:
        """Distinct remote peers each rank exchanged data with."""
        remote = self.message_counts.copy()
        np.fill_diagonal(remote, 0)
        return ((remote + remote.T) > 0).sum(axis=1)

    def send_bytes_per_rank(self) -> np.ndarray:
        """Outgoing remote bytes per rank (paper Fig. 7(e))."""
        remote = self.volume_bytes.copy()
        np.fill_diagonal(remote, 0)
        return remote.sum(axis=1)

    def recv_bytes_per_rank(self) -> np.ndarray:
        """Incoming remote bytes per rank (paper Fig. 7(e))."""
        remote = self.volume_bytes.copy()
        np.fill_diagonal(remote, 0)
        return remote.sum(axis=0)


class SimComm:
    """A P-rank communicator executed sequentially in one process.

    ``fault_injector`` enables the reliable-transport path; when
    omitted, the ambient ``REPRO_FAULTS`` environment spec (if any)
    supplies one, so unmodified callers can run under chaos.
    """

    def __init__(self, size: int, fault_injector: FaultInjector | None = None):
        if size <= 0:
            raise ValueError(f"communicator size must be positive, got {size}")
        self.size = size
        self.log = CommLog(size)
        if fault_injector is None:
            env_config = FaultConfig.from_env()
            if env_config is not None:
                fault_injector = FaultInjector(env_config)
        self.fault_injector = fault_injector

    def reset_log(self) -> None:
        """Zero the traffic counters (e.g. between forward and back passes)."""
        self.log = CommLog(self.size)

    def alltoallv(self, send: list[list[np.ndarray]]) -> list[list[np.ndarray]]:
        """Sparse all-to-all of numpy arrays.

        ``send[p][q]`` is the array rank ``p`` sends to rank ``q``
        (possibly empty).  Returns ``recv`` with ``recv[q][p] ==
        send[p][q]``.  Arrays are not copied — sequential simulated
        ranks may alias safely because each rank's compute phase
        finishes before the exchange.

        With a fault injector attached, delivery is checksum-verified
        and retried; raises :class:`RankCrashError` when a scheduled
        rank crash fires, :class:`CommDeliveryError` when a message
        exceeds the retry budget.
        """
        if len(send) != self.size or any(len(row) != self.size for row in send):
            raise ValueError(f"send matrix must be {self.size} x {self.size}")
        if not REGISTRY.active:
            return self._alltoallv_exchange(send)
        with span("comm.alltoallv", ranks=self.size):
            recv = self._alltoallv_exchange(send)
        return recv

    def _alltoallv_exchange(
        self, send: list[list[np.ndarray]]
    ) -> list[list[np.ndarray]]:
        self.log.collective_calls += 1
        remote_bytes = 0
        remote_messages = 0
        for p in range(self.size):
            for q in range(self.size):
                buf = send[p][q]
                nbytes = int(np.asarray(buf).nbytes)
                if nbytes:
                    self.log.volume_bytes[p, q] += nbytes
                    self.log.message_counts[p, q] += 1
                    if p != q:
                        remote_bytes += nbytes
                        remote_messages += 1
        add_count(COMM_BYTES, remote_bytes)
        add_count(COMM_MESSAGES, remote_messages)
        # An injector with nothing configured (all probabilities zero,
        # no crash schedule) takes the plain path: the armed-but-idle
        # configuration must not pay the per-message delivery loop.
        if self._faulty:
            self._deliver(
                [(p, q, send[p][q]) for p in range(self.size)
                 for q in range(self.size) if p != q]
            )
        return [[send[p][q] for p in range(self.size)] for q in range(self.size)]

    def allreduce_sum(self, contributions: list[np.ndarray]) -> np.ndarray:
        """Sum-reduction of one equal-shaped array per rank.

        Models the compute-centric approach's ``MPI_Allreduce`` over
        duplicated tomogram domains; traffic is logged with the
        recursive-halving volume ``2 * (P-1)/P * bytes`` per rank.
        """
        if len(contributions) != self.size:
            raise ValueError(f"expected {self.size} contributions")
        shapes = {np.asarray(c).shape for c in contributions}
        if len(shapes) != 1:
            raise ValueError(f"contributions must share a shape, got {shapes}")
        if not REGISTRY.active:
            return self._allreduce_exchange(contributions)
        with span("comm.allreduce", ranks=self.size):
            total = self._allreduce_exchange(contributions)
        return total

    def _allreduce_exchange(self, contributions: list[np.ndarray]) -> np.ndarray:
        self.log.collective_calls += 1
        if self._faulty:
            # Each rank's contribution travels to its ring neighbour.
            self._deliver(
                [(p, (p + 1) % self.size, c) for p, c in enumerate(contributions)]
            )
        total = np.zeros_like(np.asarray(contributions[0], dtype=np.float64))
        for c in contributions:
            total += np.asarray(c, dtype=np.float64)
        per_rank_bytes = int(
            2 * (self.size - 1) / self.size * np.asarray(contributions[0]).nbytes
        )
        remote_bytes = 0
        remote_messages = 0
        for p in range(self.size):
            q = (p + 1) % self.size  # ring-neighbour attribution for logging
            if p != q:
                self.log.volume_bytes[p, q] += per_rank_bytes
                self.log.message_counts[p, q] += 1
                remote_bytes += per_rank_bytes
                remote_messages += 1
        add_count(COMM_BYTES, remote_bytes)
        add_count(COMM_MESSAGES, remote_messages)
        return total

    @property
    def _faulty(self) -> bool:
        return self.fault_injector is not None and self.fault_injector.config.any_faults

    def _deliver(self, messages: list[tuple[int, int, np.ndarray]]) -> None:
        """Checksum-verified, retried delivery of ``(sender, receiver,
        payload)`` messages under the attached fault injector.

        Payloads are never altered — a retry re-sends the original — so
        delivery only decides whether the collective completes: it
        raises :class:`RankCrashError` when a scheduled crash fires and
        :class:`CommDeliveryError` when a message exhausts the retry
        budget.  Each round draws one outcome per pending message, in
        list order, so a seeded injector replays identical faults.
        """
        inj = self.fault_injector
        inj.begin_collective()
        dead = inj.dead_ranks()
        if dead:
            raise RankCrashError(dead)
        pending = messages
        attempt = 0
        healed = 0
        while pending:
            failed = []
            for message in pending:
                sender, receiver, payload = message
                outcome = inj.draw(sender, receiver)
                if outcome == "drop":
                    failed.append(message)
                    continue
                if outcome == "corrupt":
                    # The wire frame carries the sender-side CRC; the
                    # receiver verifies it and rejects the mangled copy.
                    delivered = inj.corrupt_payload(payload)
                    if payload_crc(delivered) != payload_crc(payload):
                        failed.append(message)
                        continue
                elif outcome == "delay":
                    inj.stats.backoff_seconds += inj.config.backoff_base
                if attempt > 0:
                    healed += 1
            if not failed:
                break
            if attempt >= inj.config.max_retries:
                raise CommDeliveryError(
                    f"{len(failed)} message(s) undeliverable after "
                    f"{attempt + 1} attempts (e.g. rank {failed[0][0]} -> "
                    f"{failed[0][1]})"
                )
            inj.charge_backoff(attempt, len(failed))
            pending = failed
            attempt += 1
        if healed:
            inj.record_recovery(healed)
            add_count(FAULT_RECOVERIES, healed)
