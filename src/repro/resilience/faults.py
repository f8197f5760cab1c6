"""Deterministic fault injection for the simulated communicator.

At the 4096-node scale MemXCT targets, message loss, payload
corruption, link congestion, and node failure are routine events, not
exceptions.  This module provides a *seeded, reproducible* model of
those events so the distributed layer's recovery policies can be
exercised (and regression-tested) on a laptop:

* **drop** — a point-to-point message inside a collective never
  arrives and must be re-sent;
* **corrupt** — a message arrives with flipped bits; the receive-side
  CRC-32 verify catches it and requests re-delivery;
* **delay** — a message arrives late; the transport charges simulated
  backoff time but the payload is intact;
* **crash** — a rank dies at a scheduled collective call; the
  partitioned operator redistributes its subdomains to the survivors
  (graceful degradation) and the solve continues.

Faults are drawn from a :class:`numpy.random.Generator` seeded by the
config, so a given ``(spec, seed)`` pair replays the exact same fault
sequence — chaos tests are deterministic.

Specs are compact strings for CLI/env use::

    drop=0.05,corrupt=0.02,delay=0.01,crash=1@3,seed=42,retries=10

``crash=RANK@CALL`` kills ``RANK`` at the ``CALL``-th collective on the
communicator (1-based).  ``REPRO_FAULTS`` (spec) and
``REPRO_FAULT_SEED`` (default seed) activate injection ambiently so an
unmodified test suite can run under chaos.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from ..obs import (
    FAULT_CORRUPTIONS,
    FAULT_CRASHES,
    FAULT_DELAYS,
    FAULT_DROPS,
    FAULT_RETRIES,
    add_count,
)
from ..persist import raw_buffer

__all__ = [
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "RankCrashError",
    "CommDeliveryError",
    "parse_fault_spec",
    "payload_crc",
]


class RankCrashError(RuntimeError):
    """A simulated rank died; the collective cannot complete as-is."""

    def __init__(self, ranks):
        self.ranks = sorted(int(r) for r in ranks)
        super().__init__(f"simulated rank crash: {self.ranks}")


class CommDeliveryError(RuntimeError):
    """A message could not be delivered within the retry budget."""


@dataclass(frozen=True)
class FaultConfig:
    """Probabilities and schedule of the injected faults.

    ``drop`` / ``corrupt`` / ``delay`` are per-message probabilities in
    ``[0, 1)``; ``crashes`` maps a collective-call index (1-based) to
    the rank that dies there.  ``max_retries`` bounds the reliable
    transport's re-delivery attempts per message; ``backoff_base`` is
    the simulated first-retry latency (doubled per attempt).
    """

    drop: float = 0.0
    corrupt: float = 0.0
    delay: float = 0.0
    crashes: tuple[tuple[int, int], ...] = ()  # (call_index, rank)
    seed: int = 0
    max_retries: int = 10
    backoff_base: float = 1e-3

    def __post_init__(self) -> None:
        for name in ("drop", "corrupt", "delay"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"fault probability {name}={p} must be in [0, 1)")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    @property
    def any_faults(self) -> bool:
        return bool(self.drop or self.corrupt or self.delay or self.crashes)

    @classmethod
    def parse(cls, spec: str, default_seed: int | None = None) -> "FaultConfig":
        """Build a config from a ``key=value,...`` spec string."""
        return parse_fault_spec(spec, default_seed=default_seed)

    @classmethod
    def from_env(cls) -> "FaultConfig | None":
        """Ambient config from ``REPRO_FAULTS`` / ``REPRO_FAULT_SEED``.

        Returns ``None`` when ``REPRO_FAULTS`` is unset or empty, so
        normal runs pay nothing.
        """
        spec = os.environ.get("REPRO_FAULTS", "").strip()
        if not spec:
            return None
        env_seed = os.environ.get("REPRO_FAULT_SEED")
        return parse_fault_spec(
            spec, default_seed=int(env_seed) if env_seed else None
        )


def parse_fault_spec(spec: str, default_seed: int | None = None) -> FaultConfig:
    """Parse ``drop=0.05,corrupt=0.02,crash=1@3,seed=42`` into a config."""
    kwargs: dict = {}
    crashes: list[tuple[int, int]] = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(
                f"bad fault spec item {item!r}: expected key=value "
                "(e.g. drop=0.05 or crash=1@3)"
            )
        key, _, value = item.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key in ("drop", "corrupt", "delay"):
            kwargs[key] = float(value)
        elif key == "crash":
            rank_s, sep, call_s = value.partition("@")
            rank = int(rank_s)
            call = int(call_s) if sep else 1
            if call < 1:
                raise ValueError(f"crash call index must be >= 1, got {call}")
            crashes.append((call, rank))
        elif key == "seed":
            kwargs["seed"] = int(value)
        elif key in ("retries", "max_retries"):
            kwargs["max_retries"] = int(value)
        elif key in ("backoff", "backoff_base"):
            kwargs["backoff_base"] = float(value)
        else:
            raise ValueError(
                f"unknown fault spec key {key!r}; expected one of "
                "drop/corrupt/delay/crash/seed/retries/backoff"
            )
    if "seed" not in kwargs and default_seed is not None:
        kwargs["seed"] = default_seed
    return FaultConfig(crashes=tuple(sorted(crashes)), **kwargs)


@dataclass
class FaultStats:
    """Running totals of what the injector did and what was healed."""

    drops: int = 0
    corruptions: int = 0
    delays: int = 0
    crashes: int = 0
    retries: int = 0
    recoveries: int = 0
    backoff_seconds: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


class FaultInjector:
    """Draws per-message faults and tracks crashed ranks.

    One injector is attached to one (logical) communicator; its RNG
    stream advances deterministically with the sequence of collectives
    executed, so identical runs replay identical faults.  The injector
    survives graceful degradation: after a crash is absorbed the same
    instance (same RNG position, same schedule) drives the rebuilt
    communicator.
    """

    def __init__(self, config: FaultConfig):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.stats = FaultStats()
        self.call_index = 0  # collectives started, 1-based after begin
        self._dead: set[int] = set()

    # -- crash schedule -------------------------------------------------

    def begin_collective(self) -> None:
        """Advance the collective clock; fire scheduled crashes."""
        self.call_index += 1
        for call, rank in self.config.crashes:
            if call == self.call_index and rank not in self._dead:
                self._dead.add(rank)
                self.stats.crashes += 1
                add_count(FAULT_CRASHES, 1)

    def dead_ranks(self) -> set[int]:
        return set(self._dead)

    def consume_crashes(self) -> set[int]:
        """Hand the dead set to the degradation path and clear it.

        After the partitioned operator redistributes a dead rank's
        subdomains, the survivors renumber — the old rank ids are
        meaningless, so the set is reset.
        """
        dead, self._dead = self._dead, set()
        return dead

    def record_recovery(self, n: int = 1) -> None:
        self.stats.recoveries += n

    # -- per-message faults ---------------------------------------------

    def draw(self, sender: int, receiver: int) -> str:
        """Fault outcome for one message: ok/drop/corrupt/delay.

        Local copies (``sender == receiver``) never fault — they are
        memcpys, not network traffic.
        """
        if sender == receiver:
            return "ok"
        cfg = self.config
        if not (cfg.drop or cfg.corrupt or cfg.delay):
            return "ok"
        u = float(self.rng.random())
        if u < cfg.drop:
            self.stats.drops += 1
            add_count(FAULT_DROPS, 1)
            return "drop"
        if u < cfg.drop + cfg.corrupt:
            self.stats.corruptions += 1
            add_count(FAULT_CORRUPTIONS, 1)
            return "corrupt"
        if u < cfg.drop + cfg.corrupt + cfg.delay:
            self.stats.delays += 1
            add_count(FAULT_DELAYS, 1)
            return "delay"
        return "ok"

    def corrupt_payload(self, payload: np.ndarray) -> np.ndarray:
        """A copy of ``payload`` with one byte flipped (never a no-op)."""
        arr = np.asarray(payload)
        if arr.nbytes == 0:
            return arr
        corrupted = arr.copy()
        view = corrupted.view(np.uint8).reshape(-1)
        offset = int(self.rng.integers(view.shape[0]))
        flip = int(self.rng.integers(1, 256))  # nonzero => guaranteed change
        view[offset] ^= flip
        return corrupted

    def charge_backoff(self, attempt: int, messages: int) -> None:
        """Account simulated exponential-backoff latency for a retry round."""
        self.stats.retries += messages
        self.stats.backoff_seconds += self.config.backoff_base * (2**attempt)
        add_count(FAULT_RETRIES, messages)


def payload_crc(payload: np.ndarray) -> int:
    """CRC-32 of a message payload (what the wire format would carry)."""
    return zlib.crc32(raw_buffer(payload)) & 0xFFFFFFFF
