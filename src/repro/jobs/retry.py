"""Retry policy: exponential backoff with deterministic seeded jitter.

The delay before attempt ``n`` (n >= 1, i.e. the first *retry*) is::

    min(max_delay, base * factor**(n-1)) * (1 + jitter * u_n)

where ``u_n`` is drawn from the job's own substream —
``split_seed(batch_seed, job_index, RETRY_SALT)`` — so a given
``(batch_seed, job_index)`` always produces the same backoff schedule, no
matter which worker slot the job lands on or how the rest of the batch is
scheduled.  Jitter decorrelates retries across jobs (no thundering herd
after a correlated fault) without sacrificing replayability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..runtime.faults import split_seed

__all__ = ["RetryPolicy", "RETRY_SALT"]

#: spawn-key salt separating the backoff substream from the fault substream
RETRY_SALT = 0x5E77


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff parameters (seconds)."""

    base: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self):
        if self.base < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.factor < 1.0:
            raise ValueError("factor must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")

    def rng_for(self, batch_seed: int, job_index: int) -> np.random.Generator:
        """The job's private jitter stream (order-independent, see
        :func:`repro.runtime.faults.split_seed`)."""
        return np.random.default_rng(split_seed(batch_seed, job_index, RETRY_SALT))

    def delay(
        self,
        attempt: int,
        rng: np.random.Generator,
        budget: Optional[float] = None,
        outcome: Optional[str] = None,
    ) -> float:
        """Backoff before retry *attempt* (>= 1), consuming one jitter draw.

        *outcome* is the failed attempt's classification: ``"sdc"``
        (silently corrupted state detected by the ABFT guard) retries at the
        flat base delay instead of escalating exponentially — corruption is
        environmental, not evidence the job itself misbehaves, so punishing
        it with growing backoff only delays an attempt that is expected to
        succeed.  The jitter draw is consumed identically either way, so
        the per-job backoff stream stays aligned across outcome mixes.

        *budget* is the job's remaining deadline allowance in seconds: the
        returned delay is capped at it (floor 0), so a job never sleeps
        past the point where its next attempt is guaranteed to exceed its
        deadline — backoff must not convert a recoverable fault into a
        timeout.  The jitter draw is consumed *before* capping, so the
        deterministic per-job backoff stream stays aligned whether or not a
        deadline intervened.
        """
        if attempt < 1:
            raise ValueError("attempt must be >= 1 (the first retry)")
        if outcome == "sdc":
            raw = self.base
        else:
            raw = min(self.max_delay, self.base * self.factor ** (attempt - 1))
        delay = raw * (1.0 + self.jitter * float(rng.random()))
        if budget is not None:
            delay = min(delay, max(0.0, float(budget)))
        return delay

    def schedule(self, batch_seed: int, job_index: int, retries: int) -> List[float]:
        """The first *retries* backoff delays of job *job_index* — exactly
        what the pool will sleep, reproducible from the batch seed alone."""
        rng = self.rng_for(batch_seed, job_index)
        return [self.delay(n, rng) for n in range(1, retries + 1)]
