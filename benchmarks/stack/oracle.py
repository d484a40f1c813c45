"""The benchmark's correctness oracle: one function decides whether an
operation's receiver traces are right, one tally counts the verdicts.

Every workload routes every operation through :func:`judge`, and every run
ends with :func:`self_test`, which corrupts one sample of a trace the oracle
just accepted and requires the same path to count it as failed — so a
``failed_share`` of 0 means "checked and equal", never "not checked".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["Tally", "traces_match", "judge", "self_test"]


@dataclass
class Tally:
    """Operations attempted and operations that failed (raised, did not
    complete, or produced traces that differ from the reference)."""

    attempted: int = 0
    failed: int = 0

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def traces_match(
    rec: Optional[np.ndarray],
    exact_ref: np.ndarray,
    close_ref: Optional[np.ndarray] = None,
) -> bool:
    """True iff *rec* is bit-identical to *exact_ref* (the naive schedule on
    the same problem in the same sparse mode) and, when *close_ref* is given
    (the naive schedule with raw off-grid operators), also within
    ``rtol=1e-4, atol=1e-5 * max|close_ref|`` of it — the second comparison
    checks the precomputation itself, which bit-identity between two
    precomputed runs cannot."""
    if rec is None or rec.dtype != exact_ref.dtype or not np.array_equal(rec, exact_ref):
        return False
    if close_ref is None:
        return True
    atol = 1e-5 * float(np.max(np.abs(close_ref)))
    return bool(np.allclose(rec, close_ref, rtol=1e-4, atol=atol))


def judge(
    tally: Tally,
    rec: Optional[np.ndarray],
    exact_ref: np.ndarray,
    close_ref: Optional[np.ndarray] = None,
) -> bool:
    """Count one operation in *tally*; returns whether it passed."""
    ok = traces_match(rec, exact_ref, close_ref)
    tally.attempted += 1
    tally.failed += not ok
    return ok


def self_test(good: np.ndarray, exact_ref: np.ndarray, close_ref=None) -> None:
    """Flip the lowest mantissa bit of one sample of an accepted trace and
    require :func:`judge` to count the corrupted operation as failed."""
    probe = Tally()
    if not judge(probe, good, exact_ref, close_ref):
        raise AssertionError("oracle self-test needs a trace the oracle accepts")
    bad = good.copy()
    flat = bad.reshape(-1).view(np.uint32 if bad.dtype.itemsize == 4 else np.uint64)
    flat[flat.size // 2] ^= 1
    judge(probe, bad, exact_ref, close_ref)
    if (probe.attempted, probe.failed) != (2, 1):
        raise AssertionError(
            "oracle self-test: a trace with one flipped bit was not counted as "
            f"failed (attempted={probe.attempted}, failed={probe.failed})"
        )
