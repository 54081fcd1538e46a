"""Run-health and fault containment for hostile (non-finite) inputs.

The paper's Byzantine adversary may send **arbitrary** vectors — which
includes ``NaN``, ``±Inf`` and overflow-scale payloads — and a sweep may
contain trials whose iterates genuinely diverge.  This module defines the
shared vocabulary both failure families speak:

* :class:`QuarantineError` — the typed refusal raised by a *strict*
  gradient-filter (one whose ``quarantines_on_nonfinite`` flag is set)
  when a stack contains non-finite rows.  It subclasses :class:`ValueError`
  so pre-existing callers keep working, and carries structured provenance
  (offending agent rows, trial indices, round, aggregator label) so an
  engine can convert the refusal into a per-trial quarantine instead of a
  crashed sweep.

* The **reason taxonomy** — :data:`AGGREGATOR_REFUSED`,
  :data:`NONFINITE_ITERATE`, :data:`DIVERGED` — the only strings that may
  appear in trace quarantine records, ``SweepReport.quarantined_cells``
  and telemetry events, so post-mortems never parse free-form text.

* :class:`TrialGuard` — the batched engines' containment state machine:
  an ``active`` mask over trials, first-reason-wins quarantine records,
  and the pre-projection candidate screen.  A frozen trial's estimate is
  *held* at its last healthy value and the trial is masked out of every
  subsequent tensor stage; surviving trials are never perturbed.

* :func:`classify_candidate` — the per-trial engines' scalar twin of the
  screen, so a batched quarantine decision is bit-identical to the
  reference engine's (same threshold, same precedence:
  non-finite beats diverged).

Detection happens on the **pre-projection** candidate
``estimate - eta * aggregate`` under the **sup-norm**: the max-|coordinate|
never overflows (unlike a Euclidean norm, whose squares overflow near
1e154), and a tripped trial is frozen *before* garbage reaches the
projection, so no ``RuntimeWarning`` storm ever starts.  The default
threshold 1e100 sits far above any legitimate trajectory yet below
``sqrt(float.max)``, so evaluating a gradient *at* the threshold still
cannot overflow.

This module is a dependency leaf (NumPy only):
both the aggregator front-doors and every engine import it without cycles,
and it is the health layer's one import path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np


__all__ = [
    "AGGREGATOR_REFUSED",
    "DIVERGED",
    "NONFINITE_ITERATE",
    "QUARANTINE_REASONS",
    "DEFAULT_DIVERGENCE_THRESHOLD",
    "OVERFLOW_LIMIT",
    "QuarantineError",
    "RunGuard",
    "TrialGuard",
    "refusal",
    "aggregation_round",
    "current_round_context",
    "classify_candidate",
    "all_moderate",
    "hostile_rows",
    "nonfinite_rows",
    "overflow_safe_norms",
    "validate_divergence_threshold",
]

#: A strict gradient-filter refused a stack containing non-finite rows.
#: The trial freezes at its *pre-update* estimate for the refusing round.
AGGREGATOR_REFUSED = "aggregator_refused"

#: The pre-projection candidate contained NaN/±Inf entries.
NONFINITE_ITERATE = "nonfinite_iterate"

#: The pre-projection candidate's sup-norm exceeded the divergence
#: threshold (all entries finite).  :data:`NONFINITE_ITERATE` takes
#: precedence when both hold.
DIVERGED = "diverged"

#: Every reason string that may appear in a quarantine record.
QUARANTINE_REASONS = (AGGREGATOR_REFUSED, NONFINITE_ITERATE, DIVERGED)

#: Sup-norm threshold above which an iterate counts as diverged.  Far
#: above any legitimate trajectory of the paper's workloads, yet below
#: ``sqrt(np.finfo(float).max) ≈ 1.3e154`` so gradients evaluated at a
#: just-under-threshold iterate cannot overflow.
DEFAULT_DIVERGENCE_THRESHOLD = 1e100

#: Magnitude above which distance-based filters treat a row as hostile:
#: squared distances involving such rows would overflow, so they are
#: ranked last / excluded instead of computed.
OVERFLOW_LIMIT = 1e100


def validate_divergence_threshold(threshold: float) -> float:
    """Coerce and validate an engine's divergence threshold."""
    value = float(threshold)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(
            f"divergence_threshold must be a positive finite float, "
            f"got {threshold!r}"
        )
    return value


# -- round context -------------------------------------------------------------
#
# Engines scope their aggregate stage with `aggregation_round(t, label)`;
# the validators read it back so a strict filter's refusal names the round
# and aggregator without threading either through every kernel signature.
# Engines are single-threaded (the recorder's documented reality), so a
# module-level slot suffices.

_ROUND: Optional[int] = None
_AGGREGATOR: Optional[str] = None


@contextmanager
def aggregation_round(
    round_index: Optional[int], aggregator: Optional[str] = None
) -> Iterator[None]:
    """Scope the ambient round/aggregator used in refusal messages."""
    global _ROUND, _AGGREGATOR
    previous = (_ROUND, _AGGREGATOR)
    _ROUND = None if round_index is None else int(round_index)
    _AGGREGATOR = aggregator
    try:
        yield
    finally:
        _ROUND, _AGGREGATOR = previous


def current_round_context() -> Tuple[Optional[int], Optional[str]]:
    """The ambient ``(round_index, aggregator_label)`` pair, if any."""
    return _ROUND, _AGGREGATOR


class QuarantineError(ValueError):
    """A strict gradient-filter refused non-finite input.

    Subclasses :class:`ValueError` so callers that guarded the old
    front-door message keep working; carries structured provenance so
    engines can quarantine the affected trial instead of crashing.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = AGGREGATOR_REFUSED,
        agent_indices: Optional[Sequence[int]] = None,
        trial_indices: Optional[Sequence[int]] = None,
        round_index: Optional[int] = None,
        aggregator: Optional[str] = None,
    ):
        if reason not in QUARANTINE_REASONS:
            raise ValueError(
                f"unknown quarantine reason {reason!r}; "
                f"expected one of {QUARANTINE_REASONS}"
            )
        super().__init__(message)
        self.reason = reason
        self.agent_indices = (
            None
            if agent_indices is None
            else tuple(int(i) for i in agent_indices)
        )
        self.trial_indices = (
            None
            if trial_indices is None
            else tuple(int(i) for i in trial_indices)
        )
        self.round_index = None if round_index is None else int(round_index)
        self.aggregator = aggregator


def refusal(
    agent_indices: Sequence[int],
    *,
    trial_indices: Optional[Sequence[int]] = None,
    what: str = "gradients",
) -> QuarantineError:
    """Build the strict front-door refusal, naming rows/round/aggregator."""
    round_index, label = current_round_context()
    agents = [int(i) for i in agent_indices]
    parts = [f"{what} contain non-finite entries from agent rows {agents}"]
    if trial_indices is not None:
        parts.append(f"in trials {[int(i) for i in trial_indices]}")
    if round_index is not None:
        parts.append(f"at round {round_index}")
    if label is not None:
        parts.append(f"(aggregator {label!r})")
    return QuarantineError(
        " ".join(parts),
        reason=AGGREGATOR_REFUSED,
        agent_indices=agents,
        trial_indices=trial_indices,
        round_index=round_index,
        aggregator=label,
    )


# -- row classification helpers ------------------------------------------------


def nonfinite_rows(arr: np.ndarray) -> np.ndarray:
    """Boolean mask over ``(..., n, d)`` marking rows with NaN/±Inf."""
    return ~np.isfinite(arr).all(axis=-1)


def hostile_rows(arr: np.ndarray, limit: float = OVERFLOW_LIMIT) -> np.ndarray:
    """Rows a distance-based filter must not square: non-finite *or* huge.

    Comparisons against NaN are silently false, so the non-finite check
    is explicit; no floating-point operation here can warn.
    """
    bad = ~np.isfinite(arr) | (np.abs(arr) > limit)
    return bad.any(axis=-1)


def all_moderate(arr: np.ndarray, limit: float = OVERFLOW_LIMIT) -> bool:
    """True when every entry is finite and within ``limit``.

    The guard the distance-based kernels branch on: when it holds they
    run their exact pre-quarantine code path bit-for-bit; otherwise they
    switch to the overflow-safe variant that ranks hostile rows last.
    """
    return bool(
        np.isfinite(arr).all()
        and np.abs(arr).max(initial=0.0) <= limit
    )


def overflow_safe_norms(
    arr: np.ndarray, limit: float = OVERFLOW_LIMIT
) -> np.ndarray:
    """Euclidean norms over the trailing axis; hostile rows rank ``+Inf``.

    Hostile rows are zeroed *before* the norm so no NaN arithmetic or
    squared-coordinate overflow ever runs; moderate rows go through the
    exact ``np.linalg.norm`` the all-finite path uses, so orderings agree
    bit-for-bit wherever both paths are defined.
    """
    hostile = hostile_rows(arr, limit)
    safe = np.where(hostile[..., None], 0.0, arr)
    norms = np.linalg.norm(safe, axis=-1)
    return np.where(hostile, np.inf, norms)


def classify_candidate(
    candidate: np.ndarray,
    threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> Optional[str]:
    """Classify one trial's pre-projection candidate.

    Returns :data:`NONFINITE_ITERATE`, :data:`DIVERGED`, or ``None`` when
    the candidate is healthy.  This is the scalar twin of
    :meth:`TrialGuard.screen` — per-trial engines use it so their
    quarantine decisions are bit-identical to the batched screen.
    """
    arr = np.asarray(candidate, dtype=float)
    if not np.isfinite(arr).all():
        return NONFINITE_ITERATE
    if arr.size and float(np.max(np.abs(arr))) > threshold:
        return DIVERGED
    return None


# -- the batched containment state machine -------------------------------------


class TrialGuard:
    """Per-trial quarantine state for the batched engines.

    Holds the ``active`` mask the hot loop intersects its fabricate /
    aggregate index groups with, the first-reason-wins quarantine
    records, and the candidate screen applied between the descent step
    and the projection.  One guard lives for one engine run (it is part
    of engine state and round-trips through ``state_dict``).
    """

    def __init__(
        self,
        n_trials: int,
        threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
    ):
        if n_trials <= 0:
            raise ValueError(f"n_trials must be positive, got {n_trials}")
        self.threshold = validate_divergence_threshold(threshold)
        self.active = np.ones(int(n_trials), dtype=bool)
        #: trial -> {"round": int, "reason": str}; first quarantine wins.
        self.records: Dict[int, Dict[str, int]] = {}

    @property
    def n_trials(self) -> int:
        return int(self.active.size)

    @property
    def frozen(self) -> np.ndarray:
        """Boolean mask of quarantined trials (complement of ``active``)."""
        return ~self.active

    @property
    def any_quarantined(self) -> bool:
        return bool(self.records)

    def live(self, idx: np.ndarray) -> np.ndarray:
        """Intersect a trial-index group with the active mask."""
        idx = np.asarray(idx)
        if idx.size == 0:
            return idx
        return idx[self.active[idx]]

    def quarantine(
        self,
        trials: Union[int, Sequence[int], np.ndarray],
        round_index: int,
        reason: str,
    ) -> List[int]:
        """Freeze ``trials`` at ``round_index``; returns the newly frozen.

        Already-frozen trials keep their original record (first reason
        wins) — a held estimate can never re-trip the screen, but the
        idempotence makes resume paths safe to replay.
        """
        if reason not in QUARANTINE_REASONS:
            raise ValueError(
                f"unknown quarantine reason {reason!r}; "
                f"expected one of {QUARANTINE_REASONS}"
            )
        fresh: List[int] = []
        for trial in np.atleast_1d(np.asarray(trials, dtype=int)):
            t = int(trial)
            if not self.active[t]:
                continue
            self.active[t] = False
            self.records[t] = {"round": int(round_index), "reason": reason}
            fresh.append(t)
        return fresh

    def screen(
        self,
        round_index: int,
        previous: np.ndarray,
        candidate: np.ndarray,
    ) -> np.ndarray:
        """Screen pre-projection candidates; return them with frozen held.

        ``previous``/``candidate`` are ``(S, ...)`` with the trial axis
        first.  Among *active* trials, candidates with non-finite entries
        quarantine as :data:`NONFINITE_ITERATE`; finite candidates whose
        sup-norm exceeds the threshold quarantine as :data:`DIVERGED`.
        The returned array equals ``candidate`` for surviving trials and
        ``previous`` for every frozen trial (old or new), so nothing
        non-finite ever reaches the projection kernels.
        """
        reduce_axes = tuple(range(1, candidate.ndim))
        finite = np.isfinite(candidate).all(axis=reduce_axes)
        nonfinite = self.active & ~finite
        if nonfinite.any():
            self.quarantine(
                np.nonzero(nonfinite)[0], round_index, NONFINITE_ITERATE
            )
        # |NaN| > t and |Inf| > t are irrelevant here: non-finite trials
        # are already frozen, and the comparison itself cannot warn.
        with np.errstate(invalid="ignore"):
            over = np.abs(candidate).max(axis=reduce_axes) > self.threshold
        diverged = self.active & finite & over
        if diverged.any():
            self.quarantine(np.nonzero(diverged)[0], round_index, DIVERGED)
        return self.hold(previous, candidate)

    def hold(self, previous: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``values`` with every frozen trial replaced by ``previous``."""
        if self.active.all():
            return values
        shape = (self.active.size,) + (1,) * (values.ndim - 1)
        return np.where(self.active.reshape(shape), values, previous)

    def summary(self) -> List[Dict[str, object]]:
        """Quarantine records as a trial-sorted list for traces/reports."""
        return [
            {
                "trial": t,
                "round": self.records[t]["round"],
                "reason": self.records[t]["reason"],
            }
            for t in sorted(self.records)
        ]

    # -- checkpoint round-trip --------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        return {
            "threshold": self.threshold,
            "active": self.active.tolist(),
            "records": {
                str(int(t)): dict(rec) for t, rec in self.records.items()
            },
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self.threshold = validate_divergence_threshold(state["threshold"])
        active = np.asarray(state["active"], dtype=bool)
        if active.shape != self.active.shape:
            raise ValueError(
                f"guard state holds {active.size} trials, engine has "
                f"{self.active.size}"
            )
        self.active = active.copy()
        self.records = {
            int(t): {"round": int(rec["round"]), "reason": str(rec["reason"])}
            for t, rec in dict(state["records"]).items()
        }


class RunGuard:
    """Single-run quarantine state — the per-trial engines' containment.

    The scalar twin of :class:`TrialGuard`: one record instead of a mask,
    the same reason taxonomy, the same first-reason-wins semantics and the
    same :func:`classify_candidate` screen, so a per-trial run quarantines
    on exactly the round and reason its batched counterpart does.
    """

    def __init__(self, threshold: float = DEFAULT_DIVERGENCE_THRESHOLD):
        self.threshold = validate_divergence_threshold(threshold)
        self.record: Optional[Dict[str, object]] = None

    @property
    def quarantined(self) -> bool:
        return self.record is not None

    @property
    def reason(self) -> Optional[str]:
        return None if self.record is None else str(self.record["reason"])

    @property
    def round_index(self) -> Optional[int]:
        return None if self.record is None else int(self.record["round"])

    def quarantine(self, round_index: int, reason: str) -> bool:
        """Freeze the run; returns ``True`` when this call froze it."""
        if reason not in QUARANTINE_REASONS:
            raise ValueError(
                f"unknown quarantine reason {reason!r}; "
                f"expected one of {QUARANTINE_REASONS}"
            )
        if self.record is not None:
            return False
        self.record = {"round": int(round_index), "reason": reason}
        return True

    def screen(self, round_index: int, candidate: np.ndarray) -> Optional[str]:
        """Screen a pre-projection candidate; quarantine + return the reason."""
        if self.record is not None:
            return str(self.record["reason"])
        reason = classify_candidate(candidate, self.threshold)
        if reason is not None:
            self.quarantine(round_index, reason)
        return reason

    def summary(self) -> Optional[Dict[str, object]]:
        """The quarantine record (``{"round", "reason"}``) or ``None``."""
        return None if self.record is None else dict(self.record)

    # -- checkpoint round-trip --------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        return {
            "threshold": self.threshold,
            "record": None if self.record is None else dict(self.record),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self.threshold = validate_divergence_threshold(state["threshold"])
        record = state.get("record")
        self.record = (
            None
            if record is None
            else {"round": int(record["round"]), "reason": str(record["reason"])}
        )
