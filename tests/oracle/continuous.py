"""The continuous-batching engine loop, one step per iteration.

``ReferenceContinuousSimulator`` is :class:`ContinuousBatchingSimulator`
with its per-core loop replaced by the original step-at-a-time loop: each
iteration re-scans the slots for prefill/restore work, due snapshots and
retirements, re-derives the KV bucket and padded batch, and asks the
fault schedule about outages, slowdowns and mid-step failures afresh.
The shipped loop batches identical decode steps and caches those
answers; every :class:`~repro.serving.continuous.ContinuousStats` it
returns must equal this one's bit for bit
(``tests/test_continuous_parity.py``).

The loop below is kept verbatim, including one known fault: after
waiting out an outage it launches at the outage's end without asking
again, so a second outage that began inside the first and outlasts it
does not stop the step. The shipped loop reproduces that.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Deque, List, Optional

from repro.serving.continuous import (ContinuousBatchingSimulator,
                                      _Accumulator, _Pending, _Slot)

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.model import FaultSchedule


class ReferenceContinuousSimulator(ContinuousBatchingSimulator):
    """Continuous batching through the step-at-a-time reference loop."""

    def _run_core(self, core: int, pending: Deque[_Pending],
                  schedule: Optional["FaultSchedule"], retry_budget: int,
                  retry_timeout: float, acc: _Accumulator,
                  migrants_out: Optional[List[_Pending]]) -> None:
        """One core's engine loop over its (possibly merged) queue."""
        active: List[_Slot] = []
        now = 0.0

        while pending or active:
            if not active and pending:
                now = max(now, pending[0].ready_s)

            if schedule is not None:
                down_until = schedule.outage_end(core, now)
                if down_until is not None:
                    if math.isinf(down_until):
                        self._lose_core(active, pending, now, retry_budget,
                                        retry_timeout, acc, migrants_out)
                        return
                    now = down_until

            # Admission: ready requests claim free slots FIFO. A
            # retried request whose re-admission would already exceed
            # the retry timeout is dropped here, never served late.
            while (pending and len(active) < self.slots
                   and pending[0].ready_s <= now):
                entry = pending.popleft()
                if (entry.retries > 0
                        and now - entry.request.arrival_s > retry_timeout):
                    acc.dropped += 1
                    continue
                active.append(_Slot(entry, min(entry.request.decode_len,
                                               self.max_decode_len)))
            if not active:
                continue  # timed-out retries only; re-check arrivals

            # Step selection: oldest slot needing a prefill or a restore
            # first; then, when checkpointing, a snapshot step for every
            # sequence whose uncovered progress reached the cadence;
            # else one decode iteration over every prefilled slot.
            waiting = [s for s in active
                       if s.prefill_t is None or s.restore_pending]
            due: List[_Slot] = []
            if waiting:
                members = [waiting[0]]
                if members[0].restore_pending:
                    phase = "restore"
                    latency = self._restore_latency_s(members[0])
                else:
                    phase = "prefill"
                    bucket = self.spec.prompt_bucket(
                        members[0].request.prompt_len)
                    latency = self.step_latency_s(phase, bucket, 1)
            else:
                if self.recovery is not None and self.recovery.checkpointing:
                    every = self.recovery.checkpoint_every
                    due = [s for s in active if s.produced - s.snap >= every]
                if due:
                    members = due
                    phase = "snapshot"
                    deepest = max(s.request.prompt_len + s.produced
                                  for s in members)
                    bucket = self.spec.kv_bucket(deepest)
                    latency = self.step_latency_s(phase, bucket, len(members))
                else:
                    members = active
                    phase = "decode"
                    deepest = max(s.request.prompt_len + s.produced
                                  for s in members)
                    bucket = self.spec.kv_bucket(deepest)
                    latency = self.step_latency_s(phase, bucket, len(members))
            if schedule is not None:
                latency *= schedule.slowdown_factor(core, now)
            completion = now + latency

            if schedule is not None:
                failure = schedule.first_failure_between(core, now, completion)
                if failure is not None:
                    # The core died mid-step. KV caches are core-resident,
                    # so EVERY active request loses its generated prefix
                    # beyond its last snapshot, not just the step's
                    # members; survivors re-enqueue (front, original
                    # arrivals) and resume or re-prefill when re-admitted.
                    fail_start, fail_end = failure
                    acc.lost_steps += 1
                    if math.isinf(fail_end):
                        # The core never comes back.
                        self._lose_core(active, pending, fail_start,
                                        retry_budget, retry_timeout, acc,
                                        migrants_out)
                        return
                    survivors: List[_Pending] = []
                    for slot in active:
                        if (slot.retries + 1 > retry_budget
                                or fail_start - slot.request.arrival_s
                                > retry_timeout):
                            acc.dropped += 1
                        else:
                            acc.retried += 1
                            survivors.append(self._requeue_entry(slot))
                    pending.extendleft(reversed(survivors))
                    active = []
                    now = fail_end
                    continue

            # Commit the step.
            now = completion
            if phase == "prefill":
                slot = members[0]
                slot.prefill_t = completion
                slot.produced = 1
                acc.prefills += 1
                acc.computed += 1
                if slot.high_water >= 1:
                    acc.recomputed += 1
            elif phase == "restore":
                slot = members[0]
                suffix = slot.produced - slot.snap
                acc.computed += suffix
                acc.recomputed += suffix
                acc.recovered += slot.snap
                acc.restores += 1
                slot.restore_pending = False
            elif phase == "snapshot":
                acc.snapshot_steps += 1
                acc.snapshots += len(members)
                for slot in members:
                    slot.snap = slot.produced
            else:
                acc.decode_steps += 1
                acc.decode_batch_sum += len(members)
                acc.computed += len(members)
                for slot in members:
                    slot.produced += 1
                    if slot.produced <= slot.high_water:
                        acc.recomputed += 1

            retiring = [s for s in active if s.produced >= s.target]
            if retiring:
                active = [s for s in active if s.produced < s.target]
                for slot in retiring:
                    acc.served += 1
                    acc.tokens += slot.target
                    acc.ttft.append(slot.prefill_t - slot.request.arrival_s)
                    if slot.target > 1:
                        acc.per_token.append(
                            (completion - slot.prefill_t)
                            / (slot.target - 1))
            acc.last_completion = max(acc.last_completion, completion)
