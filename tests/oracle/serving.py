"""The single-simulator serving event loop, one request at a time.

``ReferenceServingSimulator`` is :class:`~repro.serving.server.
ServingSimulator` with its ``_replay`` hook replaced by the original
discrete-event loop: each iteration absorbs arrivals one comparison at
a time, asks the fault schedule about outages, slowdowns and mid-batch
failures afresh, and re-slices the queue. The shipped kernel
(:func:`repro.serving.fastserve.replay_serving`) replays the same
timeline at batch granularity; every :class:`~repro.serving.server.
ServingStats` and tracer span it produces must equal this loop's bit
for bit (``tests/test_fastserve.py``, ``tests/test_pod.py``).
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import UNIT_BUCKETS, metrics
from repro.serving.server import ServingSimulator, ServingStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.model import FaultSchedule
    from repro.obs.tracer import SpanTracer


class ReferenceServingSimulator(ServingSimulator):
    """Serving through the per-request reference event loop."""

    def _replay(self, arrivals: list[float],
                schedule: Optional["FaultSchedule"],
                retry_budget: int, retry_timeout: float,
                tracer: Optional["SpanTracer"]) -> ServingStats:
        """One request at a time through the dynamic batcher."""
        servers = [(0.0, core) for core in range(self.point.chip.cores)]
        heapq.heapify(servers)

        # Observability: hoist the enabled checks so the faultless fast
        # path pays one boolean per launch and nothing else.
        reg = metrics()
        rec = reg.enabled

        latencies: list[float] = []
        batch_sizes: list[int] = []
        index = 0
        queue: list[tuple[float, int]] = []  # (arrival time, retries so far)
        total = len(arrivals)
        last_completion = 0.0
        retried = dropped = lost_batches = 0

        while index < total or queue:
            if not queue:
                queue.append((arrivals[index], 0))
                index += 1
            server_free, core = servers[0]
            if schedule is not None and math.isinf(server_free):
                # Every core is gone for good: nothing pending can ever
                # launch, so the remaining stream is lost outright.
                dropped += len(queue) + (total - index)
                queue.clear()
                index = total
                break
            # Absorb arrivals that land before this batch could launch.
            while (index < total and len(queue) < self.policy.max_batch):
                deadline = queue[0][0] + self.policy.max_wait_s
                horizon = max(server_free, deadline)
                if arrivals[index] <= horizon:
                    queue.append((arrivals[index], 0))
                    index += 1
                else:
                    break
            if len(queue) >= self.policy.max_batch:
                ready = queue[self.policy.max_batch - 1][0]
            else:
                ready = queue[0][0] + self.policy.max_wait_s
            launch = max(server_free, ready)

            if retried and not math.isinf(retry_timeout):
                # A re-enqueued request whose relaunch would happen
                # later than the retry timeout after its arrival is
                # dropped here, not served arbitrarily late (and never
                # silently lost: the conservation invariant in
                # ServingStats.__post_init__ would catch that).
                alive = [e for e in queue
                         if not (e[1] > 0 and launch - e[0] > retry_timeout)]
                if len(alive) != len(queue):
                    dropped += len(queue) - len(alive)
                    queue = alive
                    continue

            if schedule is not None:
                down_until = schedule.outage_end(core, launch)
                if down_until is not None:
                    # Core is mid-repair at launch time: it takes no work
                    # until the outage ends; surviving cores go first.
                    if rec:
                        reg.counter("serving.outage_wait_s").inc(
                            max(0.0, down_until - launch))
                    heapq.heapreplace(servers, (down_until, core))
                    continue

            size = min(len(queue), self.policy.max_batch)
            if rec:
                reg.histogram("serving.queue_depth").observe(len(queue))
                reg.histogram("serving.batch_occupancy",
                              UNIT_BUCKETS).observe(
                    size / self.policy.max_batch)
            latency = self.batch_latency_s(size)
            if schedule is not None:
                factor = schedule.slowdown_factor(core, launch)
                if factor != 1.0:
                    latency *= factor
            completion = launch + latency

            if schedule is not None:
                failure = schedule.first_failure_between(
                    core, launch, completion)
                if failure is not None:
                    # The core died mid-batch: the whole in-flight batch
                    # is lost. Requests under budget and timeout keep
                    # their arrival times and rejoin the queue head.
                    fail_start, fail_end = failure
                    lost_batches += 1
                    if tracer is not None:
                        tracer.record(
                            "batch.lost", "serve", "serving", f"core{core}",
                            launch * 1e6, (fail_start - launch) * 1e6,
                            (("size", size),))
                    batch, queue = queue[:size], queue[size:]
                    survivors: list[tuple[float, int]] = []
                    for arrival, retries in batch:
                        if (retries + 1 > retry_budget
                                or fail_start - arrival > retry_timeout):
                            dropped += 1
                        else:
                            retried += 1
                            survivors.append((arrival, retries + 1))
                    queue = survivors + queue
                    heapq.heapreplace(servers, (fail_end, core))
                    continue

            batch, queue = queue[:size], queue[size:]
            heapq.heapreplace(servers, (completion, core))
            if tracer is not None:
                tracer.record("batch", "serve", "serving", f"core{core}",
                              launch * 1e6, latency * 1e6, (("size", size),))
            latencies.extend(completion - a for a, _ in batch)
            batch_sizes.append(size)
            last_completion = max(last_completion, completion)

        return self._finalize(arrivals, schedule, latencies, batch_sizes,
                              retried, dropped, lost_batches, last_completion)
