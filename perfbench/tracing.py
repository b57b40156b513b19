"""In-memory spans for the traced benchmark run.

The traced run replaces module-level names that one layer of
``cyclic_jacobi`` calls in the next (for example ``batch_sweep`` as bound in
``driver``) with wrappers that record one span per call.  A span is
``[name, start, end, parent, op]``: monotonic seconds, the index of the
enclosing span (-1 at the root) and the operation it belongs to: one
``cjacobi`` command, or the session's timed loop.
Spans stay in memory until the session ends.  Worker processes forked by
``cjacobi verify --jobs N`` inherit the wrappers, but their spans are not
collected; the pool is timed from the parent through ``cli.ProcessPoolExecutor``.
"""

from __future__ import annotations

import functools
import pickle
import time
from collections import Counter

# Float64 entries one batch-kernel step touches per matrix, from the (m, n, n)
# layout: two rows and two columns read and written (8n), the pivot and the
# two diagonal entries (3), and the n(n-1)/2 upper entries summed for S^2.
def batch_step_bytes(n: int) -> int:
    return 8 * (8 * n + 3 + n * (n - 1) // 2)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []
        self.counts_by_op: dict[str, Counter] = {}
        self.begin("none")
        self._stack: list[int] = []

    def begin(self, op: str) -> None:
        """Give later spans and counts to operation ``op`` (a command, or the timed loop)."""
        self.op = op
        self.counts = self.counts_by_op.setdefault(op, Counter())

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic(), 0.0, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording a span per call while the tracer is active."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = tracer.call(name, fn, *args, **kwargs)
            if count is not None:
                count(tracer.counts, args, kwargs)
            return result

        return traced

    def layers(self, op: str) -> dict[str, dict[str, float]]:
        """Calls, busy time and self time (busy minus direct children) per span name, for ``op``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for k, (name, start, end, _, span_op) in enumerate(self.spans):
            if span_op != op:
                continue
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[k]
        return out


def _count_batch_sweep(counts: Counter, args, kwargs) -> None:
    mats, ordering = args[0], args[1]
    cycles = args[2] if len(args) > 2 else kwargs["cycles"]
    m, n = len(mats), ordering.n
    steps = m * cycles * len(ordering.pairs)
    counts["batch_sweep.matrix_steps"] += steps
    counts["batch_sweep.bytes_computed"] += steps * batch_step_bytes(n)


def install(tracer: Tracer, cli, driver, classification, jjacobi) -> None:
    """Wrap the names each layer calls in the next, as bound in the caller."""
    patches = [
        (cli, "campaign_cells_for_ordering", "driver.campaign_cells", None),
        (driver, "batch_sweep", "driver.batch_sweep", _count_batch_sweep),
        (driver, "classify", "classification.classify", None),
        (cli, "classify", "classification.classify", None),
        (classification, "classify", "classification.classify", None),
        (cli, "verify_catalog", "classification.verify_catalog", None),
        (driver, "relate", "orderings.relate", None),
        (jjacobi, "run_j_jacobi", "jjacobi.run_j_jacobi", None),
    ]
    for module, attr, name, count in patches:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, count))
    cli.ProcessPoolExecutor = _traced_pool(tracer, cli.ProcessPoolExecutor)


def _traced_pool(tracer: Tracer, base):
    """``base`` with its start, result waits and shutdown recorded as spans."""

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            tracer.call("cli.pool.start", super().__init__, *args, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            columns = [list(it) for it in iterables]
            tasks = list(zip(*columns))
            tracer.counts["pool.tasks"] += len(tasks)
            tracer.counts["pool.task_bytes"] += sum(len(pickle.dumps(t)) for t in tasks)
            # workers are forked on the first submission, so map belongs to start
            results = tracer.call("cli.pool.start", super().map, fn, *columns, **kwargs)
            return self._waited(results)

        def _waited(self, results):
            it = iter(results)
            while True:
                index = tracer.open("cli.pool.wait")
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item

        def shutdown(self, *args, **kwargs):
            tracer.call("cli.pool.shutdown", super().shutdown, *args, **kwargs)

    return TracedPool
