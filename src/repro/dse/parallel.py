"""The ranked top-N search and the task pool it runs on.

Tuning is embarrassingly parallel *per configuration*, but the
admissible branch-and-bound is inherently sequential: whether candidate
``i`` may be skipped depends on the top-N after candidates ``< i``.
:func:`top_n_search` is that walk, written once for the layer search
(:func:`repro.dse.explore.phase1`) and the network search
(:func:`repro.dse.multi_layer.select_unified_design`), serial or fanned
out:

1. candidates are walked in descending upper-bound order, in batches;
2. a :class:`TaskPool` evaluates a batch — concurrently on worker
   processes (each holds the task function and its shared state, set by
   the pool initializer, so per-task pickling is just the candidate), or
   lazily in-process when there is one worker;
3. the walk consumes the batch results in rank order, checking the
   pruning bound *before* taking each result and discarding everything
   past the stop point.

Because the walk performs the same sequence of top-N updates and prune
checks for any batch size, finalists, statistics and the stop point are
identical for every ``jobs`` value (asserted by tests); the only cost of
a process pool is up to one batch of wasted tuning past the stop point —
with one worker the batch is evaluated on demand, so nothing is wasted.

The task function is a plain module-level function (picklable under
every start method); pools use the host platform's default start method.

Pool workers are treated as *unreliable*: every pooled task runs through
:func:`resilient_map`, which resubmits a task whose worker crashed
(an exception — including an injected ``dse.worker`` fault — or a died
process) and, past :data:`MAX_RESUBMITS` failures or a broken pool,
evaluates the task in the parent with the exact same pure function.
Since a task's result is a pure function of its candidate, recovery is
bit-identical to an undisturbed run by construction.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence, TypeVar

from repro.resilience.faults import maybe_inject

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

T = TypeVar("T")
R = TypeVar("R")

#: Batch size per pool round, as a multiple of the worker count.  Larger
#: batches amortize dispatch overhead; smaller ones waste less work past
#: the branch-and-bound stop point.
BATCH_FACTOR = 8

#: Times one task is resubmitted to the pool before the parent evaluates
#: it serially itself (the bit-identical fallback of last resort).
MAX_RESUBMITS = 2

OnRetry = Callable[[int, str], None]
"""Resubmission hook: (failed attempts for this task, reason)."""

OnDegrade = Callable[[str], None]
"""Serial-fallback hook: called with the reason once per degradation."""


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` knob: None/0/negative mean "all cores"."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def batched(items: Sequence[T], size: int) -> Iterator[Sequence[T]]:
    """Yield successive slices of at most ``size`` items."""
    for start in range(0, len(items), size):
        yield items[start : start + size]


def resilient_map(
    pool: ProcessPoolExecutor,
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    serial_fn: Callable[[T], R],
    on_retry: OnRetry | None = None,
    on_degrade: OnDegrade | None = None,
    max_resubmits: int = MAX_RESUBMITS,
) -> list[R]:
    """Map ``fn`` over ``items`` on the pool, surviving worker crashes.

    Every item is submitted as its own future (order preserved).  A task
    that raises — a genuine worker bug, an injected ``dse.worker``
    fault, or a :class:`BrokenProcessPool` from a died process — is
    resubmitted up to ``max_resubmits`` times; past that threshold (or
    once the pool itself is broken) the parent evaluates the item with
    ``serial_fn``, the same pure computation run in-process.  The
    returned list is therefore always complete and, because task results
    are pure functions of their items, bit-identical to a run with no
    failures at all.

    Args:
        pool: the executor (may break mid-flight; handled).
        fn: the worker task (reads process-global pool state).
        items: work items, order defining the result order.
        serial_fn: in-parent equivalent of ``fn`` (no pool state, no
            fault injection — the fallback must not itself be chaos'd).
        on_retry: hook per resubmission (events/telemetry).
        on_degrade: hook fired when an item falls back to serial.
        max_resubmits: per-item resubmission budget.
    """
    # Imported here so a serial run never loads the multiprocessing stack.
    from concurrent.futures.process import BrokenProcessPool

    items = list(items)
    try:
        futures = [pool.submit(fn, item) for item in items]
    except (BrokenProcessPool, RuntimeError) as exc:
        if on_degrade is not None:
            on_degrade(f"worker pool unusable at submit time: {exc}")
        return [serial_fn(item) for item in items]
    results: list[R] = []
    pool_broken = False
    for index, item in enumerate(items):
        failures = 0
        future = futures[index]
        while True:
            if pool_broken:
                results.append(serial_fn(item))
                break
            try:
                results.append(future.result())
                break
            except BrokenProcessPool as exc:
                pool_broken = True
                if on_degrade is not None:
                    on_degrade(f"worker pool broke: {exc}; serial fallback")
            except Exception as exc:  # noqa: BLE001 - any worker crash
                failures += 1
                if failures > max_resubmits:
                    if on_degrade is not None:
                        on_degrade(
                            f"task {index} failed {failures} times "
                            f"({type(exc).__name__}: {exc}); serial fallback"
                        )
                    results.append(serial_fn(item))
                    break
                if on_retry is not None:
                    on_retry(failures, f"{type(exc).__name__}: {exc}")
                try:
                    future = pool.submit(fn, item)
                except (BrokenProcessPool, RuntimeError):
                    pool_broken = True
    return results


# ------------------------------------------------------------ task pool

_TASK: tuple[Callable[..., Any], tuple] | None = None
"""``(fn, state)`` of the pool this worker process belongs to."""


def _task_init(fn: Callable[..., Any], state: tuple) -> None:
    global _TASK
    _TASK = (fn, state)


def _run_task(item: Any) -> Any:
    """The pool task: the ``dse.worker`` fault point + the pure ``fn``."""
    maybe_inject("dse.worker")
    assert _TASK is not None
    fn, state = _TASK
    return fn(*state, item)


class TaskPool:
    """Order-preserving map of the pure ``fn(*state, item)`` over items.

    With more than one worker the items go to a process pool through
    :func:`resilient_map`, so crashed workers are resubmitted and, past
    the budget, replayed in the parent.  With one worker the map is lazy
    and in-process — an item is evaluated when its result is taken, never
    fault-injected — which makes the serial search the pooled search with
    its batch evaluated on demand.

    Args:
        fn: module-level pure function (picklable under every start
            method); called as ``fn(*state, item)``.
        state: what every task shares; shipped to each worker once.
        jobs: worker processes; 1 = in-process, <= 0 = all cores.
        on_retry: hook per crashed-worker resubmission.
        on_degrade: hook when work falls back to the parent.
    """

    def __init__(
        self,
        fn: Callable[..., R],
        state: tuple,
        jobs: int,
        *,
        on_retry: OnRetry | None = None,
        on_degrade: OnDegrade | None = None,
    ) -> None:
        self.workers = resolve_jobs(jobs)
        self._fn = fn
        self._state = state
        self._hooks = {"on_retry": on_retry, "on_degrade": on_degrade}
        self._executor: ProcessPoolExecutor | None = None
        if self.workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_task_init, initargs=(fn, state)
            )

    def _call(self, item: Any) -> R:
        return self._fn(*self._state, item)

    def map(self, items: Iterable[Any]) -> Iterable[R]:
        """Results of ``fn`` over ``items``, in order."""
        if self._executor is None:
            return map(self._call, items)
        return resilient_map(
            self._executor, _run_task, items, serial_fn=self._call, **self._hooks
        )

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._executor is not None:
            self._executor.shutdown()


def top_n_search(
    ranked: Sequence[tuple[float, T]],
    pool: TaskPool,
    *,
    top_n: int,
    pruning: bool,
    score: Callable[[R], float],
    tick: int,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[list[tuple[float, T, R]], int]:
    """The admissible top-N walk over bound-ranked candidates.

    Args:
        ranked: ``(upper bound, item)`` pairs, best bound first; an
            item's true score never exceeds its bound.
        pool: evaluates items (``pool.map``); a None outcome = infeasible.
        top_n: finalists to keep.
        pruning: stop once the next bound cannot enter the top N.
        score: a feasible outcome's score; called exactly once per
            outcome consumed, in rank order.
        tick: candidates per batch (and per progress report) with one
            worker; a process pool takes ``workers * BATCH_FACTOR``.
        progress: optional hook called with (candidates consumed, total).

    Returns:
        ``(finalists, feasible)`` — the top ``(score, item, outcome)``
        triples, best first with ties toward the earlier candidate, and
        how many consumed candidates were feasible.  The finalists are
        identical to evaluating everything, stable-sorting, truncating.
    """
    finalists: list[tuple[float, T, R]] = []
    feasible = 0
    consumed = 0
    stopped = False
    eager = pool.workers > 1
    size = pool.workers * BATCH_FACTOR if eager else tick
    for batch in batched(ranked, size):
        outcomes = iter(pool.map(item for _, item in batch))
        for upper_bound, item in batch:
            if pruning and len(finalists) >= top_n and upper_bound <= finalists[-1][0]:
                stopped = True  # nothing below this bound can enter the top N
                break
            outcome = next(outcomes)
            consumed += 1
            if outcome is None:
                continue  # no feasible tiling (BRAM) for this candidate
            feasible += 1
            finalists.append((score(outcome), item, outcome))
            finalists.sort(key=lambda entry: entry[0], reverse=True)
            del finalists[top_n:]
        # A process pool reports once per batch; the in-process walk every
        # ``tick`` candidates consumed (so not for a cut or short batch).
        if progress and (eager or (len(batch) == tick and not stopped)):
            progress(consumed, len(ranked))
        if stopped:
            break
    return finalists, feasible


__all__ = [
    "BATCH_FACTOR",
    "MAX_RESUBMITS",
    "TaskPool",
    "batched",
    "resilient_map",
    "resolve_jobs",
    "top_n_search",
]
