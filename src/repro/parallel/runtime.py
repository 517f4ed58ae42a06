"""SPMD driver: launch a rank function across an in-process group.

``run_spmd(nranks, body)`` is the moral equivalent of ``mpiexec -n``:
it builds the communicator group, runs ``body(comm, *args)`` on every
rank (threads for nranks > 1, inline for nranks == 1), propagates the
first exception, and returns the per-rank results.
"""

from __future__ import annotations

import gc
import sys
import threading
import traceback
from typing import Callable, Sequence

from repro.parallel.comm import SerialCommunicator, TrafficMeter
from repro.parallel.thread_comm import ThreadCommunicator


def dump_thread_stacks(file=None) -> int:
    """Write every live thread's stack to `file` (default stderr).

    The debugging move for a wedged SPMD world: rank threads are named
    ``spmd-rank-N``, so the dump shows directly which rank is stuck in
    which collective or queue wait.  Returns the number of threads
    dumped.  Used by the test suite's deadlock watchdog before it
    aborts the run.
    """
    out = file if file is not None else sys.stderr
    # CPython < 3.11.8: a GC pass inside _current_frames() that frees a
    # threading.local deadlocks on the runtime lock (gh-106883)
    collecting = gc.isenabled()
    gc.disable()
    try:
        frames = sys._current_frames()
    finally:
        if collecting:
            gc.enable()
    threads = threading.enumerate()
    print(f"==== stacks of {len(threads)} live thread(s) ====", file=out)
    for thread in threads:
        frame = frames.get(thread.ident)
        daemon = " daemon" if thread.daemon else ""
        print(f"\n-- {thread.name} (ident {thread.ident}{daemon}) --", file=out)
        if frame is None:
            print("  <no frame: thread finishing>", file=out)
            continue
        for line in traceback.format_stack(frame):
            print(line.rstrip(), file=out)
    print("==== end of thread stacks ====", file=out)
    return len(threads)


def run_spmd(
    nranks: int,
    body: Callable,
    args: Sequence = (),
    meter: TrafficMeter | None = None,
) -> list:
    """Run `body(comm, *args)` on `nranks` ranks; return per-rank results.

    Exceptions raised by any rank abort the whole group: the world (and
    every subgroup ``split`` from it) is aborted so peers parked in
    collectives fail fast, and the first rank's exception (by rank
    order) is re-raised in the caller.
    """
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    meter = meter or TrafficMeter()
    if nranks == 1:
        comm = SerialCommunicator(meter)
        return [body(comm, *args)]

    comms = ThreadCommunicator.create_group(nranks, meter)
    results: list = [None] * nranks
    errors: list = [None] * nranks

    def runner(r: int) -> None:
        try:
            results[r] = body(comms[r], *args)
        except BaseException as exc:  # noqa: BLE001 - must capture rank failures
            errors[r] = exc
            # Abort the world so peers parked in collectives raise
            # instead of hanging until timeout.
            comms[r]._world.abort()

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"spmd-rank-{r}", daemon=True)
        for r in range(nranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    for r, err in enumerate(errors):
        if err is not None and not isinstance(err, TimeoutError):
            raise err
    for r, err in enumerate(errors):
        if err is not None:
            raise err
    return results
