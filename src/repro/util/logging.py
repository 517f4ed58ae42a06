"""Rank-aware logging.

Leadership-scale runs cannot have every rank printing: the convention
(followed by Nek, SENSEI, and ADIOS alike) is rank-0-only logging by
default, with an environment switch (``REPRO_LOG_ALL_RANKS=1``) to
unmute everyone when debugging a rank-dependent problem.  Messages are
prefixed ``[name rank/size]`` so interleaved multi-rank output stays
attributable.
"""

from __future__ import annotations

import logging
import os
import sys

import threading

from repro.parallel.comm import Communicator

_FORMAT = "%(asctime)s %(prefix)s %(levelname)s %(message)s"

#: guards handler setup: get_logger is called from concurrent
#: ThreadCommunicator rank threads, and logging.Logger.addHandler is
#: not atomic with our inspect-then-replace logic
_setup_lock = threading.Lock()


class _RankFilter(logging.Filter):
    def __init__(self, prefix: str, emit: bool):
        super().__init__()
        self.prefix = prefix
        self.emit = emit

    def filter(self, record: logging.LogRecord) -> bool:
        record.prefix = self.prefix
        return self.emit


class _RankHandler(logging.StreamHandler):
    """StreamHandler tagged with its configuration, for idempotence."""

    def __init__(self, stream, prefix: str, emit: bool):
        super().__init__(stream)
        self.setFormatter(logging.Formatter(_FORMAT, datefmt="%H:%M:%S"))
        self.addFilter(_RankFilter(prefix, emit))
        self._config = (id(stream), prefix, emit)


def get_logger(
    name: str,
    comm: Communicator | None = None,
    stream=None,
) -> logging.Logger:
    """Create/fetch a rank-aware logger — idempotently.

    Only rank 0 emits unless ``REPRO_LOG_ALL_RANKS`` is set (or the
    communicator is None/size 1).  The level is ``REPRO_LOG_LEVEL``, or
    INFO.

    Calling this twice for the same name is a no-op when the requested
    configuration matches the installed handler: a logger handed out
    earlier keeps working (no handler churn), and concurrent calls from
    ThreadCommunicator rank threads cannot interleave a clear with a
    peer's emit.
    """
    rank = comm.rank if comm is not None else 0
    size = comm.size if comm is not None else 1
    logger = logging.getLogger(f"repro.{name}.r{rank}")

    level = os.environ.get("REPRO_LOG_LEVEL", "INFO")

    all_ranks = os.environ.get("REPRO_LOG_ALL_RANKS", "") not in ("", "0", "no")
    emit = rank == 0 or all_ranks or size == 1
    target = stream or sys.stderr
    config = (id(target), f"[{name} {rank}/{size}]", emit)

    with _setup_lock:
        logger.propagate = False
        logger.setLevel(level)
        installed = [
            h for h in logger.handlers
            if isinstance(h, _RankHandler) and h._config == config
        ]
        if not installed:
            logger.handlers.clear()
            logger.addHandler(_RankHandler(target, config[1], emit))
    return logger
