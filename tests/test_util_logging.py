"""Tests for rank-aware logging."""

import io

from repro.util.logging import get_logger


class _FakeComm:
    def __init__(self, rank, size):
        self.rank = rank
        self.size = size


class TestGetLogger:
    def test_rank_zero_emits(self):
        stream = io.StringIO()
        log = get_logger("t0", _FakeComm(0, 4), stream=stream)
        log.info("hello")
        out = stream.getvalue()
        assert "hello" in out
        assert "[t0 0/4]" in out

    def test_nonzero_rank_muted(self):
        stream = io.StringIO()
        log = get_logger("t1", _FakeComm(2, 4), stream=stream)
        log.info("quiet")
        assert stream.getvalue() == ""

    def test_all_ranks_env_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_ALL_RANKS", "1")
        stream = io.StringIO()
        log = get_logger("t2", _FakeComm(3, 4), stream=stream)
        log.info("loud")
        assert "[t2 3/4]" in stream.getvalue()

    def test_no_comm_emits(self):
        stream = io.StringIO()
        log = get_logger("t3", stream=stream)
        log.warning("solo")
        assert "solo" in stream.getvalue()

    def test_level_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "ERROR")
        stream = io.StringIO()
        log = get_logger("t4", stream=stream)
        log.info("suppressed")
        log.error("shown")
        out = stream.getvalue()
        assert "suppressed" not in out
        assert "shown" in out

    def test_explicit_level_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "DEBUG")
        stream = io.StringIO()
        log = get_logger("t5", stream=stream)
        log.debug("dbg")
        assert "dbg" in stream.getvalue()

    def test_no_duplicate_handlers_on_refetch(self):
        stream = io.StringIO()
        get_logger("t6", stream=stream)
        log = get_logger("t6", stream=stream)
        log.info("once")
        assert stream.getvalue().count("once") == 1

    def test_refetch_is_idempotent_handler_count(self):
        stream = io.StringIO()
        for _ in range(5):
            log = get_logger("t7", stream=stream)
        assert len(log.handlers) == 1

    def test_concurrent_ranks_share_one_handler(self):
        import threading

        stream = io.StringIO()
        barrier = threading.Barrier(8)
        errors = []

        def body(rank):
            try:
                barrier.wait()
                for _ in range(20):
                    log = get_logger("t8", _FakeComm(0, 4), stream=stream)
                    log.info("msg-%d", rank)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=body, args=(r,)) for r in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        log = get_logger("t8", _FakeComm(0, 4), stream=stream)
        # racing refetches must never stack handlers...
        assert len(log.handlers) == 1
        # ...and every message must appear exactly once
        out = stream.getvalue()
        for rank in range(8):
            assert out.count(f"msg-{rank}") == 20
