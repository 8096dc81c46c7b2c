"""Span/tracer correctness: nesting, clocks, exceptions, threads."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import Tracer, to_chrome_trace


class FakeClock:
    """Deterministic monotonic clock: advances only when told to."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


class TestNesting:
    def test_parent_child_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_current_tracks_innermost(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_walk_is_depth_first_with_depths(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
        walked = [(s.name, d) for s, d in tracer.walk()]
        assert walked == [("root", 0), ("a", 1), ("a1", 2), ("b", 1)]

    def test_roots_and_children_of(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("kid"):
                pass
        (found_root,) = tracer.roots()
        assert found_root is root
        assert [c.name for c in tracer.children_of(root)] == ["kid"]


class TestDurations:
    def test_duration_from_injected_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("work") as span:
            clock.tick(2.5)
        assert span.duration == pytest.approx(2.5)
        assert tracer.duration_of("work") == pytest.approx(2.5)

    def test_open_span_duration_zero_but_elapsed_live(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        span = tracer.start("open")
        clock.tick(1.0)
        assert not span.closed
        assert span.duration == 0.0
        assert span.elapsed == pytest.approx(1.0)
        tracer.finish(span)
        assert span.duration == pytest.approx(1.0)

    def test_finish_is_idempotent(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        span = tracer.start("once")
        clock.tick(1.0)
        tracer.finish(span)
        clock.tick(5.0)
        tracer.finish(span)
        assert span.duration == pytest.approx(1.0)

    def test_duration_of_sums_same_name(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        for _ in range(3):
            with tracer.span("repeat"):
                clock.tick(1.0)
        assert tracer.duration_of("repeat") == pytest.approx(3.0)

    def test_self_times_subtract_children(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("parent"):
            clock.tick(1.0)
            with tracer.span("child"):
                clock.tick(4.0)
        times = tracer.self_times()
        assert times["parent"] == pytest.approx(1.0)
        assert times["child"] == pytest.approx(4.0)


class TestExceptionSafety:
    def test_exception_closes_span_records_error_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("fails") as span:
                raise ValueError("boom")
        assert span.closed
        assert span.error == "ValueError: boom"

    def test_exception_unwinds_manually_opened_children(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer") as outer:
                tracer.start("leaked")  # never explicitly finished
                raise RuntimeError("bail")
        (leaked,) = tracer.find("leaked")
        assert leaked.closed  # unwound when the outer span closed
        assert outer.closed
        assert tracer.current() is None

    def test_set_attrs_survive_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("fails") as span:
                span.set(progress=3)
                raise ValueError("x")
        assert span.attrs["progress"] == 3


class TestThreads:
    def test_worker_spans_attach_to_open_root(self):
        tracer = Tracer()
        done = threading.Event()

        def worker():
            with tracer.span("worker.task"):
                pass
            done.set()

        with tracer.span("run") as root:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert done.wait(1)
        (task,) = tracer.find("worker.task")
        assert task.parent_id == root.span_id

    def test_concurrent_spans_all_recorded(self):
        tracer = Tracer()
        n_threads, per_thread = 8, 25

        def worker(i: int):
            for j in range(per_thread):
                with tracer.span("unit", worker=i, j=j):
                    pass

        with tracer.span("run"):
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        units = tracer.find("unit")
        assert len(units) == n_threads * per_thread
        assert all(u.closed for u in units)
        # span ids are unique across threads
        ids = {u.span_id for u in units}
        assert len(ids) == len(units)

    def test_reset_clears_everything(self):
        tracer = Tracer()
        with tracer.span("gone"):
            pass
        tracer.reset()
        assert tracer.spans() == []
        assert tracer.roots() == []


class TestFreeze:
    def test_thaw_rebuilds_an_equal_tracer(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("run", engine="permutation"):
            clock.tick(0.5)
            with pytest.raises(ValueError):
                with tracer.span("stage", shape=(2, 3), ratio=float("nan")):
                    clock.tick(0.25)
                    raise ValueError("boom")
        record = tracer.freeze()
        assert isinstance(record, bytes)

        thawed = Tracer.thaw(record)
        fields = ("name", "span_id", "parent_id", "thread_id", "start", "end", "error")
        assert [[getattr(s, f) for f in fields] for s in thawed.spans()] == [
            [getattr(s, f) for f in fields] for s in tracer.spans()
        ]
        assert thawed.find("stage")[0].attrs["shape"] == "(2, 3)"
        # The exported document is identical (NaN compares unequal, so
        # compare its serialized form).
        assert json.dumps(to_chrome_trace(thawed)) == json.dumps(
            to_chrome_trace(tracer)
        )
