"""Event loop semantics."""

import pytest

from repro.net.simulator import Simulator, Timer


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_simultaneous_events_fifo():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(1.0, lambda i=i: fired.append(i))
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_now_advances():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]


def test_run_until_stops_before_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append("late"))
    sim.run(until_s=2.0)
    assert fired == []
    assert sim.now == 2.0
    sim.run(until_s=10.0)
    assert fired == ["late"]


def test_cancel_event():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("x"))
    handle.cancel()
    sim.run()
    assert fired == []


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h1.cancel()
    assert sim.pending_events == 1


def test_nested_scheduling():
    sim = Simulator()
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.schedule(1.0, lambda: fired.append(("inner", sim.now)))

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == [("outer", 1.0), ("inner", 2.0)]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(1.0, lambda: None)


def test_stop_halts_processing():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a"]
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until_s=7.0)
    assert sim.now == 7.0


def test_stop_does_not_fast_forward_to_until():
    """A stopped run stays at the last processed event's time.

    Regression test: ``run(until_s=...)`` used to fast-forward ``now`` to
    the deadline even when ``stop()`` had halted processing mid-window,
    silently skipping the simulated span between the stop and the
    deadline.
    """
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.run(until_s=10.0)
    assert fired == ["a"]
    assert sim.now == 1.0
    # Resuming honours the remaining events and only then the deadline.
    sim.run(until_s=10.0)
    assert fired == ["a", "b"]
    assert sim.now == 10.0


@pytest.mark.parametrize("method", ["schedule", "schedule_at"])
def test_nan_times_rejected(method):
    sim = Simulator()
    with pytest.raises(ValueError):
        getattr(sim, method)(float("nan"), lambda: None)
    assert sim.pending_events == 0


def test_nan_cannot_corrupt_heap_order():
    sim = Simulator()
    fired = []
    for t in (2.0, float("nan"), 1.0, 3.0):
        try:
            sim.schedule_at(t, lambda t=t: fired.append(t))
        except ValueError:
            pass
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def _rearm_trace(use_timer: bool) -> list:
    """Fire log of a timer re-armed among other events, some of them due
    at exactly the timer's deadlines."""
    sim = Simulator()
    log = []

    def fire():
        log.append(("timer", sim.now))

    if use_timer:
        timer = Timer(sim, fire)
        arm, cancel = timer.arm, timer.cancel
    else:
        handle = [None]

        def cancel():
            if handle[0] is not None:
                handle[0].cancel()
                handle[0] = None

        def arm(delay):
            cancel()
            handle[0] = sim.schedule(delay, fire)

    def mark(name, at):
        return lambda: sim.schedule_at(at, lambda: log.append((name, sim.now)))

    plan = [
        (0.0, lambda: arm(1.0)),
        (0.1, mark("a", 1.5)),
        (0.5, lambda: arm(1.0)),  # later deadline: the 1.0 entry re-queues
        (0.6, mark("b", 1.5)),
        (1.6, lambda: arm(0.4)),
        (1.7, mark("c", 2.0)),
        (1.8, lambda: arm(0.2)),  # same deadline, later in the order
        (1.9, mark("d", 2.0)),
        (2.5, lambda: arm(1.0)),
        (2.6, lambda: arm(0.5)),  # earlier deadline: entry replaced
        (2.7, cancel),
        (3.0, lambda: arm(0.25)),
    ]
    for t, action in plan:
        sim.schedule_at(t, action)
    sim.run()
    return log


def test_timer_fires_like_push_per_rearm():
    expected = _rearm_trace(use_timer=False)
    assert expected == [
        ("a", 1.5), ("timer", 1.5), ("b", 1.5),
        ("c", 2.0), ("timer", 2.0), ("d", 2.0),
        ("timer", 3.25),
    ]
    assert _rearm_trace(use_timer=True) == expected
