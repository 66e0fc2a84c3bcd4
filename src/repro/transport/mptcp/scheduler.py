"""MPTCP packet schedulers: round-robin, minRTT, and BLEST.

The scheduler decides which subflow carries the next data segment.  BLEST
(Ferlin et al., IFIP Networking 2016) is the Linux v5.19 default the paper
ran: it avoids sending on a slow subflow when doing so is predicted to
block the shared meta send window before the data would be acknowledged.

Every scheduler records its decisions through :mod:`repro.obs`: one
counter series per (scheduler, subflow) plus a "wait" series for the
rounds where the scheduler deliberately sends nothing.  The concrete
schedulers implement :meth:`SchedulerBase._pick`; the public
:meth:`SchedulerBase.pick` wraps it with the bookkeeping so a decision is
counted exactly once even when schedulers delegate to each other
(``SatAware`` -> ``Blest``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence

from repro.obs.recorder import get_recorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.transport.mptcp.connection import MptcpConnection, Subflow


class Scheduler(Protocol):
    """Given subflows with congestion-window space, choose one (or wait).

    ``available`` lists those subflows in ``connection.subflows`` order.
    """

    def pick(
        self,
        available: Sequence["Subflow"],
        connection: "MptcpConnection",
    ) -> "Subflow | None": ...


class SchedulerBase:
    """Decision bookkeeping shared by all schedulers.

    Subclasses implement :meth:`_pick`; :meth:`pick` stays the public
    entry point and records the outcome (per-subflow pick or a "wait")
    under the scheduler's class name.
    """

    def __init__(self, recorder=None):
        self._obs = recorder if recorder is not None else get_recorder()
        self._m_waits = self._obs.counter(
            "mptcp.scheduler.waits", scheduler=type(self).__name__.lower()
        )
        self._m_picks: dict[int, object] = {}

    def pick(self, available, connection):
        chosen = self._pick(available, connection)
        if chosen is None:
            self._m_waits.inc()
        else:
            try:
                counter = self._m_picks[chosen.subflow_id]
            except KeyError:
                counter = self._obs.counter(
                    "mptcp.scheduler.decisions",
                    scheduler=type(self).__name__.lower(),
                    subflow=str(chosen.subflow_id),
                )
                self._m_picks[chosen.subflow_id] = counter
            counter.inc()
        return chosen

    def _pick(self, available, connection):  # pragma: no cover - abstract
        raise NotImplementedError


def _fastest(subflows: Sequence["Subflow"]) -> "Subflow":
    """The lowest-SRTT subflow, the first on a tie:
    ``min(subflows, key=lambda sf: sf.smoothed_rtt_s)``."""
    best = subflows[0]
    best_rtt = best.smoothed_rtt_s
    for sf in subflows[1:]:
        rtt = sf.smoothed_rtt_s
        if rtt < best_rtt:
            best, best_rtt = sf, rtt
    return best


class RoundRobin(SchedulerBase):
    """Cycle through subflows regardless of path quality (baseline)."""

    def __init__(self, recorder=None):
        super().__init__(recorder=recorder)
        self._last = -1

    def _pick(self, available, connection):
        if not available:
            return None
        ids = sorted(sf.subflow_id for sf in available)
        for sf_id in ids:
            if sf_id > self._last:
                self._last = sf_id
                break
        else:
            self._last = ids[0]
        return next(sf for sf in available if sf.subflow_id == self._last)


class MinRtt(SchedulerBase):
    """Always prefer the lowest-SRTT subflow with window space."""

    def _pick(self, available, connection):
        if not available:
            return None
        return _fastest(available)


class Blest(SchedulerBase):
    """Blocking-estimation scheduler (the paper's kernel default).

    Prefer the fastest available subflow.  When only slower subflows have
    space, estimate how many segments the fastest subflow could push during
    one slow-subflow RTT; if the shared send window cannot hold that burst
    plus the slow segment, sending on the slow subflow would head-of-line
    block the connection — so send nothing and wait for the fast subflow.
    """

    def __init__(self, scaling_lambda: float = 1.0, recorder=None):
        super().__init__(recorder=recorder)
        if scaling_lambda <= 0:
            raise ValueError(
                f"scaling lambda must be positive, got {scaling_lambda}"
            )
        self.scaling_lambda = scaling_lambda

    def _pick(self, available, connection):
        if not available:
            return None
        # ``_fastest(connection.subflows)`` and ``_fastest(available)`` in
        # one scan.  ``available`` is an ordered subsequence of the
        # subflows (the pump keeps it so), so a cursor into it meets each
        # available subflow in turn; strict ``<`` keeps the first on a
        # tie in both.
        subflows = connection.subflows
        fastest_overall = subflows[0]
        fast_rtt = fastest_overall.smoothed_rtt_s
        candidate = following = available[0]
        cand_rtt = candidate.smoothed_rtt_s
        cursor = 0
        last = len(available) - 1
        for sf in subflows:
            rtt = sf.smoothed_rtt_s
            if rtt < fast_rtt:
                fastest_overall, fast_rtt = sf, rtt
            if sf is following:
                if rtt < cand_rtt:
                    candidate, cand_rtt = sf, rtt
                if cursor == last:
                    following = None
                else:
                    cursor += 1
                    following = available[cursor]
        if candidate is fastest_overall:
            return candidate
        # Only slower subflow(s) have space: estimate blocking.
        rtt_slow = candidate.smoothed_rtt_s
        rtt_fast = max(fastest_overall.smoothed_rtt_s, 1e-6)
        # Segments the fast subflow could send while the slow segment is in
        # flight (its current window, replayed rtt_slow/rtt_fast times, plus
        # one growth increment per fast RTT).
        rounds = rtt_slow / rtt_fast
        fast_burst = fastest_overall.cc.cwnd * rounds + rounds
        window_left = connection.send_window_left()
        if window_left < self.scaling_lambda * fast_burst + 1.0:
            return None  # would block: wait for the fast path instead
        return candidate


class SatAware(Blest):
    """BLEST plus awareness of the LEO reconfiguration grid.

    The paper's Section 6 future work: "considering the specific usage
    scenarios and characteristics of the two network types, further
    improvements can be made to future MPTCP scheduler design, such as
    reducing throughput fluctuations."  Starlink reassigns satellites on a
    15 s grid; data put on the satellite subflow just before a boundary is
    the data most likely to be stranded by the switch gap.  This scheduler
    therefore refuses to schedule *new* data on satellite subflows inside a
    guard window around each boundary, steering it to the cellular subflow
    instead (satellite-side loss recovery continues normally).
    """

    def __init__(
        self,
        satellite_subflow_ids: frozenset[int] = frozenset({0}),
        interval_s: float = 15.0,
        guard_before_s: float = 0.8,
        guard_after_s: float = 0.7,
        scaling_lambda: float = 1.0,
        recorder=None,
    ):
        super().__init__(scaling_lambda=scaling_lambda, recorder=recorder)
        if interval_s <= 0:
            raise ValueError(f"interval must be positive, got {interval_s}")
        if guard_before_s + guard_after_s >= interval_s:
            raise ValueError("guard windows cannot cover the whole interval")
        self.satellite_subflow_ids = frozenset(satellite_subflow_ids)
        self.interval_s = interval_s
        self.guard_before_s = guard_before_s
        self.guard_after_s = guard_after_s

    def _in_guard_window(self, now_s: float) -> bool:
        phase = now_s % self.interval_s
        return (
            phase >= self.interval_s - self.guard_before_s
            or phase <= self.guard_after_s
        )

    def _pick(self, available, connection):
        if self._in_guard_window(connection.sim.now):
            terrestrial = [
                sf
                for sf in available
                if sf.subflow_id not in self.satellite_subflow_ids
            ]
            if terrestrial:
                return super()._pick(terrestrial, connection)
            return None  # hold rather than feed the closing window
        return super()._pick(available, connection)


def make_scheduler(name: str, recorder=None) -> Scheduler:
    """Factory: ``"blest"`` (kernel default), ``"minrtt"``, ``"roundrobin"``,
    or ``"sataware"`` (our LEO-aware extension)."""
    table = {
        "blest": Blest,
        "minrtt": MinRtt,
        "roundrobin": RoundRobin,
        "sataware": SatAware,
    }
    if name not in table:
        raise KeyError(f"unknown scheduler {name!r}; options: {sorted(table)}")
    return table[name](recorder=recorder)
