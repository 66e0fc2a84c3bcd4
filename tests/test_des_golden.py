"""Pinned digests of packet-level DES runs.

The perfbench pins hold three run kinds on one trace; these sha256 values
pin a wider grid of the iperf harness, so a change to the simulator,
links, MpShell or the transports that moves any event by any amount of
simulated time shows up here.  Each digest covers a run's in-order
``delivery_log`` (every delivery time and segment count) plus its
``(bytes_received, segments_sent, retransmissions, rto_events,
reinjections)``.

The grid is split between two conditions-trace seeds as a half fraction:
every combination of the TCP factors (direction, segment size, parallel
connections, congestion control) and of the MPTCP factors (scheduler,
meta buffer, loss replay) runs exactly once, on one seed or the other.

If a change alters one of these on purpose, it changes the model: say so
in CHANGES.md and re-record the values with ``des_digests()``.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

import repro.tools.iperf as iperf
from repro.emu.mpshell import MpShell
from repro.experiments.common import collect_conditions
from repro.experiments.fig10_mptcp_box import (
    TUNED_BUFFER_BYTES,
    UNTUNED_BUFFER_BYTES,
)
from repro.net.path import Path
from repro.net.simulator import Simulator
from repro.transport.mptcp import open_mptcp_connection
from repro.transport.parallel import ParallelTcp
from repro.transport.tcp import TcpSender, open_tcp_connection

#: Per trace seed: the network for the TCP runs, for the UDP run, and the
#: (satellite, cellular) pair for MPTCP.  All TCP networks replay loss
#: and outages, so SACK recovery and RTO backoff are on every path.
TRACE_SEEDS = (4, 16)
NETWORKS = (
    {"tcp": "VZ", "udp": "TM", "mptcp": ("RM", "VZ")},
    {"tcp": "RM", "udp": "ATT", "mptcp": ("RM", "ATT")},
)
TRACE_S = 20
RUN_S = 20.0
MPTCP_SEGMENT_BYTES = 6000

TCP_GRID = list(
    itertools.product((True, False), (1500, 6000), (1, 4), ("cubic", "reno"))
)
MPTCP_GRID = list(
    itertools.product(
        ("blest", "minrtt", "roundrobin", "sataware"),
        (UNTUNED_BUFFER_BYTES, TUNED_BUFFER_BYTES),
        (True, False),
    )
)


def _half(grid: list[tuple], parity: int) -> list[tuple]:
    """The points of ``grid`` whose level indices sum to ``parity`` mod 2.

    The two parities split the grid, so over both seeds every point runs
    once, and each level of each factor runs on both seeds.
    """
    levels = [sorted(set(col), key=str) for col in zip(*grid)]
    return [
        point
        for point in grid
        if sum(lv.index(v) for lv, v in zip(levels, point)) % 2 == parity
    ]


def _digest(log, bytes_received, segments_sent, retransmissions, rto, reinjections) -> str:
    counts = (bytes_received, segments_sent, retransmissions, rto, reinjections)
    return hashlib.sha256(repr((list(log), counts)).encode()).hexdigest()


class _Capture:
    """Records the transport objects the iperf harness builds."""

    def __init__(self, monkeypatch):
        self.objects: list = []
        for name in ("ParallelTcp", "open_udp_flow", "open_mptcp_connection"):
            original = getattr(iperf, name)
            monkeypatch.setattr(iperf, name, self._wrap(original))

    def _wrap(self, factory):
        def build(*args, **kwargs):
            made = factory(*args, **kwargs)
            self.objects.append(made)
            return made

        return build

    def take(self):
        (made,) = self.objects
        self.objects.clear()
        return made


def _group_digest(group: ParallelTcp) -> str:
    stats = group.stats
    return _digest(
        [entry for r in group.receivers for entry in r.delivery_log],
        stats.bytes_received,
        stats.segments_sent,
        stats.retransmissions,
        sum(s.stats.rto_events for s in group.senders),
        0,
    )


def des_digests(seed_index: int, monkeypatch) -> dict[str, str]:
    """Every run of one trace seed, keyed by a readable run name."""
    seed = TRACE_SEEDS[seed_index]
    traces = collect_conditions.__wrapped__(duration_s=TRACE_S, seed=seed)
    nets = NETWORKS[seed_index]
    capture = _Capture(monkeypatch)
    out: dict[str, str] = {}

    for downlink, segment, parallel, cc in _half(TCP_GRID, seed_index):
        iperf.run_tcp_test(
            traces[nets["tcp"]],
            duration_s=RUN_S,
            parallel=parallel,
            downlink=downlink,
            segment_bytes=segment,
            congestion=cc,
            seed=seed,
        )
        name = f"tcp-{'down' if downlink else 'up'}-{segment}-P{parallel}-{cc}"
        out[name] = _group_digest(capture.take())

    iperf.run_udp_test(traces[nets["udp"]], duration_s=RUN_S, seed=seed)
    sender, receiver = capture.take()
    out["udp"] = _digest(
        receiver.delivery_log,
        sender.stats.bytes_received,
        sender.stats.datagrams_sent,
        0,
        0,
        0,
    )

    for scheduler, buffer_bytes, replay_loss in _half(MPTCP_GRID, seed_index):
        iperf.run_mptcp_test(
            {name: traces[name] for name in nets["mptcp"]},
            duration_s=RUN_S,
            scheduler=scheduler,
            buffer_segments=max(2, buffer_bytes // MPTCP_SEGMENT_BYTES),
            segment_bytes=MPTCP_SEGMENT_BYTES,
            seed=seed,
            replay_loss=replay_loss,
        )
        connection, receiver = capture.take()
        name = f"mptcp-{scheduler}-{buffer_bytes}-loss{int(replay_loss)}"
        out[name] = _digest(
            receiver.delivery_log,
            receiver.bytes_received,
            connection.stats.segments_sent,
            connection.stats.retransmissions,
            sum(sf.stats.rto_events for sf in connection.subflows),
            connection.stats.reinjections,
        )

    single = nets["tcp"]
    iperf.run_single_path_over_mpshell(
        single,
        traces[single],
        duration_s=RUN_S,
        segment_bytes=MPTCP_SEGMENT_BYTES,
        seed=seed,
        replay_loss=True,
    )
    out["mpshell-single"] = _group_digest(capture.take())

    # On seed 4, VZ loses packets only in outage seconds, which have no
    # opportunities, so this digest equals the averaged-loss one there.
    shell = MpShell(seed=seed)
    path = shell.add_interface(
        single, traces[single], mtu_bytes=MPTCP_SEGMENT_BYTES, scheduled_loss=True
    )
    group = ParallelTcp(
        shell.sim, path, num_connections=1, segment_bytes=MPTCP_SEGMENT_BYTES
    )
    group.start()
    shell.run(RUN_S)
    out["mpshell-scheduled-loss"] = _group_digest(group)
    return out


GOLDEN: dict[int, dict[str, str]] = {
    0: {
        "tcp-down-1500-P1-reno": (
            "4de938e25637b89d239bb9dc754d21d5198e527f239388082712402d9248b311"
        ),
        "tcp-down-1500-P4-cubic": (
            "1445d4a83233a1a683a79b7fb2cb538c9ce74f9bf12fb12d624b9e9acde482be"
        ),
        "tcp-down-6000-P1-cubic": (
            "20d7bb188eecad60652f7c8d6e5bbb4581896ba192fcc9f2ca5cfd45b6ef73fe"
        ),
        "tcp-down-6000-P4-reno": (
            "d042f7f26dd21d5a891a2e691b030f63ca79307d7efc00607e0c44c8417a7261"
        ),
        "tcp-up-1500-P1-cubic": (
            "edb6682ea11bad45f57f48d010e2d4224b0d1bcfc887f6f203fdb937168de65c"
        ),
        "tcp-up-1500-P4-reno": (
            "899c495f26f42a13c82d4c30126309c1235773b19ac2e6747d668f191de61416"
        ),
        "tcp-up-6000-P1-reno": (
            "ae8ec390abe2f38f782064e1c6f44b3f5016506afc1aa080aeb8623b192a7088"
        ),
        "tcp-up-6000-P4-cubic": (
            "b0cdbe87cccf81e641645a9d9fba382768fbe25a5909515c2b03717aa89f943d"
        ),
        "udp": (
            "146d1b630568c51c7148f6efbea5f0384c053e9258ec7a42088c4031ac70cb8b"
        ),
        "mptcp-blest-262144-loss0": (
            "109f7d68f946813fe72377425f21b7aa6cb48b485884038fc589146a92b0cca2"
        ),
        "mptcp-blest-67108864-loss1": (
            "c3787f7d266c6fe825e402022d6d323cb1c2b5013481ba7e35449dce0f385659"
        ),
        "mptcp-minrtt-262144-loss1": (
            "d0346df1e37662cf19cddf401dea0539254284c4180f517e1cab610dc7ba3cee"
        ),
        "mptcp-minrtt-67108864-loss0": (
            "83a3e2fc5779f508440c2794e286688654641b9e7ce1dbebfaef73f2a308241e"
        ),
        "mptcp-roundrobin-262144-loss0": (
            "5294fa1238c96dcd694e40746582cf6ce561c6a158051a194ab8c6a8df406ecf"
        ),
        "mptcp-roundrobin-67108864-loss1": (
            "32732fa434da35b3d08766d6fdae1ee0acc5a29fbee6fbd62cc2d9ade9197490"
        ),
        "mptcp-sataware-262144-loss1": (
            "60e25eb5c561ae538d19426c74acfee3ae6e9ac6a1ae81036b0d678cdeee9cae"
        ),
        "mptcp-sataware-67108864-loss0": (
            "90a2b4866d94f6ed8ff2db64e160ad9c36ee123e4c122b1a195e46e06fe25698"
        ),
        "mpshell-single": (
            "06472ce1b369aa6735f70fc366c47c517c587ba5df4d186a70f7a817f1d3f40f"
        ),
        "mpshell-scheduled-loss": (
            "06472ce1b369aa6735f70fc366c47c517c587ba5df4d186a70f7a817f1d3f40f"
        ),
    },
    1: {
        "tcp-down-1500-P1-cubic": (
            "7e32d6d4a236a5d8a3333d56970a684181868fd5ed785897bd76919984fb04b6"
        ),
        "tcp-down-1500-P4-reno": (
            "6caf3ba0bc5ad23a0b683e63e588526bb290b40c2503ee3fd0945990c18457d1"
        ),
        "tcp-down-6000-P1-reno": (
            "c6ced712460ac3a73176809a3213ed312f1e4d303c5bc26b9077de67d6236b65"
        ),
        "tcp-down-6000-P4-cubic": (
            "90b5ab85c156fee7073121cf057e6f2e88e927316a534d02d31ab3893e1f3f51"
        ),
        "tcp-up-1500-P1-reno": (
            "10631fcd0b9a0a9915d2860b39d0889cdc277da5e7bda4c530a8d1cb8fdd3198"
        ),
        "tcp-up-1500-P4-cubic": (
            "b526038a2d528d898e1d49dd3effcc296520667960fdc0d8ed959ab5d5c41405"
        ),
        "tcp-up-6000-P1-cubic": (
            "b25ae5f63c2bd024730be8ee53edf1fecb0b5d278d2bf00ba344f1107e02f95b"
        ),
        "tcp-up-6000-P4-reno": (
            "b6f564c9e180d89ae653f247c6e72b959374e9e75bb6f87a0422c3a4f8e1924e"
        ),
        "udp": (
            "159984a1dc1065db41b74b465b86ab6b891307f50ffaa0bf9e0b4f86f74fc8e6"
        ),
        "mptcp-blest-262144-loss1": (
            "c29dbcb30995fc0dea60b0be4bca343cb1f2422fcc90486ba469699ec9fefe60"
        ),
        "mptcp-blest-67108864-loss0": (
            "c14336041374fdbf5e0bf441e851da2af8aec4a9bc5ec94c6c3661c81baeae29"
        ),
        "mptcp-minrtt-262144-loss0": (
            "ac8531b0fa90e6ea1cd9452c18191a0efe019ce2147d0a291c82b525dd098f87"
        ),
        "mptcp-minrtt-67108864-loss1": (
            "4ee6f2433bc6209697ee3ff3eab4c569e0a456c8387cee7c3db302740c87fa99"
        ),
        "mptcp-roundrobin-262144-loss1": (
            "912417fcd875f7e37765e84e8631571220ec1e76358111e1a354d76ef3a7961a"
        ),
        "mptcp-roundrobin-67108864-loss0": (
            "742f96970c80e26b5df4e4168e982279b0fe7da0d4f3855d56a60494d933b516"
        ),
        "mptcp-sataware-262144-loss0": (
            "3fd07504d7243d6d528fe68907cd35507251fc6c87c1728414cb99bb92e18c77"
        ),
        "mptcp-sataware-67108864-loss1": (
            "3ceabe4910ff18f4856d8a62291d3c80f20d7d4185d2a594d48a1e19d2768b64"
        ),
        "mpshell-single": (
            "8d13e9c600f0734607569f7a68ce2a38cb3b3ec849f35491c1974198f6418cb9"
        ),
        "mpshell-scheduled-loss": (
            "e3446564a04fab20b5bfd65ecad9963f5e8bec74603cfb3e99876d02096b3c1d"
        ),
    },
}


@pytest.mark.parametrize("seed_index", [0, 1])
def test_des_runs_match_pinned_digests(seed_index, monkeypatch):
    assert des_digests(seed_index, monkeypatch) == GOLDEN[seed_index]


def _rescanned_lost_count(sender: TcpSender) -> int:
    """The pipe's presumed-lost term, rescanning the whole scoreboard."""
    bound = sender._loss_bound()
    if bound <= sender.snd_una:
        return 0
    covered = len(sender._sacked) + sum(
        1 for s in sender._rtx_done if s not in sender._sacked and s < bound
    )
    return max(0, (bound - sender.snd_una) - covered)


def _watch_lost_count(sender: TcpSender, path: Path, checks: list) -> None:
    """After every ACK and RTO of ``sender``, compare the incremental
    presumed-lost count with a rescan and record ``_rtx_lost``."""

    def checked(handler):
        def run(*args):
            handler(*args)
            assert sender._lost_count() == _rescanned_lost_count(sender)
            checks.append(sender._rtx_lost)

        return run

    sender.on_ack = checked(sender.on_ack)
    path.reverse_link.connect(sender.on_ack)
    # The RTO timer looks ``_on_rto`` up on each expiry.
    sender._on_rto = checked(sender._on_rto)


def test_incremental_lost_count_matches_rescan():
    traces = collect_conditions.__wrapped__(duration_s=TRACE_S, seed=TRACE_SEEDS[1])
    sim = Simulator()
    path = Path.from_conditions(sim, traces["RM"], np.random.default_rng(3))
    sender, _ = open_tcp_connection(sim, path)
    checks: list[int] = []
    _watch_lost_count(sender, path, checks)
    sender.start()
    sim.run(until_s=RUN_S)
    assert sender.stats.rto_events > 0
    assert sender.stats.fast_retransmits > 0
    assert max(checks) > 0
    assert len(checks) > 1000

    # The same on both subflows of an MPTCP connection over a satellite
    # and a cellular path, with the recorded loss replayed: subflows
    # recover like TCP, and RTOs reinject their data onto the other.
    shell = MpShell(seed=3)
    paths = [
        shell.add_interface(
            name, traces[name], mtu_bytes=MPTCP_SEGMENT_BYTES, scheduled_loss=True
        )
        for name in ("RM", "ATT")
    ]
    connection, _ = open_mptcp_connection(
        shell.sim,
        paths,
        buffer_segments=TUNED_BUFFER_BYTES // MPTCP_SEGMENT_BYTES,
        segment_bytes=MPTCP_SEGMENT_BYTES,
    )
    sub_checks: list[list[int]] = [[] for _ in paths]
    for subflow, sub_path, found in zip(
        connection.subflows, paths, sub_checks, strict=True
    ):
        _watch_lost_count(subflow, sub_path, found)
    connection.start()
    shell.run(RUN_S)
    for subflow, found in zip(connection.subflows, sub_checks, strict=True):
        assert subflow.stats.rto_events > 0
        assert subflow.stats.fast_retransmits > 0
        assert max(found) > 0
    # The satellite path is out for much of the trace; the cellular one
    # carries most of the data.
    assert len(sub_checks[0]) > 50
    assert len(sub_checks[1]) > 1000
