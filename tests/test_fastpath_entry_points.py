"""The fast path's once-per-second entry points.

The benchmark's layer ledger (``perfbench/ledger.py``) times the drive
loop by wrapping four methods by name, and its traced run checks their
call counts against the dataset.  This pins the contract it relies on:
in a fast-path campaign,

* ``StarlinkChannelFast.sample`` runs once per Starlink sample and
  ``CellularChannelFast.sample`` once per cellular sample;
* ``FluidTcpFast.step`` runs once per network-second of a TCP test;
* ``GeometryTimeline.visible`` runs at most once per Starlink sample
  (deep-blockage seconds skip it).
"""

from __future__ import annotations

import functools
from collections import Counter

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.dataset import STARLINK_NETWORKS
from repro.core.fastpath.channels import CellularChannelFast, StarlinkChannelFast
from repro.core.fastpath.fluid import FluidTcpFast
from repro.core.fastpath.timeline import GeometryTimeline

ENTRY_POINTS = (
    (StarlinkChannelFast, "sample"),
    (CellularChannelFast, "sample"),
    (GeometryTimeline, "visible"),
    (FluidTcpFast, "step"),
)


def _counting(calls: Counter, name: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_entry_point_calls_match_dataset_counts(monkeypatch):
    calls: Counter = Counter()
    for owner, method in ENTRY_POINTS:
        name = f"{owner.__name__}.{method}"
        monkeypatch.setattr(
            owner, method, _counting(calls, name, owner.__dict__[method])
        )
    config = CampaignConfig(
        seed=2,
        num_interstate_drives=1,
        num_city_drives=0,
        max_drive_seconds=400.0,
        test_duration_s=30.0,
        window_period_s=40.0,
    )
    assert config.fastpath
    dataset = Campaign(config).run()

    starlink = cellular = tcp = 0
    for record in dataset.records:
        n = len(record.samples)
        if record.network in STARLINK_NETWORKS:
            starlink += n
        else:
            cellular += n
        if record.protocol == "tcp":
            tcp += n
    assert starlink and cellular and tcp
    assert calls["StarlinkChannelFast.sample"] == starlink
    assert calls["CellularChannelFast.sample"] == cellular
    assert calls["FluidTcpFast.step"] == tcp
    assert 0 < calls["GeometryTimeline.visible"] <= starlink
