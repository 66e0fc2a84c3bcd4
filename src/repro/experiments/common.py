"""Shared fixtures for the experiment modules.

Experiments at campaign scale share one dataset per (scale, seed); the
module memoizes them because several figures read the same campaign, just
like the paper's figures all read the same field data.
"""

from __future__ import annotations

from functools import lru_cache

from repro.cellular.carriers import carrier_by_short_name
from repro.cellular.channel import CellularChannel
from repro.conditions import LinkConditions
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.dataset import (
    CELLULAR_NETWORKS,
    DriveDataset,
    NETWORKS,
    STARLINK_NETWORKS,
)
from repro.geo.mobility import VehicleTrace
from repro.leo.channel import StarlinkChannel
from repro.leo.dish import DishPlan, dish_for_plan

#: Campaign sizes for experiments: "small" for unit tests, "medium" for
#: benchmark runs, "paper" for the full-scale reproduction.
SCALES = ("small", "medium", "paper")

#: Worker processes campaign datasets are generated with (see
#: :attr:`repro.core.campaign.CampaignConfig.workers`).  Module-level so
#: the CLI's ``--workers`` reaches every experiment without threading a
#: parameter through each figure's ``run()`` signature.
_default_workers = 1

#: Resilience settings campaign datasets are generated with (see
#: :mod:`repro.resilience`); ``None`` means
#: :data:`repro.resilience.NO_RETRY`.  Module-level for the same reason
#: as ``_default_workers``: the CLI's ``--retries``/``--drive-timeout``
#: reach every experiment without touching figure signatures.
_default_resilience = None


def set_default_workers(workers: int) -> None:
    """Set the worker count campaign datasets are generated with.

    Execution-only: any worker count produces byte-identical datasets,
    which is why :func:`campaign_dataset`'s memoization key deliberately
    ignores it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    global _default_workers
    _default_workers = workers


#: Content-addressed drive cache directory campaign datasets are
#: generated with (see :mod:`repro.store.cache`); ``None`` disables the
#: cache.  Module-level like ``_default_workers``: the CLI's
#: ``--cache-dir`` reaches every experiment without touching figure
#: signatures.
_default_cache_dir = None


def set_default_cache_dir(cache_dir) -> None:
    """Set the drive-cache directory campaigns are generated with.

    Execution-only like :func:`set_default_workers`: cached and
    recomputed drives are byte-identical, so the memoization key
    ignores it too.  ``None`` disables caching.
    """
    global _default_cache_dir
    _default_cache_dir = cache_dir


def set_default_resilience(resilience) -> None:
    """Set the self-healing settings campaigns are generated with.

    Takes a :class:`repro.resilience.ResilienceConfig` or ``None``.
    Execution-only like :func:`set_default_workers`: retried and
    watchdog-healed runs are byte-identical to untouched ones, so the
    memoization key ignores it too.
    """
    from repro.resilience import ResilienceConfig

    if resilience is not None and not isinstance(resilience, ResilienceConfig):
        raise ValueError(
            f"resilience must be a ResilienceConfig or None, got {type(resilience)}"
        )
    global _default_resilience
    _default_resilience = resilience


def config_for_scale(scale: str, seed: int = 0) -> CampaignConfig:
    """Campaign configuration for a named scale."""
    if scale == "small":
        # One capped interstate drive that still crosses urban, suburban,
        # and rural stretches (the metro exit takes ~20 minutes).
        return CampaignConfig.small(seed=seed)
    if scale == "medium":
        return CampaignConfig(
            seed=seed,
            num_interstate_drives=4,
            num_city_drives=0,
            max_drive_seconds=2400.0,
            test_duration_s=60.0,
            window_period_s=75.0,
        )
    if scale == "paper":
        return CampaignConfig.paper_scale(seed=seed)
    raise ValueError(f"unknown scale {scale!r}; options: {SCALES}")


@lru_cache(maxsize=4)
def campaign_dataset(scale: str = "medium", seed: int = 0) -> DriveDataset:
    """The memoized campaign dataset for a scale/seed.

    Runs with the :func:`set_default_workers` worker count; the cache key is
    (scale, seed) only because the dataset is byte-identical at any
    worker count.
    """
    config = config_for_scale(scale, seed)
    config.workers = _default_workers
    config.resilience = _default_resilience
    config.cache_dir = _default_cache_dir
    return Campaign(config).run()


@lru_cache(maxsize=8)
def collect_conditions(
    duration_s: int = 300,
    seed: int = 7,
    networks: tuple[str, ...] = tuple(NETWORKS),
    skip_s: int = 1200,
) -> dict[str, list[LinkConditions]]:
    """Aligned per-second channel traces for one drive segment.

    This is the raw material of the transport-level experiments (Figures 5,
    7, 10, 11): all devices observe the same drive at the same timestamps,
    exactly like the paper's trace alignment (Section 6).  ``skip_s`` drops
    the urban departure loop so the default segment is the open-road
    driving the paper's MPTCP traces come from.
    """
    campaign = Campaign(config_for_scale("small", seed))
    route = campaign.route_generator.interstate_drive(
        f"trace-{seed}", campaign.places.cities()[0], campaign.places.cities()[3]
    )
    trace = VehicleTrace(route, campaign.rng)
    samples = trace.samples[int(skip_s) : int(skip_s) + int(duration_s)]
    if len(samples) < int(duration_s):
        raise ValueError(
            f"route too short: wanted {duration_s}s after skipping {skip_s}s,"
            f" got {len(samples)}s"
        )

    channels: dict[str, object] = {}
    for name in networks:
        if name in STARLINK_NETWORKS:
            channels[name] = StarlinkChannel(
                dish_for_plan(DishPlan(name)),
                constellation=campaign.constellation,
                gateways=campaign.gateways,
                places=campaign.places,
                rng=campaign.rng.fork(seed),
            )
        elif name in CELLULAR_NETWORKS:
            channels[name] = CellularChannel(
                carrier_by_short_name(name), campaign.rng.fork(seed)
            )
        else:
            raise KeyError(f"unknown network {name!r}")

    out: dict[str, list[LinkConditions]] = {name: [] for name in networks}
    for mob in samples:
        area = campaign.classifier.classify(mob.position)
        for name in networks:
            out[name].append(
                channels[name].sample(
                    mob.time_s, mob.position, mob.speed_kmh, area
                )
            )
    return out


def mean_capacity_mbps(
    samples: list[LinkConditions], downlink: bool = True
) -> float:
    """Mean capacity of a trace (used for utilization figures)."""
    if not samples:
        return 0.0
    return sum(s.capacity_mbps(downlink) for s in samples) / len(samples)
