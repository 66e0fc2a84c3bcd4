"""Core: fluid models, campaign orchestration, dataset, analysis, coverage."""

from repro.core.analysis import (
    SummaryStats,
    cdf_at,
    group_means,
    improvement_percent,
    speed_bucket,
)
from repro.core.campaign import (
    Campaign,
    CampaignConfig,
    CampaignReport,
    DEFAULT_CYCLE,
    DriveFailure,
    TestKind,
    run_campaign,
)
from repro.core.coverage import (
    CoverageShares,
    LEVEL_EDGES_MBPS,
    PerformanceLevel,
    best_of,
    classify_level,
    coverage_shares,
    figure9_shares,
)
from repro.core.dataset import (
    CELLULAR_NETWORKS,
    DriveDataset,
    NETWORKS,
    STARLINK_NETWORKS,
    SecondSample,
    TestRecord,
)
from repro.core.switching import (
    SwitchOutcome,
    SwitchPolicy,
    hysteresis_switching,
    oracle_switching,
)
from repro.core.fluid import (
    FluidTcp,
    fluid_tcp_series,
    fluid_udp_series,
)

__all__ = [
    "CELLULAR_NETWORKS",
    "Campaign",
    "CampaignConfig",
    "CampaignReport",
    "CoverageShares",
    "DEFAULT_CYCLE",
    "DriveDataset",
    "DriveFailure",
    "FluidTcp",
    "LEVEL_EDGES_MBPS",
    "NETWORKS",
    "PerformanceLevel",
    "STARLINK_NETWORKS",
    "SecondSample",
    "SummaryStats",
    "SwitchOutcome",
    "SwitchPolicy",
    "TestKind",
    "TestRecord",
    "best_of",
        "cdf_at",
    "classify_level",
    "coverage_shares",
    "fluid_tcp_series",
    "fluid_udp_series",
    "figure9_shares",
    "group_means",
    "hysteresis_switching",
    "improvement_percent",
    "oracle_switching",
    "run_campaign",
    "speed_bucket",
]
