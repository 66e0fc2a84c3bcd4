"""Extension experiment: does each network sustain 1080p video in motion?

Quantifies the paper's Roam cost-benefit claim (Section 4.1): "the network
requirements of most applications such as 1080P video streaming can
already be met by Roam."  A buffer-based ABR player streams over each
network's campaign throughput samples; the verdict is time-at-HD and
rebuffering per network.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.video import VideoVerdict, evaluate_network
from repro.core.dataset import NETWORKS
from repro.experiments.common import campaign_dataset


@dataclass
class ExtVideoResult:
    verdicts: list[VideoVerdict]

    def rows(self) -> list[tuple]:
        return [
            (
                v.network,
                round(v.hd_time_share, 3),
                round(v.rebuffer_ratio, 3),
                round(v.mean_bitrate_mbps, 1),
                "HD-ok" if v.supports_hd else "not-HD",
            )
            for v in self.verdicts
        ]


def run(scale: str = "medium", seed: int = 0) -> ExtVideoResult:
    """Stream over each network's UDP-downlink samples from the campaign."""
    ds = campaign_dataset(scale, seed)
    verdicts = []
    for network in NETWORKS:
        series = ds.filter(
            network=network, protocol="udp", direction="dl"
        ).throughput_samples()
        if not series:
            raise RuntimeError(f"no samples for {network}")
        verdicts.append(evaluate_network(network, series))
    return ExtVideoResult(verdicts=verdicts)
