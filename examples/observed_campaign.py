"""Run a small campaign with observability switched on.

Demonstrates the :mod:`repro.obs` loop end to end:

1. build an :class:`~repro.obs.ObsRecorder` and hand it to the campaign;
2. run with a checkpoint (a shard store directory) so the
   :class:`~repro.obs.RunManifest` lands next to it;
3. run a packet-level TCP test under the same recorder, so the DES
   event-loop counters land in the same artifact;
4. dump metrics as JSONL and Prometheus text;
5. render the same summary ``python -m repro.obs summary`` prints.

Usage::

    PYTHONPATH=src python examples/observed_campaign.py [--scale smoke|small]
"""

from __future__ import annotations

import argparse
import os
import tempfile

from repro.core.campaign import Campaign, CampaignConfig
from repro.geo.classify import AreaType
from repro.geo.mobility import VehicleTrace
from repro.leo.channel import StarlinkChannel
from repro.leo.dish import roam_dish
from repro.obs import (
    ObsRecorder,
    RunManifest,
    to_prometheus_text,
    use_recorder,
    write_jsonl,
)
from repro.obs.__main__ import render_summary
from repro.tools.iperf import run_tcp_test


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        choices=("smoke", "small"),
        default="smoke",
        help="campaign size (smoke ~7 simulated minutes, small ~65)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = (
        CampaignConfig.small(seed=args.seed)
        if args.scale == "small"
        else CampaignConfig.smoke(seed=args.seed)
    )
    recorder = ObsRecorder()
    campaign = Campaign(config, recorder=recorder)

    out_dir = tempfile.mkdtemp(prefix="observed_campaign_")
    checkpoint = os.path.join(out_dir, "campaign.store")
    dataset = campaign.run(checkpoint_path=checkpoint)

    # A packet-level TCP test over a Starlink trace from the same world:
    # the DES loop resolves the installed recorder, so its event counters
    # (sim.events_fired, heap depth, ...) join the campaign's metrics.
    with use_recorder(recorder):
        with recorder.span("example.packet_tcp"):
            channel = StarlinkChannel(
                roam_dish(),
                constellation=campaign.constellation,
                gateways=campaign.gateways,
                places=campaign.places,
                rng=campaign.rng.fork(999),
                recorder=recorder,
            )
            route = campaign.route_generator.interstate_drive(
                "obs-trace", campaign.places.cities()[0], campaign.places.cities()[1]
            )
            trace = VehicleTrace(route, campaign.rng.fork(998))
            samples = [
                channel.sample(m.time_s, m.position, m.speed_kmh, AreaType.SUBURBAN)
                for m in trace.samples[:60]
            ]
            tcp = run_tcp_test(samples, duration_s=60.0, seed=args.seed)
    print(f"packet TCP   : {tcp.throughput_mbps:.1f} Mbps over 60 s of trace")

    # Refresh the manifest so the DES metrics are part of the artifact.
    manifest = RunManifest.from_recorder(
        recorder,
        campaign.config.fingerprint(),
        drives=campaign.manifest.drives if campaign.manifest else [],
        num_tests=dataset.num_tests,
        distance_km=round(dataset.distance_km, 3),
    )
    manifest.save_json(f"{checkpoint}.manifest.json")
    campaign.manifest = manifest

    jsonl_path = os.path.join(out_dir, "campaign.obs.jsonl")
    lines = write_jsonl(recorder, jsonl_path)
    prom_path = os.path.join(out_dir, "campaign.prom")
    with open(prom_path, "w") as handle:
        handle.write(to_prometheus_text(recorder.registry))

    print(f"dataset      : {dataset.num_tests} tests, "
          f"{dataset.distance_km:.1f} km, {dataset.trace_minutes:.0f} device-minutes")
    print(f"checkpoint   : {checkpoint}")
    print(f"manifest     : {checkpoint}.manifest.json")
    print(f"jsonl dump   : {jsonl_path} ({lines} lines)")
    print(f"prometheus   : {prom_path}")
    print()
    assert campaign.manifest is not None
    print(render_summary(campaign.manifest))
    print()
    print("re-render any time with:")
    print(f"    python -m repro.obs summary {checkpoint}.manifest.json")


if __name__ == "__main__":
    main()
