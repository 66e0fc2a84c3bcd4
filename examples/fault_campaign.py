"""Fault injection + resilient orchestration: a campaign that survives.

Runs the same small campaign twice — clean, then under a seed-driven
fault schedule (satellite outages, gateway failures, obstruction bursts,
a weather front, cellular sector outages) — and prints what the faults
did to each network plus the campaign report.  Also demonstrates
checkpoint/resume: the faulted campaign commits each drive to a shard
store directory, and re-running from it skips the completed drives.

Run:  python examples/fault_campaign.py
"""

import os
import tempfile

import numpy as np

from repro.core import Campaign, CampaignConfig, NETWORKS
from repro.faults import generate_schedule


def build_config(with_faults: bool) -> CampaignConfig:
    config = CampaignConfig(
        seed=42,
        num_interstate_drives=2,
        num_city_drives=0,
        max_drive_seconds=900.0,
        test_duration_s=30.0,
        window_period_s=40.0,
    )
    if with_faults:
        config.fault_schedule = generate_schedule(
            seed=42,
            num_drives=config.num_drives,
            drive_duration_s=900.0,
            intensity=2.0,
        )
    return config


def mean_udp_dl(dataset, network: str) -> float:
    samples = dataset.filter(
        network=network, protocol="udp", direction="dl"
    ).throughput_samples()
    return float(np.mean(samples)) if samples else 0.0


def main() -> None:
    print("Clean campaign...")
    clean = Campaign(build_config(with_faults=False)).run()

    print("Faulted campaign (checkpointing after every drive)...")
    checkpoint = os.path.join(tempfile.mkdtemp(), "campaign.store")
    faulted_campaign = Campaign(build_config(with_faults=True))
    faulted = faulted_campaign.run(checkpoint_path=checkpoint)
    report = faulted_campaign.report

    schedule = faulted_campaign.config.fault_schedule
    print(f"\nScheduled {len(schedule)} fault events:")
    for kind, count in sorted(report.scheduled_faults.items()):
        if count:
            print(f"  {kind:<20} x{count}")

    print(f"\n{'net':<5} {'clean UDP dl':>13} {'faulted UDP dl':>15} {'delta':>8}")
    for network in NETWORKS:
        before = mean_udp_dl(clean, network)
        after = mean_udp_dl(faulted, network)
        delta = (after - before) / before if before else 0.0
        print(f"{network:<5} {before:>13.1f} {after:>15.1f} {delta:>8.1%}")

    print(
        f"\nReport: {report.drives_completed}/{report.drives_total} drives, "
        f"{report.drives_failed} failed, {report.fault_outage_seconds} s of "
        f"forced outage, per-kind fault seconds: {report.fault_seconds}"
    )

    print("\nResuming from the checkpoint (all drives already done)...")
    resumed_campaign = Campaign(build_config(with_faults=True))
    resumed_campaign.run(checkpoint_path=checkpoint)
    print(
        f"Resumed {resumed_campaign.report.drives_resumed}/"
        f"{resumed_campaign.report.drives_total} drives straight from "
        f"{os.path.basename(checkpoint)} — nothing was re-simulated."
    )


if __name__ == "__main__":
    main()
