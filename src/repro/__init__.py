"""repro: reproduction toolkit for "LEO Satellite vs. Cellular Networks:
Exploring the Potential for Synergistic Integration" (CoNEXT Companion '23).

The package layers, bottom up:

* :mod:`repro.geo` -- synthetic five-state geography, drive routes, vehicle
  mobility, and the paper's urban/suburban/rural classifier;
* :mod:`repro.leo` -- Walker-delta Starlink constellation, visibility and
  obstruction geometry, Roam/Mobility dish models, bent-pipe latency,
  15 s reconfiguration handover, and the per-second channel model;
* :mod:`repro.cellular` -- AT&T/T-Mobile/Verizon profiles, Poisson base
  station deployment, radio propagation, and the cellular channel model;
* :mod:`repro.net` + :mod:`repro.transport` -- a packet-level simulator with
  real TCP (SACK, CUBIC/Reno), UDP, parallel TCP, and MPTCP (BLEST/minRTT/
  round-robin schedulers, shared meta buffer);
* :mod:`repro.emu` -- Mahimahi-format traces and the MpShell replay shell;
* :mod:`repro.tools` -- iPerf-like tests and 5G-Tracker logging;
* :mod:`repro.core` -- campaign orchestration, the driving dataset, fluid
  transport models, and the coverage/statistics analysis;
* :mod:`repro.experiments` -- one module per paper figure.

Quick start::

    from repro.core import CampaignConfig, run_campaign
    dataset = run_campaign(CampaignConfig(seed=1))
    print(dataset.num_tests, "tests over", round(dataset.distance_km), "km")
"""

from repro.conditions import LinkConditions, outage
from repro.rng import RngStreams

__version__ = "1.0.0"

__all__ = ["LinkConditions", "RngStreams", "outage", "__version__"]
