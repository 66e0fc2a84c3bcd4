"""Scalarized fluid transport models for the campaign fast path.

:class:`repro.core.fluid.FluidTcp` is the *reference* implementation: a
small number of numpy array operations per simulated second.  That is the
right shape for readability, but at campaign scale the per-call ufunc
dispatch dominates — the arrays hold 1-8 connections.  This module
re-implements the identical arithmetic lane-by-lane in plain Python
floats, keeping a numpy call only where scalar Python computes different
bits:

* ``np.argsort`` in the water-fill — its unstable introsort breaks
  demand ties, and tied lanes receive *different* shares, so the
  permutation itself is part of the contract;
* ``np.power`` for CUBIC's cube/cube-root — the array ufunc does not
  agree bitwise with Python's ``**`` (numpy optimizes small integer
  exponents), so the fast path calls the same ufunc on scalars.

Two numpy calls of the reference are replaced by exact scalar replicas:

* the reference draws loss events with one ``Generator.poisson`` call
  on the lane array; numpy fills that array by drawing each element in
  turn from the same bit generator, so one scalar draw per lane yields
  the same values and leaves the same generator state;
* the reference sums lanes with ``np.sum``, whose pairwise reduction
  adds up to 7 values left to right from ``0.0`` and exactly 8 as
  ``((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))``; :func:`_lane_sum` performs
  those additions in that order (wider arrays keep ``np.sum``).

Bit-identity against the reference — same goodput series, same RNG
stream state after every step — is enforced by the golden and property
tests in ``tests/test_fastpath_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

from repro.conditions import LinkConditions
from repro.core.fluid import FluidTcp
from repro.units import DEFAULT_MTU_BYTES

__all__ = ["FluidTcpFast"]


def _lane_sum(values: list[float]) -> float:
    """``float(np.asarray(values).sum())``, bit for bit, in Python floats."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n == 8:
        a0, a1, a2, a3, a4, a5, a6, a7 = values
        return ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))
    return float(np.asarray(values).sum())


class FluidTcpFast:
    """Drop-in :class:`~repro.core.fluid.FluidTcp` with scalar lanes.

    Same constructor, same :meth:`step`/:meth:`reset` surface, same
    output bits and RNG stream consumption; state lives in per-lane
    Python floats instead of length-``parallel`` arrays.
    """

    CUBIC_C = FluidTcp.CUBIC_C

    def __init__(
        self,
        parallel: int = 1,
        mss_bytes: int = DEFAULT_MTU_BYTES,
        beta: float = 0.7,
        growth_gain: float = 1.0,
        buffer_bytes: float = float("inf"),
        seed: int = 0,
    ):
        if parallel < 1:
            raise ValueError(f"need at least one connection, got {parallel}")
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        self.parallel = parallel
        self.mss = mss_bytes
        self.beta = beta
        self.growth_gain = growth_gain
        self.buffer_bytes = buffer_bytes
        self._gen = np.random.default_rng(seed)
        self._cwnd = [10.0 * mss_bytes] * parallel
        self._ssthresh = [float("inf")] * parallel
        self._w_max = [10.0 * mss_bytes] * parallel
        self._epoch_s = [0.0] * parallel
        # CUBIC's K only changes when w_max does (a loss event), so the
        # np.power cube root is cached per lane between losses.
        self._k: list[float | None] = [None] * parallel
        self._in_outage = False

    def reset(self) -> None:
        """Back to initial windows (new test)."""
        n = self.parallel
        self._cwnd = [10.0 * self.mss] * n
        self._ssthresh = [float("inf")] * n
        self._w_max = [10.0 * self.mss] * n
        self._epoch_s = [0.0] * n
        self._k = [None] * n
        self._in_outage = False

    def step(self, sample: LinkConditions, downlink: bool = True) -> float:
        """Advance one second; return delivered goodput (Mbps)."""
        mss = self.mss
        n = self.parallel
        dl = sample.downlink_mbps
        ul = sample.uplink_mbps
        if dl <= 0.0 and ul <= 0.0:  # sample.is_outage
            if not self._in_outage:
                self._ssthresh = [
                    max(c / 2.0, 2.0 * mss) for c in self._cwnd
                ]
                self._in_outage = True
            self._cwnd = [2.0 * mss] * n
            self._epoch_s = [0.0] * n
            return 0.0
        self._in_outage = False

        loss_rate = sample.loss_rate
        capacity_bytes = (dl if downlink else ul) * 1e6 / 8.0
        rtt_s = max(sample.rtt_ms / 1000.0, 1e-3)
        rates = self._allocate(capacity_bytes, rtt_s)
        one_minus_loss = 1.0 - loss_rate
        if n == 1:
            delivered = rates[0] * one_minus_loss
        else:
            delivered = _lane_sum(rates) * one_minus_loss

        cwnd = self._cwnd
        burst = max(sample.loss_burst, 1.0)
        bdp = capacity_bytes * rtt_s / n
        overshoot_at = 1.5 * bdp + 10.0 * mss
        lam = [
            r / DEFAULT_MTU_BYTES * loss_rate / burst
            + (0.7 if c > overshoot_at else 0.0)
            for r, c in zip(rates, cwnd, strict=True)
        ]
        # One scalar draw per lane, in lane order: the same values and
        # stream position as the reference's one array draw.
        poisson = self._gen.poisson
        events = [poisson(x) for x in lam]

        beta = self.beta
        buffer_bytes = self.buffer_bytes
        two_mss = 2.0 * mss
        cubic_c = self.CUBIC_C
        w_max = self._w_max
        epoch = self._epoch_s
        ssthresh = self._ssthresh
        kcache = self._k
        for i in range(n):
            cw = cwnd[i]
            e = events[i]
            if e > 0:
                w_max[i] = cw * (1.0 + beta) / 2.0 if cw < w_max[i] else cw
                kcache[i] = None
                epoch[i] = 0.0
                cw = cw * beta ** (2 if e > 2 else e)
                ssthresh[i] = cw
                if cw < two_mss:
                    cw = two_mss
                cwnd[i] = cw if cw < buffer_bytes else buffer_bytes
                continue
            if cw < two_mss:
                cw = two_mss
            acked = rates[i] * one_minus_loss
            in_ss = cw < ssthresh[i]
            if in_ss:
                cw += acked
            # Reference: min(acked / max(cw / rtt_s, 1.0), 1.0) > 0.8 —
            # the upper clamp never changes the comparison's outcome.
            denom = cw / rtt_s
            if denom < 1.0:
                denom = 1.0
            epoch[i] += 1.0 if acked / denom > 0.8 else 0.2
            if not in_ss:
                # CUBIC curve, with numpy's power ufunc on scalars —
                # Python's ``**`` computes different bits.
                w_max_pkts = w_max[i] / mss
                k = kcache[i]
                if k is None:
                    k = float(
                        np.power(w_max_pkts * (1.0 - beta) / cubic_c, 1.0 / 3.0)
                    )
                    kcache[i] = k
                target_pkts = (
                    cubic_c * float(np.power(epoch[i] - k, 3)) + w_max_pkts
                )
                target = target_pkts * mss
                if target < two_mss:
                    target = two_mss
                two_cw = 2.0 * cw
                capped = target if target < two_cw else two_cw
                if capped > cw:
                    cw = capped
            cwnd[i] = cw if cw < buffer_bytes else buffer_bytes
        return delivered * 8.0 / 1e6

    def _allocate(self, capacity_bytes: float, rtt_s: float) -> list[float]:
        """Water-fill capacity among window-limited connections."""
        cwnd = self._cwnd
        if self.parallel == 1:
            d = cwnd[0] / rtt_s
            return [d] if d <= capacity_bytes else [capacity_bytes]
        demand = [c / rtt_s for c in cwnd]
        total = _lane_sum(demand)
        if total <= capacity_bytes:
            return demand
        # With distinct demands the ascending order is unique, and a
        # Python sort finds it.  The reference breaks demand *ties* with
        # np.argsort's unstable introsort, and tied lanes receive
        # different shares — so on a tie the permutation is replayed with
        # the same call, not re-derived.
        order = sorted(range(self.parallel), key=demand.__getitem__)
        for a, b in zip(order, order[1:]):
            if not demand[a] < demand[b]:
                order = np.argsort(np.asarray(demand)).tolist()
                break
        rates = [0.0] * self.parallel
        remaining = capacity_bytes
        left = self.parallel
        for idx in order:
            d = demand[idx]
            share = remaining / left
            r = d if d < share else share
            rates[idx] = r
            remaining -= r
            left -= 1
        return rates

