"""Outside-in layer ledger: per-layer self time and call counts.

The ledger measures the program from the benchmark's side only.  It
replaces each layer's public entry point (a method on its class, or a
function in every module that binds it by name) with a wrapper that
records a span, and puts the originals back afterwards.  Nothing in
``src/`` knows it is being traced.

A layer's *self time* is the time its spans cover minus the part their
child spans cover, so the self times of all layers plus the residual
(op wall minus every top-level span) add up to the op wall exactly.
A call made while the same layer is already open on the stack (a
subclass method calling its base, say) adds time but is not counted
again.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable

_perf = time.perf_counter

#: The benchmark's own directory: its modules never get patched.
_HERE = os.path.dirname(os.path.abspath(__file__))

#: Layers whose per-call durations are kept (for a per-call median).
PER_CALL_LAYERS = frozenset({"serve.journal_append"})


class Ledger:
    """Span stack plus per-layer totals for one traced op at a time."""

    def __init__(self) -> None:
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self._plan: list[tuple[str, Any, str, Callable | None]] = []
        self._stack: list[list] = []
        self._open: dict[str, int] = defaultdict(int)
        self.reset()

    # -- accounting -----------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (patches stay as they are)."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.top_s = 0.0
        self.extra: dict[str, float] = defaultdict(float)

    def _wrap(self, layer: str, fn: Callable, on_return: Callable | None) -> Callable:
        stack = self._stack
        opened = self._open
        keep = layer in PER_CALL_LAYERS

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            opened[layer] += 1
            started = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - started
                stack.pop()
                opened[layer] -= 1
                self.self_s[layer] += elapsed - frame[0]
                if opened[layer] == 0:
                    self.calls[layer] += 1
                    if keep:
                        self.durations[layer].append(elapsed)
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_s += elapsed
            if on_return is not None:
                on_return(self, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- patch plan -----------------------------------------------------

    def method(
        self, layer: str, owner: type, name: str, on_return: Callable | None = None
    ) -> None:
        """Trace ``owner.name`` (defined on ``owner`` itself)."""
        if name not in owner.__dict__:
            raise AttributeError(f"{owner.__qualname__} defines no {name!r}")
        self._plan.append((layer, owner, name, on_return))

    def function(self, layer: str, fn: Callable) -> None:
        """Trace ``fn`` in every loaded module that binds it by name.

        A module that did ``from x import fn`` holds its own reference,
        so patching the defining module alone would miss its calls.
        """
        bound = [
            (module, attr)
            for module in list(sys.modules.values())
            if module is not None
            and not (getattr(module, "__file__", None) or "").startswith(_HERE)
            for attr, value in list(vars(module).items())
            if value is fn
        ]
        if not bound:
            raise LookupError(f"no loaded module binds {fn.__qualname__}")
        for module, attr in bound:
            self._plan.append((layer, module, attr, None))

    def install(self) -> None:
        """Apply every planned patch."""
        if self._patches:
            raise RuntimeError("ledger already installed")
        for layer, owner, name, on_return in self._plan:
            original = owner.__dict__[name]
            if isinstance(original, (classmethod, staticmethod)):
                patched: Any = type(original)(
                    self._wrap(layer, original.__func__, on_return)
                )
            else:
                patched = self._wrap(layer, original, on_return)
            setattr(owner, name, patched)
            self._patches.append((owner, name, original, patched))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original, _ = self._patches.pop()
            setattr(owner, name, original)

    def escaped(self) -> list[str]:
        """Bindings that no longer hold the wrapper installed for them.

        Empty while installed: no planned entry point escaped the ledger.
        """
        return [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, _, patched in self._patches
            if owner.__dict__[name] is not patched
        ]


def plan_all_layers(ledger: Ledger) -> None:
    """Register the entry points of every layer the workloads exercise."""
    from repro.cellular.channel import CellularChannel
    from repro.core import dataset as dataset_mod
    from repro.core.campaign import Campaign
    from repro.core.dataset import DriveDataset
    from repro.core.fastpath.channels import CellularChannelFast, StarlinkChannelFast
    from repro.core.fastpath.fluid import FluidTcpFast
    from repro.core.fastpath.timeline import GeometryTimeline
    from repro.core.fluid import FluidTcp
    from repro.emu.mpshell import MpShell
    from repro.geo.mobility import VehicleTrace
    from repro.leo.channel import StarlinkChannel
    from repro.net.path import Path
    from repro.net.simulator import Simulator
    from repro.serve.journal import JobJournal
    from repro.serve.service import CampaignService
    from repro.store.artifacts import ShardStore
    from repro.store.cache import DriveCache
    from repro.store.shard import ShardWriter
    from repro.tools.tracker import Tracker
    from repro.transport.mptcp import open_mptcp_connection
    from repro.transport.parallel import ParallelTcp

    # repro.core.campaign: world build and the per-drive orchestration.
    ledger.method("campaign", Campaign, "__init__")
    ledger.method("campaign", Campaign, "run")
    # repro.geo / repro.tools.tracker
    ledger.method("geo.trace", VehicleTrace, "__init__")
    ledger.method("geo.classify", Tracker, "observe_many")
    ledger.method("geo.classify", Tracker, "observe")
    # repro.core.fastpath
    ledger.method("timeline.build", GeometryTimeline, "__init__")
    ledger.method("timeline.visible", GeometryTimeline, "visible")
    ledger.method("fluid.step", FluidTcpFast, "step")
    ledger.method("fluid.step", FluidTcp, "step")
    # repro.leo / repro.cellular (fast subclasses and reference classes)
    ledger.method("channel.starlink.sample", StarlinkChannelFast, "sample")
    ledger.method("channel.starlink.sample", StarlinkChannel, "sample")
    ledger.method("channel.cellular.sample", CellularChannelFast, "sample")
    ledger.method("channel.cellular.sample", CellularChannel, "sample")
    # repro.core.dataset (bound by name in repro.core.campaign and others)
    ledger.function("dataset.encode", dataset_mod.record_to_dict)
    ledger.function("dataset.decode", dataset_mod.record_from_dict)
    ledger.method("dataset.save_json", DriveDataset, "save_json")
    # repro.store
    ledger.method("store.shard_append", ShardWriter, "append")
    ledger.method("store.commit", ShardStore, "commit")
    ledger.method("store.cache_get", DriveCache, "get", on_return=_count_cache_get)
    ledger.method("store.cache_put", DriveCache, "put")
    ledger.method("store.fsync", os, "fsync")
    # repro.serve
    ledger.method("serve.submit", CampaignService, "submit")
    ledger.method("serve", CampaignService, "run_until_drained")
    ledger.method("serve.journal_append", JobJournal, "append")
    # repro.net / repro.transport / repro.emu
    ledger.method("des.build", Path, "from_conditions")
    ledger.method("des.build", MpShell, "add_interface")
    ledger.method("des.build", ParallelTcp, "__init__")
    ledger.function("des.build", open_mptcp_connection)
    ledger.method("des.loop", Simulator, "run")


def _count_cache_get(ledger: Ledger, result: Any) -> None:
    raw, _quarantined = result
    ledger.extra["store.cache_hits" if raw is not None else "store.cache_misses"] += 1
