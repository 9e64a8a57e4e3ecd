"""In-memory span tracer and the wrappers it installs around each layer.

The benchmark never edits the program to trace it.  Instead,
:class:`Instrumentation` replaces the public entry points of each layer
(class methods, module functions, registry entries) with thin wrappers
that open a span, call the original, and close the span.  Spans are
kept in memory as tuples and aggregated (or written) after the run;
:meth:`Instrumentation.uninstall` puts every original back.

A span's *self time* is its duration minus the durations of its direct
children, so the per-layer self times partition the traced wall time:
whatever no named layer covers is reported as ``trace.other_share``.
Per-node calls (``InterferenceSource.penalty``, ``LinkModel.prr``) are
deliberately left unwrapped and stay in their caller's self time.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span record: (name, start_s, end_s, parent index or -1, amount).
Span = Tuple[str, float, float, int, int]


class Tracer:
    """Collects nested spans on one thread.

    ``amount`` is a per-span count attached by the wrapper (for example
    the number of floods in one ``run_batch`` call); it defaults to 1.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Optional[Span]] = []
        # Open spans: (index, name, start, parent, amount).
        self._stack: List[Tuple[int, str, float, int, int]] = []

    def begin(self, name: str, amount: int = 1) -> int:
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append((index, name, self.clock(), parent, amount))
        return index

    def end(self, index: int) -> None:
        end = self.clock()
        top, name, start, parent, amount = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {name!r} closed out of order")
        self.spans[index] = (name, start, end, parent, amount)

    def wrap(
        self,
        fn: Callable,
        name: str,
        amount: Optional[Callable[..., int]] = None,
        when: Optional[Callable[..., bool]] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        ``amount(*args, **kwargs)`` sets the span's count; ``when`` (same
        arguments) skips the span entirely when it returns False, so a
        cached accessor can be traced only when it does real work.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            index = self.begin(name, 1 if amount is None else int(amount(*args, **kwargs)))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        traced.__wrapped_by_perfbench__ = True
        return traced

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per-name totals: ``calls``, ``amount``, ``total_s`` and ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _, amount) in enumerate(self.spans):
            entry = totals.setdefault(
                name, {"calls": 0, "amount": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["amount"] += amount
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[index]
        return totals

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``, in start order."""
        return [end - start for span_name, start, end, _, _ in self.spans if span_name == name]

    def columns(self) -> Dict[str, List[Any]]:
        """The raw spans as JSON-able columns (for writing after the run)."""
        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        return {
            "names": names,
            "name": [code[span[0]] for span in self.spans],
            "start_s": [round(span[1], 9) for span in self.spans],
            "end_s": [round(span[2], 9) for span in self.spans],
            "parent": [span[3] for span in self.spans],
            "amount": [span[4] for span in self.spans],
        }


#: Span names whose self time is not credited to any layer: the body of
#: a shard (result summaries, traffic generation) counts as "other".
UNATTRIBUTED = frozenset({"runner.shard"})


def _layer_targets() -> List[Tuple[Any, str, str, Optional[Callable], Optional[Callable]]]:
    """(owner, attribute, span name, amount, when) for every traced entry point."""
    from repro import api
    from repro.baselines.crystal import CrystalProtocol
    from repro.baselines.pid import PIDProtocol
    from repro.baselines.static_lwb import StaticLWBProtocol
    from repro.core.adaptivity import AdaptivityControl
    from repro.core.controller import DimmerController
    from repro.core.protocol import DimmerProtocol
    from repro.core.statistics import StatisticsCollector
    from repro.experiments import resilience, runner, scenarios  # noqa: F401  (loads all sources)
    from repro.experiments.spec import ExperimentSpec
    from repro.net import topology
    from repro.net.glossy import GlossyFlood
    from repro.net.interference import InterferenceSource
    from repro.net.link import LinkModel
    from repro.net.lwb import LWBRoundEngine
    from repro.net.simulator import NetworkSimulator
    from repro.rl.qnetwork import QNetwork
    from repro.rl.quantized import QuantizedNetwork

    targets: List[Tuple[Any, str, str, Optional[Callable], Optional[Callable]]] = [
        # setup
        (topology, "kiel_testbed", "setup.topology", None, None),
        (topology, "dcube_testbed", "setup.topology", None, None),
        (topology, "random_topology", "setup.topology", None, None),
        (topology, "grid_topology", "setup.topology", None, None),
        (LinkModel, "__init__", "setup.link_model", None, None),
        (LinkModel, "prr_matrix", "setup.prr_matrix", None,
         lambda self, *a, **k: self._prr_matrix is None),
        (NetworkSimulator, "__init__", "setup.simulator", None, None),
        (runner, "network_from_payload", "setup.protocol", None, None),
        (DimmerProtocol, "__init__", "setup.protocol", None, None),
        (PIDProtocol, "__init__", "setup.protocol", None, None),
        (StaticLWBProtocol, "__init__", "setup.protocol", None, None),
        (CrystalProtocol, "__init__", "setup.protocol", None, None),
        # floods
        (GlossyFlood, "run", "glossy.run", None, None),
        (GlossyFlood, "run_batch", "glossy.run_batch",
         lambda self, initiators, *a, **k: len(initiators), None),
        # rounds
        (LWBRoundEngine, "run_round", "lwb.round", None, None),
        (NetworkSimulator, "run_round", "simulator.round", None, None),
        # controller and inference
        (StatisticsCollector, "build_view", "core.build_view", None, None),
        (DimmerController, "observe_round", "core.observe", None, None),
        (AdaptivityControl, "decide", "core.decide", None, None),
        (DimmerProtocol, "run_round", "core.protocol_round", None, None),
        (QNetwork, "forward", "rl.forward", None, None),
        (QuantizedNetwork, "forward", "rl.forward", None, None),
        # baselines
        (PIDProtocol, "run_round", "baselines.pid", None, None),
        (StaticLWBProtocol, "run_round", "baselines.static_lwb", None, None),
        (CrystalProtocol, "run_epoch", "baselines.crystal_epoch", None, None),
        # runner, cache and API
        (resilience, "seal_result", "runner.seal", None, None),
        (resilience, "open_result", "runner.open", None, None),
        (runner.ParallelRunner, "_cache_load", "runner.cache_load", None, None),
        (runner.ParallelRunner, "_cache_store", "runner.cache_store", None, None),
        (api.Session, "prepare", "api.prepare_key", None, None),
        (ExperimentSpec, "task", "api.prepare_key", None, None),
        (runner.ScenarioTask, "key", "api.prepare_key", None, None),
    ]
    # Interference windows on every source class that defines them.
    pending = [InterferenceSource]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for attribute in ("penalty_windows", "penalty_timeline"):
            if attribute in vars(cls):
                targets.append((cls, attribute, "interference.windows", None, None))
    return targets


class Instrumentation:
    """Installs tracing wrappers around every layer and removes them again.

    Use as a context manager; the originals are restored even if the
    traced run raises.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.originals: List[Tuple[Any, str, Any, bool]] = []

    def _patch(self, owner: Any, attribute: str, replacement: Any, is_item: bool) -> None:
        original = owner[attribute] if is_item else vars(owner)[attribute]
        self.originals.append((owner, attribute, original, is_item))
        if is_item:
            owner[attribute] = replacement
        else:
            setattr(owner, attribute, replacement)

    def install(self) -> None:
        if self.originals:
            raise RuntimeError("instrumentation is already installed")
        from repro.experiments.runner import EXPERIMENTS

        for owner, attribute, name, amount, when in _layer_targets():
            original = vars(owner)[attribute]
            self._patch(owner, attribute, self.tracer.wrap(original, name, amount, when), False)
        # Shard bodies: the registry is looked up per task, so wrapping
        # its entries times every shard without touching the runner.
        for experiment in list(EXPERIMENTS):
            wrapped = self.tracer.wrap(EXPERIMENTS[experiment], "runner.shard")
            self._patch(EXPERIMENTS, experiment, wrapped, True)

    def uninstall(self) -> None:
        while self.originals:
            owner, attribute, original, is_item = self.originals.pop()
            if is_item:
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()


def installed_wrappers() -> List[str]:
    """Names of traced entry points that are currently wrapped (should be empty)."""
    from repro.experiments.runner import EXPERIMENTS

    found = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _, _, _ in _layer_targets()
        if getattr(vars(owner)[attribute], "__wrapped_by_perfbench__", False)
    ]
    found.extend(
        f"EXPERIMENTS[{name!r}]"
        for name, fn in EXPERIMENTS.items()
        if getattr(fn, "__wrapped_by_perfbench__", False)
    )
    return found
