"""The benchmark's workloads: spec grids, deployment replay and summaries.

Each workload is a grid of :class:`~repro.experiments.spec.ExperimentSpec`
points that a user would submit through ``Session.run_grid``.  Every
spec pins its engine where the family has an ``engine`` field; grid
seeds are derived from the workload seed with ``stable_seed``, so the
same ``--seed`` always yields the same grid.

``tiny=True`` shrinks every grid (fewer seeds, rounds and nodes) for the
benchmark's own tests; the full sizes are the ones ``BENCHMARK.json``
describes.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping

from repro.experiments.runner import stable_seed
from repro.experiments.spec import DCubeSpec, ExperimentSpec, SweepSpec, UNSET

def policy_payload() -> Dict[str, Any]:
    """The shipped pretrained DQN, quantised, as a task payload.

    ``allow_training=False`` makes a missing artifact an error instead
    of a silent training run inside the measurement.
    """
    from repro.experiments.runner import network_payload
    from repro.experiments.training import load_pretrained_agent
    from repro.rl.quantized import QuantizedNetwork

    agent = load_pretrained_agent(allow_training=False)
    return network_payload(QuantizedNetwork(agent.online))


def _kiel18_sweep(
    seed: int, payload: Mapping[str, Any], tiny: bool = False
) -> List[ExperimentSpec]:
    runs = 1 if tiny else 4
    rounds = 4 if tiny else 50
    return [
        SweepSpec(
            protocol=protocol,
            ratio=ratio,
            topology={"kind": "kiel"},
            rounds=rounds,
            round_period_s=4.0,
            engine="vectorized",
            network=payload if protocol == "dimmer" else UNSET,
            seed=stable_seed(seed, protocol, round(ratio * 100), run),
            label=f"kiel18:{protocol}@{ratio:.2f}#{run}",
        )
        for protocol in ("lwb", "dimmer", "pid")
        for ratio in (0.0, 0.15, 0.35)
        for run in range(runs)
    ]


def _dcube48_collection(
    seed: int, payload: Mapping[str, Any], tiny: bool = False
) -> List[ExperimentSpec]:
    # Many short shards rather than few long ones: each shard draws its
    # own sources and WiFi pattern, so more shards make the grid's total
    # work depend less on the seed.  Levels outermost, as in
    # ``Session.dcube``; within a level the costly Crystal shards come
    # first, so the campaign does not end on one long straggler.
    runs = 1 if tiny else 6
    rounds = 4 if tiny else 25
    return [
        DCubeSpec(
            protocol=protocol,
            level=level,
            topology={"kind": "dcube"},
            num_rounds=rounds,
            num_sources=5,
            max_retries=5,
            network=payload if protocol == "dimmer" else UNSET,
            seed=stable_seed(seed, "dcube", protocol, level, run),
            label=f"dcube48:{protocol}@wifi{level}#{run}",
        )
        for level in (0, 1, 2)
        for protocol in ("crystal", "dimmer", "lwb")
        for run in range(runs)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Why the workload was chosen (also in ``BENCHMARK.json``).
    why: str
    #: ``specs(seed, policy_payload, tiny=False)`` -> the grid, in submission order.
    specs: Callable[..., List[ExperimentSpec]]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "kiel18-sweep",
            "Fig. 5a grid on the 18-node testbed: many short rounds, per-round "
            "NumPy dispatch dominates and setup is about 0",
            _kiel18_sweep,
        ),
        Workload(
            "dcube48-collection",
            "Fig. 7 grid on D-Cube-48: few data slots, WiFi with channel hopping, "
            "sink-only accounting; Crystal's scalar per-flood path dominates",
            _dcube48_collection,
        ),
    )
}


def spec_rounds(spec: ExperimentSpec) -> int:
    """Protocol rounds a spec simulates (Crystal epochs count as rounds)."""
    return int(spec.rounds if isinstance(spec, SweepSpec) else spec.num_rounds)


# ----------------------------------------------------------------------
# Deployment replay (the untraced ``setup_s`` measurement)
# ----------------------------------------------------------------------
def build_deployment(spec: ExperimentSpec) -> Any:
    """Build one shard's deployment exactly as far as its first round.

    Mirrors what the worker does before simulating: ``build_topology``,
    ``NetworkSimulator`` (which builds the ``LinkModel``), the
    interference source, the first ``LinkModel.prr_matrix()`` and the
    protocol constructor including policy decode and quantisation.
    Returns the protocol so the caller controls when it is released.
    """
    from repro.baselines.crystal import CrystalConfig, CrystalProtocol
    from repro.baselines.pid import PIDProtocol
    from repro.baselines.static_lwb import StaticLWBProtocol
    from repro.core.config import DimmerConfig, dcube_config
    from repro.core.protocol import DimmerProtocol
    from repro.experiments.runner import build_topology, network_from_payload
    from repro.experiments.scenarios import dcube_wifi_interference, jamming_interference
    from repro.net.simulator import NetworkSimulator, SimulatorConfig

    params = spec.params()
    topology = build_topology(params["topology"])
    seed = spec.seed
    protocol = params["protocol"]
    if isinstance(spec, SweepSpec):
        config = SimulatorConfig(
            round_period_s=params["round_period_s"],
            channel_hopping=False,
            seed=seed,
            engine=params["engine"],
        )
        interference = jamming_interference(topology, params["ratio"])
        dimmer_config = DimmerConfig(channel_hopping=False, enable_forwarder_selection=False)
    elif protocol == "crystal":
        crystal = CrystalProtocol(
            topology,
            CrystalConfig(seed=seed, epoch_period_s=1.0),
            interference=dcube_wifi_interference(topology, params["level"], seed=seed + 2),
        )
        crystal.link_model.prr_matrix()
        return crystal
    else:
        dimmer_config = dcube_config(seed=seed)
        config = SimulatorConfig(
            round_period_s=dimmer_config.round_period_s if protocol == "dimmer" else 1.0,
            channel_hopping=dimmer_config.channel_hopping if protocol == "dimmer" else False,
            seed=seed,
        )
        interference = dcube_wifi_interference(topology, params["level"], seed=seed + 2)
    simulator = NetworkSimulator(topology, config)
    simulator.set_interference(interference)
    simulator.link_model.prr_matrix()
    if protocol == "dimmer":
        return DimmerProtocol(simulator, network_from_payload(params["network"]), dimmer_config)
    if protocol == "pid":
        return PIDProtocol(simulator)
    return StaticLWBProtocol(simulator, n_tx=3)


# ----------------------------------------------------------------------
# Paper-shape summaries printed beside the metrics
# ----------------------------------------------------------------------
def shape_table(specs: List[ExperimentSpec], results: List[Any]) -> List[Dict[str, Any]]:
    """Per (protocol, interference) means of reliability, radio-on and energy.

    Keeps the Fig. 5a / Fig. 7a shapes visible next to the timing
    metrics, so a change that speeds the program up by changing what it
    computes shows at a glance.
    """
    groups: Dict[tuple, List[Any]] = {}
    for spec, result in zip(specs, results):
        if isinstance(result, dict):  # a failed shard, reported elsewhere
            continue
        params = spec.params()
        level = params.get("ratio", params.get("level"))
        groups.setdefault((params["protocol"], level), []).append(result)
    rows = []
    for (protocol, level), group in groups.items():
        # ExperimentMetrics calls it radio_on_ms, DCubeResult average_radio_on_ms.
        radio_on = [
            r.radio_on_ms if hasattr(r, "radio_on_ms") else r.average_radio_on_ms for r in group
        ]
        rows.append(
            {
                "protocol": protocol,
                "interference": level,
                "reliability": statistics.fmean(r.reliability for r in group),
                "radio_on_ms": statistics.fmean(radio_on),
                "energy_j": statistics.fmean(r.energy_j for r in group),
            }
        )
    return rows
